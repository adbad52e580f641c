(* A sharded durable KV front-end over the simulated machine.

   The key space is partitioned over N shards; each shard owns one
   instance of a registry structure under a registry persistence policy
   and is driven by one worker thread, so per-shard execution is
   sequential and conflicts are always intra-shard.

   Durability is a per-shard redo log plus a commit index, both written
   through the active policy's memory:

     entries[0..]   one cell per applied request
                    {client; seq; op; result}
     index          one cell: the durable prefix length

   Commit protocol (per batch, executed by the committing thread):

     flush every entry cell of the batch
     fence                                  -- entries durable
     write+flush each touched shard's index
     fence                                  -- commit point
     acknowledge the batch

   Two fences are unavoidable: the simulator resolves a crash by
   persisting each flushed-but-unfenced write-back independently, so
   without the first fence the index could persist while an entry it
   covers is lost. Both fences are the committing thread's own — the
   machine's fence only completes the calling thread's write-backs,
   which is why the group committer re-flushes the workers' entries
   itself instead of relying on a "shared" fence.

   Because the index commits a log *prefix*, an acknowledged request is
   always in the durable log, and a request can never commit while an
   earlier conflicting request of the same shard is uncommitted.

   [Per_op] mode runs this protocol once per request on the worker;
   [Group] mode hands completions to a dedicated committer thread that
   batches them (one batch per commit interval) under a single pair of
   fences — group commit, the NVRAM analogue of group-commit logging.

   Checkpoints ([?checkpoint] interval on {!create}) bound recovery
   cost: at virtual-time intervals the thread that owns a shard's
   commit index (the worker in per-op mode, the committer in group
   mode) snapshots the shard's committed state — a plain-OCaml model
   mirror of the store plus the shard's dedup entries, captured in one
   non-preemptible stretch so the cut is consistent — force-commits the
   log up to the cut, and writes the snapshot through {!Checkpoint}
   (the svc:ckpt_ sites). After the checkpoint's commit fence the covered
   log prefix is dropped and its cells retired, so both the live-cell
   estimate and recovery cost track the delta since the last
   checkpoint, not the uptime.

   Recovery reads each shard's durable index, truncates the volatile
   log to it (dropping — and retiring — cells beyond: a crash may have
   left them corrupt, and FliT's write instruments a read of the old
   value, so overwriting a corrupt cell is not an option), restores the
   checkpoint snapshot if one committed, replays only the remaining
   committed suffix to rebuild the per-client deduplication table
   (last committed entry wins on equal (client, seq)), and leaves the
   store to recover through its own policy. Re-sent requests whose
   record is committed are answered from the table without touching
   the store — exactly-once acknowledgement. {!spawn_recovery} runs
   the same per-shard recovery as simulated threads, so shards recover
   in parallel and recovery consumes measurable virtual time. *)

module Machine = Nvt_sim.Machine
module Sim_mem = Nvt_sim.Memory
module Stats = Nvt_nvm.Stats
module Guard = Nvt_nvm.Guard
module I = Nvt_harness.Instances

(* The service's persistence sites, interned once. Every ledger, commit
   and descriptor flush or fence passes through {!Guard}, so the
   mutation lab can suppress each one. *)
let ledger_flush_site = Stats.intern "svc:ledger_flush"
let ledger_fence_site = Stats.intern "svc:ledger_fence"
let commit_flush_site = Stats.intern "svc:commit_flush"
let commit_fence_site = Stats.intern "svc:commit_fence"
let desc_flush_site = Stats.intern "svc:desc_flush"
let desc_fence_site = Stats.intern "svc:desc_fence"

type op =
  | Put of int * int
  | Del of int
  | Get of int
  | Multi_put of (int * int) list
      (* k same-shard puts, one ledger record, one commit: the batch is
         applied and acknowledged atomically under the standard two
         commit fences, so durability costs a pair of fences for k keys
         even in per-op mode *)
  | Rmw of int * int
      (* read-modify-write: add the delta to the key's current value
         (installing the delta when absent) and return the old value,
         applied and committed as one request *)

let key_of_op = function
  | Put (k, _) | Del k | Get k | Rmw (k, _) -> k
  | Multi_put ((k, _) :: _) -> k
  | Multi_put [] -> invalid_arg "service: empty multi-put"

let pp_op ppf = function
  | Put (k, v) -> Format.fprintf ppf "put(%d,%d)" k v
  | Del k -> Format.fprintf ppf "del(%d)" k
  | Get k -> Format.fprintf ppf "get(%d)" k
  | Multi_put kvs ->
    Format.fprintf ppf "mput[%s]"
      (String.concat ";"
         (List.map (fun (k, v) -> Printf.sprintf "%d,%d" k v) kvs))
  | Rmw (k, d) -> Format.fprintf ppf "rmw(%d,%+d)" k d

type result = Done of bool | Value of int option

let pp_result ppf = function
  | Done b -> Format.fprintf ppf "%b" b
  | Value None -> Format.fprintf ppf "none"
  | Value (Some v) -> Format.fprintf ppf "some %d" v

type request = { client : int; seq : int; op : op }

type mode = Per_op | Group of { timeout : int }

let mode_name = function
  | Per_op -> "per_op"
  | Group { timeout } -> Printf.sprintf "group%d" timeout

(* One committed-log record. Stored whole in a single cell: key, value
   and result persist atomically with the identity, the simulator's
   cell = cache-line granularity. *)
type entry = { e_client : int; e_seq : int; e_op : op; e_res : result }

(* One checkpointed dedup record: the shard's last committed (seq,
   result) for a client, with the original slot so the re-send path's
   committed-prefix test ([committed > slot]) keeps working after the
   slot itself was truncated away. *)
type ckpt_dedup = { k_client : int; k_seq : int; k_slot : int; k_res : result }

(* The structure module is existential; close over its operations. *)
type store = {
  apply : op -> result;
  st_recover : unit -> unit;
  st_contents : unit -> (int * int) list;
  st_reconcile : (int * int) list -> unit;
      (* make the structure's contents equal the given pairs — recovery
         calls this with the rebuilt committed-prefix mirror to undo
         persisted effects of applies that never committed *)
  st_check : unit -> unit;
}

(* Same for the ledger: its cells live in the active policy's memory,
   whose [loc] type is existential too. *)
type ledger = {
  append : int -> entry -> unit;  (* slot -> record *)
  flush_entry : int -> unit;
  read_entry : int -> entry;
  write_index : int -> unit;
  flush_index : unit -> unit;
  read_index : unit -> int;
  truncate : int -> unit;  (* drop cells at slots >= the argument *)
  drop_below : int -> unit;  (* drop cells at slots < the argument *)
  write_ckpt : int -> (int * int) array -> ckpt_dedup array -> unit;
  read_ckpt : unit -> (int * (int * int) array * ckpt_dedup array) option;
}

type shard = {
  store : store;
  ledger : ledger;
  queue : request Queue.t;  (* volatile inbox; lost at a crash *)
  mutable next_slot : int;  (* volatile append cursor *)
  mutable committed : int;  (* volatile mirror of the durable index *)
  mirror : (int, int) Hashtbl.t;
      (* plain-OCaml model of the committed-prefix replay (put = add if
         absent, del = remove), maintained in the same non-preemptible
         stretch as the log append; the checkpoint snapshots it *)
  mutable preseed : (int * int) list;
      (* the prefill pairs — the mirror's base state, needed to re-seed
         it when a recovery finds no committed checkpoint (a checkpoint
         snapshot already contains them) *)
  mutable base : int;  (* slots below this are checkpoint-covered *)
  mutable next_ckpt : int;  (* per-op mode: next checkpoint boundary *)
}

type completion = {
  c_shard : int;  (* local shard index *)
  c_slot : int;
  c_req : request;
  c_res : result;
}

(* Last applied request per client, for deduplication of re-sends. *)
type dedup = { d_seq : int; d_res : result; d_shard : int; d_slot : int }

(* Detect mode: one durable completion descriptor, written whole into a
   single cell (cell = cache-line granularity, so identity, position
   and result persist atomically). Each client owns a pair of cells
   written round-robin: the previous committed descriptor survives
   until the next one's commit fence has passed, so a crash between a
   descriptor's flush and its batch's commit fence can invalidate at
   most the newer cell. A descriptor is {e valid} iff its slot is below
   its shard's durable commit index — the flush rides the batch's
   ledger fence, strictly before the index commits, so validity is
   exactly "this completion durably happened". *)
type desc_rec = { r_seq : int; r_shard : int; r_slot : int; r_res : result }

let null_desc = { r_seq = -1; r_shard = -1; r_slot = -1; r_res = Done false }

type t = {
  mode : mode;
  shards : shard array;  (* the slice's local shards only *)
  group : int;  (* slice: this instance owns global shards *)
  stride : int;  (* [s] with [s mod stride = group] *)
  total : int;  (* global shard count across all slices *)
  commit_interval : int;  (* group mode: commit at multiples of this *)
  ckpt_interval : int;  (* 0: checkpointing disabled *)
  mutable next_ckpt : int;  (* group mode: committer's next boundary *)
  mutable ckpt_count : int;
  mutable truncated : int;  (* log slots dropped by checkpoints *)
  mutable replayed : int;  (* log entries replayed by recovery passes *)
  last : (int, dedup) Hashtbl.t;  (* volatile; rebuilt in recovery *)
  pending : completion Queue.t;  (* group mode: awaiting the epoch fence *)
  mutable stop : bool;
  mutable on_apply : request -> result -> unit;
  mutable on_ack : request -> result -> dedup:bool -> unit;
  mutable on_commit : request -> shard:int -> slot:int -> unit;
  policy_recover : unit -> unit;
  svc_fence : Stats.id -> unit;
  poll_quantum : int;
  detect : bool;  (* descriptor-based recovery instead of log replay *)
  desc_put : int -> desc_rec -> unit;  (* client -> record; write+flush *)
  desc_reset : unit -> unit;  (* begin_recovery: clear the kept table *)
  desc_recover : shard:int -> index:int -> (int -> dedup -> unit) -> unit;
      (* merge this shard's valid descriptors into the dedup table and
         durably null the stale ones (see [recover_shard]) *)
}

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let mk_store (structure : (module I.STRUCTURE)) (policy : I.policy) : store =
  let module S = (val I.instantiate structure policy) in
  let s = S.create () in
  { apply =
      (fun op ->
        match op with
        | Put (k, v) -> Done (S.insert s ~key:k ~value:v)
        | Del k -> Done (S.delete s k)
        | Get k -> Value (S.find s k)
        | Multi_put kvs ->
          (* add-if-absent per key, in list order (a duplicate key later
             in the batch sees the earlier insert); [Done true] iff
             every key was fresh *)
          Done
            (List.fold_left
               (fun acc (k, v) ->
                 let fresh = S.insert s ~key:k ~value:v in
                 acc && fresh)
               true kvs)
        | Rmw (k, d) -> (
          match S.find s k with
          | Some v ->
            ignore (S.delete s k);
            ignore (S.insert s ~key:k ~value:(v + d));
            Value (Some v)
          | None ->
            ignore (S.insert s ~key:k ~value:d);
            Value None));
    st_recover = (fun () -> S.recover s);
    st_contents = (fun () -> S.to_list s);
    st_reconcile =
      (fun pairs ->
        (* delete keys the committed truth does not have (or holds at a
           different value), then insert what is missing; the ops run
           through the policy, so the fix-ups persist like any other
           update. Only a durable policy earns this: under a volatile
           flavour the log is no truer than the store, and rebuilding
           from it would mask exactly the lost-acknowledgement window
           the negative control exists to detect. *)
        let (module Pol : I.POLICY) = policy in
        if not Pol.durable then ()
        else
        let want = Hashtbl.create (List.length pairs * 2) in
        List.iter (fun (k, v) -> Hashtbl.replace want k v) pairs;
        List.iter
          (fun (k, v) ->
            match Hashtbl.find_opt want k with
            | Some v' when v' = v -> Hashtbl.remove want k
            | Some _ | None -> ignore (S.delete s k))
          (S.to_list s);
        Hashtbl.iter (fun k v -> ignore (S.insert s ~key:k ~value:v)) want);
    st_check = (fun () -> S.check_invariants s) }

let mk_ledger (module LMem : Nvt_nvm.Memory.S) () : ledger =
  let cells = ref (Array.make 64 (None : entry LMem.loc option)) in
  let index = LMem.alloc 0 in
  let module C = Checkpoint.Make (LMem) in
  let ckpt : ckpt_dedup C.t = C.create () in
  let cell slot =
    match !cells.(slot) with
    | Some c -> c
    | None ->
      (* [failwith], not [invalid_arg]: with a suppressed svc:ckpt_ site
         site a crash can durably commit a truncation whose checkpoint
         descriptor was lost, and recovery then asks for a dropped
         slot — the harnesses treat [Failure] as a recovery kill. *)
      failwith "service ledger: read of an absent slot"
  in
  (* Every slot below [low] is [None]: [drop_below] starts its scan
     there instead of at slot 0, which made checkpoint truncation
     quadratic in the log length. [append] is the only place a slot
     becomes [Some], so it lowers the mark when it refills one below
     it (as appends after a [truncate] of the tail can). *)
  let low = ref 0 in
  (* Null cells in [lo, hi), retiring the simulated locations of those
     actually dropped (Some -> None transitions only, so truncation
     after a crash-interrupted recovery never double-retires). *)
  let drop lo hi =
    let dropped = ref 0 in
    for i = lo to hi - 1 do
      match !cells.(i) with
      | Some _ ->
        !cells.(i) <- None;
        incr dropped
      | None -> ()
    done;
    Nvt_nvm.Memory.reclaimed !dropped
  in
  let append slot e =
    let n = Array.length !cells in
    if slot >= n then begin
      let bigger = Array.make (max (2 * n) (slot + 1)) None in
      Array.blit !cells 0 bigger 0 n;
      cells := bigger
    end;
    if slot < !low then low := slot;
    match !cells.(slot) with
    | Some c -> LMem.write c e
    | None -> !cells.(slot) <- Some (LMem.alloc e)
  in
  { append;
    flush_entry =
      (fun slot ->
        if Guard.admit Flush ledger_flush_site then LMem.flush (cell slot));
    read_entry = (fun slot -> LMem.read (cell slot));
    write_index = (fun i -> LMem.write index i);
    flush_index =
      (fun () -> if Guard.admit Flush commit_flush_site then LMem.flush index);
    read_index = (fun () -> LMem.read index);
    truncate = (fun from -> drop from (Array.length !cells));
    drop_below =
      (fun upto ->
        let hi = min upto (Array.length !cells) in
        drop !low hi;
        if hi > !low then low := hi);
    write_ckpt = (fun upto pairs dedup -> C.write ckpt ~upto ~pairs ~dedup);
    read_ckpt = (fun () -> C.read ckpt) }

(* The global key -> shard map. A pure function of the global shard
   count, shared by every slice and by the parallel runner's router, so
   a key owns the same global shard no matter how shards are sliced
   over domains. *)
let global_shard ~shards k = (k * 0x9e3779b1) land max_int mod shards

(* Local index of a key's shard in this slice; a key routed to the
   wrong slice is a router bug, not a recoverable condition. *)
let shard_of t k =
  let g = global_shard ~shards:t.total k in
  if g mod t.stride <> t.group then
    invalid_arg
      (Printf.sprintf "service: shard %d not owned by slice %d/%d" g t.group
         t.stride);
  (g - t.group) / t.stride

let global_of_local t i = t.group + (i * t.stride)

let create ?(poll_quantum = 100) ?(slice = (0, 1)) ?commit_interval
    ?(checkpoint = 0) ?(detect = false) ~structure ~(flavour : I.flavour)
    ~shards:n ~mode () =
  if n < 1 then invalid_arg "service: shards must be >= 1";
  let group, stride = slice in
  if stride < 1 || group < 0 || group >= stride then
    invalid_arg "service: slice must satisfy 0 <= group < stride";
  let commit_interval =
    match (commit_interval, mode) with
    | Some i, _ -> max 1 i
    | None, Group { timeout } -> max 1 timeout
    | None, Per_op -> 1
  in
  let policy = flavour.policy in
  let (module Pol : I.POLICY) = policy in
  let module L = Pol.Apply (Sim_mem) in
  let svc_fence site = if Guard.admit Fence site then L.Mem.fence () in
  (* Detect mode's descriptor store. The table and each pair's turn
     counter are plain OCaml — NVRAM allocator metadata, like a
     registry of roots; they carry no durability information (recovery
     re-derives validity from the cells and the durable indices, and
     re-aims the turn at the losing cell). *)
  let desc_tbl : (int, desc_rec L.Mem.loc array * int ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let desc_flush c = if Guard.admit Flush desc_flush_site then L.Mem.flush c in
  let desc_put client r =
    let cells, turn =
      match Hashtbl.find_opt desc_tbl client with
      | Some p -> p
      | None ->
        let p = ([| L.Mem.alloc null_desc; L.Mem.alloc null_desc |], ref 0) in
        Hashtbl.add desc_tbl client p;
        p
    in
    let c = cells.(!turn) in
    turn := 1 - !turn;
    L.Mem.write c r;
    desc_flush c
  in
  (* client -> best merged seq of the recovery in progress; shared by
     the per-shard passes so the turn ends up aimed away from the
     overall winner even when a client's two descriptors live on
     different shards (updates are plain OCaml between simulated
     accesses, hence atomic under the fiber scheduler). *)
  let desc_kept : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let desc_reset () = Hashtbl.reset desc_kept in
  let desc_recover ~shard:si ~index:idx merge =
    let stale = ref [] in
    Hashtbl.iter
      (fun client (cells, turn) ->
        Array.iteri
          (fun ci c ->
            match L.Mem.read c with
            | exception Nvt_nvm.Memory.Corrupt_read _ ->
              (* never persisted: equivalent to an absent descriptor *)
              ()
            | r ->
              if r.r_shard = si then
                if r.r_seq >= 0 && r.r_slot < idx then begin
                  merge client
                    { d_seq = r.r_seq; d_res = r.r_res; d_shard = si;
                      d_slot = r.r_slot };
                  match Hashtbl.find_opt desc_kept client with
                  | Some s when s >= r.r_seq -> ()
                  | _ ->
                    Hashtbl.replace desc_kept client r.r_seq;
                    turn := 1 - ci
                end
                else
                  (* A readable descriptor whose slot the durable index
                     does not cover claims a completion that never
                     durably happened. It must be nulled *now*, durably,
                     before the service commits anything new: truncation
                     re-uses slot numbers, so a later era's advancing
                     index would otherwise lend it false validity. *)
                  stale := c :: !stale)
          cells)
      desc_tbl;
    List.iter
      (fun c ->
        L.Mem.write c null_desc;
        desc_flush c)
      !stale;
    if !stale <> [] then svc_fence desc_fence_site
  in
  let local = if group >= n then 0 else (n - group + stride - 1) / stride in
  let shards =
    Array.init local (fun _ ->
        { store = mk_store structure policy;
          ledger = mk_ledger (module L.Mem) ();
          queue = Queue.create ();
          next_slot = 0;
          committed = 0;
          mirror = Hashtbl.create 64;
          preseed = [];
          base = 0;
          next_ckpt = max_int })
  in
  { mode;
    shards;
    group;
    stride;
    total = n;
    commit_interval;
    ckpt_interval = max 0 checkpoint;
    next_ckpt = max_int;
    ckpt_count = 0;
    truncated = 0;
    replayed = 0;
    last = Hashtbl.create 64;
    pending = Queue.create ();
    stop = false;
    on_apply = (fun _ _ -> ());
    on_ack = (fun _ _ ~dedup:_ -> ());
    on_commit = (fun _ ~shard:_ ~slot:_ -> ());
    policy_recover = L.recover;
    svc_fence;
    poll_quantum;
    detect;
    desc_put;
    desc_reset;
    desc_recover }

let set_on_apply t f = t.on_apply <- f
let set_on_ack t f = t.on_ack <- f
let set_on_commit t f = t.on_commit <- f
let request_stop t = t.stop <- true

(* The committed-prefix model: put adds only if absent, del removes,
   get reads — the exact semantics the runner's oracle replays, so a
   checkpoint snapshot equals a model replay of the covered prefix. *)
let mirror_apply sh op =
  match op with
  | Put (k, v) -> if not (Hashtbl.mem sh.mirror k) then Hashtbl.replace sh.mirror k v
  | Del k -> Hashtbl.remove sh.mirror k
  | Get _ -> ()
  | Multi_put kvs ->
    List.iter
      (fun (k, v) ->
        if not (Hashtbl.mem sh.mirror k) then Hashtbl.replace sh.mirror k v)
      kvs
  | Rmw (k, d) ->
    Hashtbl.replace sh.mirror k
      (match Hashtbl.find_opt sh.mirror k with Some v -> v + d | None -> d)

(* Direct store access for prefill (bypasses the ledger and hooks; use
   in setup mode, then [Machine.persist_all]). Keys owned by another
   slice are skipped, so every slice can be prefilled from the same
   global key list. *)
let prefill t keys =
  List.iter
    (fun k ->
      if global_shard ~shards:t.total k mod t.stride = t.group then begin
        let sh = t.shards.(shard_of t k) in
        ignore (sh.store.apply (Put (k, k)));
        if not (Hashtbl.mem sh.mirror k) then begin
          Hashtbl.replace sh.mirror k k;
          sh.preseed <- (k, k) :: sh.preseed
        end
      end)
    keys

(* ------------------------------------------------------------------ *)
(* Commit protocol                                                     *)
(* ------------------------------------------------------------------ *)

(* Flush the batch's entry cells; one fence (entries durable); advance
   and flush each touched shard's index; one fence (commit point);
   acknowledge. All flushes are issued by the calling thread so that
   its fences cover them. *)
let commit t = function
  | [] -> ()
  | items ->
    (* Slots below a shard's checkpoint base were force-committed (and
       their cells dropped) by a checkpoint that raced this batch; they
       are durable already and must not be re-flushed. *)
    List.iter
      (fun it ->
        let sh = t.shards.(it.c_shard) in
        if it.c_slot >= sh.base then sh.ledger.flush_entry it.c_slot)
      items;
    (* detect mode: the batch's completion descriptors ride the same
       ledger fence as the entries — zero extra fences — and become
       valid only once the index commits below *)
    if t.detect then
      List.iter
        (fun it ->
          t.desc_put it.c_req.client
            { r_seq = it.c_req.seq; r_shard = it.c_shard;
              r_slot = it.c_slot; r_res = it.c_res })
        items;
    t.svc_fence ledger_fence_site;
    let touched = Hashtbl.create 8 in
    List.iter
      (fun it ->
        let cur =
          match Hashtbl.find_opt touched it.c_shard with
          | Some i -> i
          | None -> t.shards.(it.c_shard).committed
        in
        if it.c_slot + 1 > cur then Hashtbl.replace touched it.c_shard (it.c_slot + 1))
      items;
    Hashtbl.iter
      (fun si idx ->
        let sh = t.shards.(si) in
        sh.ledger.write_index idx;
        sh.ledger.flush_index ())
      touched;
    t.svc_fence commit_fence_site;
    Hashtbl.iter (fun si idx -> t.shards.(si).committed <- idx) touched;
    List.iter
      (fun it -> t.on_commit it.c_req ~shard:it.c_shard ~slot:it.c_slot)
      items;
    List.iter (fun it -> t.on_ack it.c_req it.c_res ~dedup:false) items

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)
(* ------------------------------------------------------------------ *)

(* Snapshot and durably checkpoint one shard. Must run on the thread
   that owns the shard's commit index (the worker in per-op mode, the
   committer in group mode) so no other thread races the index.

   The cut — (next_slot, mirror, dedup entries) — is captured before
   the first simulated memory operation: everything below is plain
   OCaml, and fibers are only preempted at simulated accesses, so the
   snapshot is a consistent model replay of log prefix [0, upto) even
   though workers of *other* shards keep running while the chunks are
   written out. Entries of [0, upto) not yet covered by the index
   (group mode: appended since the last boundary) are force-committed
   under the standard two fences first; their acknowledgements still
   release through the normal path ([commit] skips an index already at
   or past a batch's slots but always acknowledges). *)
let checkpoint_shard t si =
  let sh = t.shards.(si) in
  let upto = sh.next_slot in
  if upto > sh.base then begin
    let pairs =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) sh.mirror []
      |> List.sort compare |> Array.of_list
    in
    let dedup =
      Hashtbl.fold
        (fun client d acc ->
          if d.d_shard = si && d.d_slot < upto then
            { k_client = client; k_seq = d.d_seq; k_slot = d.d_slot;
              k_res = d.d_res }
            :: acc
          else acc)
        t.last []
      |> List.sort compare |> Array.of_list
    in
    if upto > sh.committed then begin
      for slot = sh.committed to upto - 1 do
        sh.ledger.flush_entry slot
      done;
      (* detect mode: a force-committed entry must not outrun its
         descriptor — a crash between this checkpoint's commit and the
         entry's normal (acknowledging) commit would otherwise leave a
         committed request invisible to descriptor recovery, and its
         re-send would double-apply *)
      if t.detect then
        for slot = sh.committed to upto - 1 do
          let e = sh.ledger.read_entry slot in
          t.desc_put e.e_client
            { r_seq = e.e_seq; r_shard = si; r_slot = slot; r_res = e.e_res }
        done;
      t.svc_fence ledger_fence_site;
      sh.ledger.write_index upto;
      sh.ledger.flush_index ();
      t.svc_fence commit_fence_site;
      sh.committed <- upto
    end;
    sh.ledger.write_ckpt upto pairs dedup;
    (* commit point passed: the covered prefix is now garbage *)
    t.truncated <- t.truncated + (upto - sh.base);
    sh.ledger.drop_below upto;
    sh.base <- upto;
    t.ckpt_count <- t.ckpt_count + 1
  end

let next_boundary now interval = (((now / interval) + 1) * interval)

(* ------------------------------------------------------------------ *)
(* Worker / committer threads                                          *)
(* ------------------------------------------------------------------ *)

let process t shard_ix req =
  (* a multi-put is atomic because one shard worker applies and one
     ledger record commits it; keys on another shard would silently
     break that, so a spanning batch is a router/generator bug *)
  (match req.op with
  | Multi_put kvs ->
    List.iter
      (fun (k, _) ->
        if shard_of t k <> shard_ix then
          invalid_arg "service: multi-put keys span shards")
      kvs
  | _ -> ());
  let sh = t.shards.(shard_ix) in
  match Hashtbl.find_opt t.last req.client with
  | Some d when d.d_seq > req.seq ->
    (* duplicate of a request already superseded by a later one from
       the same (sequential) client: it was acknowledged long ago *)
    ()
  | Some d when d.d_seq = req.seq ->
    (* re-sent request: answer from the ledger iff its record is
       committed; if it is still in flight the original completion
       will acknowledge it, and acknowledging here would ack an
       operation that is not yet durable *)
    let dsh = t.shards.(d.d_shard) in
    if dsh.committed > d.d_slot then begin
      (* re-assert the committed position: a crash can sever the
         original batch's hooks after its commit fence, leaving this
         dedup answer as the request's only acknowledgement *)
      t.on_commit req ~shard:d.d_shard ~slot:d.d_slot;
      t.on_ack req d.d_res ~dedup:true
    end
  | _ ->
    let res = sh.store.apply req.op in
    t.on_apply req res;
    let slot = sh.next_slot in
    sh.ledger.append slot
      { e_client = req.client; e_seq = req.seq; e_op = req.op; e_res = res };
    sh.next_slot <- slot + 1;
    mirror_apply sh req.op;
    Hashtbl.replace t.last req.client
      { d_seq = req.seq; d_res = res; d_shard = shard_ix; d_slot = slot };
    let it = { c_shard = shard_ix; c_slot = slot; c_req = req; c_res = res } in
    (match t.mode with
    | Per_op -> commit t [ it ]
    | Group _ -> Queue.push it t.pending)

let worker t shard_ix () =
  let m = Machine.get () in
  let sh = t.shards.(shard_ix) in
  (* per-op mode: the worker owns its shard's index, so it also owns
     its checkpoints; group mode leaves them to the committer *)
  let maybe_ckpt () =
    if t.ckpt_interval > 0 && t.mode = Per_op then begin
      let now = Machine.now m in
      if now >= sh.next_ckpt then begin
        checkpoint_shard t shard_ix;
        sh.next_ckpt <- next_boundary (Machine.now m) t.ckpt_interval
      end
    end
  in
  let rec loop () =
    match Queue.take_opt sh.queue with
    | Some req ->
      process t shard_ix req;
      maybe_ckpt ();
      loop ()
    | None ->
      maybe_ckpt ();
      if not t.stop then begin
        Machine.sleep m t.poll_quantum;
        loop ()
      end
  in
  loop ()

(* The group committer wakes at virtual-time multiples of
   [commit_interval] and commits whatever accumulated since the last
   boundary. Commit points are therefore a pure function of virtual
   time — they do not depend on batch composition — which is what lets
   slices of one service on different domains commit at the same
   global boundaries, and the parallel runner release group acks at
   domain-count-independent times. A larger interval is a larger
   batch.

   Checkpoints ride the same thread, after the boundary commit, so the
   commit index never has two writers. A checkpoint's simulated cost
   can push the committer past its next boundary (its acks then release
   one interval later); keep the checkpoint interval comfortably above
   the commit interval where ack-time determinism across domain counts
   matters, or use per-op mode, where checkpoints are worker-local. *)
let committer t () =
  let m = Machine.get () in
  let interval = t.commit_interval in
  let rec loop () =
    let now = Machine.now m in
    Machine.sleep m (next_boundary now interval - now);
    let items = List.of_seq (Queue.to_seq t.pending) in
    Queue.clear t.pending;
    commit t items;
    if t.ckpt_interval > 0 && Machine.now m >= t.next_ckpt then begin
      Array.iteri (fun si _ -> checkpoint_shard t si) t.shards;
      t.next_ckpt <- next_boundary (Machine.now m) t.ckpt_interval
    end;
    if not (t.stop && Queue.is_empty t.pending) then loop ()
  in
  loop ()

(* Spawn the shard workers (and, in group mode, the committer) on the
   machine. Threads exit once [request_stop] was called and their
   queues are drained. *)
let start t m =
  t.stop <- false;
  if t.ckpt_interval > 0 then begin
    let b = next_boundary (Machine.now m) t.ckpt_interval in
    t.next_ckpt <- b;
    Array.iter (fun (sh : shard) -> sh.next_ckpt <- b) t.shards
  end;
  Array.iteri (fun i _ -> ignore (Machine.spawn m (worker t i))) t.shards;
  match t.mode with
  | Group _ -> ignore (Machine.spawn m (committer t))
  | Per_op -> ()

let submit t req =
  Queue.push req t.shards.(shard_of t (key_of_op req.op)).queue

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

(* Merge one committed record into the dedup table. Later entries win
   on equal (client, seq): a re-send can legitimately commit twice
   (once per era), and the *last* committed slot is the one whose
   result a post-crash re-send must be answered from. *)
let merge_last t client (d : dedup) =
  match Hashtbl.find_opt t.last client with
  | Some d0 when d0.d_seq > d.d_seq -> ()
  | _ -> Hashtbl.replace t.last client d

(* Slice-wide recovery state reset; follow with [recover_shard] for
   every shard (in any order — shards touch disjoint state except the
   dedup table, whose merges commute across shards). *)
let begin_recovery t =
  t.policy_recover ();
  t.stop <- false;
  Queue.clear t.pending;
  Hashtbl.reset t.last;
  t.desc_reset ()

(* Recover one shard: durable index -> truncate (retiring dropped
   cells) -> restore the checkpoint snapshot -> replay the remaining
   committed suffix. Restartable: a crash during recovery loses only
   volatile state, and re-running retires only cells not already
   dropped. *)
let recover_shard t si =
  let sh = t.shards.(si) in
  sh.store.st_recover ();
  Queue.clear sh.queue;
  let idx = sh.ledger.read_index () in
  sh.ledger.truncate idx;
  sh.committed <- idx;
  sh.next_slot <- idx;
  Hashtbl.reset sh.mirror;
  let base =
    match sh.ledger.read_ckpt () with
    | None ->
      List.iter (fun (k, v) -> Hashtbl.replace sh.mirror k v) sh.preseed;
      0
    | Some (upto, pairs, dedup) ->
      Array.iter (fun (k, v) -> Hashtbl.replace sh.mirror k v) pairs;
      (* detect mode rebuilds the dedup table from descriptors alone:
         the checkpoint's dedup records are each client's last
         committed position as of the cut, and the descriptor pair
         holds something at least as recent *)
      if not t.detect then
        Array.iter
          (fun kd ->
            merge_last t kd.k_client
              { d_seq = kd.k_seq; d_res = kd.k_res; d_shard = si;
                d_slot = kd.k_slot })
          dedup;
      upto
  in
  sh.ledger.drop_below base;
  sh.base <- base;
  t.replayed <- t.replayed + (idx - base);
  for slot = base to idx - 1 do
    let e = sh.ledger.read_entry slot in
    mirror_apply sh e.e_op;
    if not t.detect then
      merge_last t e.e_client
        { d_seq = e.e_seq; d_res = e.e_res; d_shard = si; d_slot = slot }
  done;
  if t.detect then t.desc_recover ~shard:si ~index:idx (merge_last t);
  (* The committed log is the truth: undo the persisted effects of
     applies that never committed by reconciling the store to the
     rebuilt mirror. Idempotent ops (put/del) masked this window — a
     re-sent put converges on its own — but a non-idempotent RMW (or a
     multi-put the crash split) double-applies without it. *)
  sh.store.st_reconcile
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) sh.mirror [])

let recover t =
  begin_recovery t;
  Array.iteri (fun si _ -> recover_shard t si) t.shards

(* Parallel recovery: the same work as {!recover}, but each shard's
   pass runs as a simulated thread, so shards of one slice recover
   concurrently, slices on different domains recover in parallel, and
   recovery's reads consume measurable virtual time. Drive the machine
   to completion (or the next crash) afterwards. *)
let spawn_recovery t m =
  begin_recovery t;
  Array.iteri
    (fun si _ -> ignore (Machine.spawn m (fun () -> recover_shard t si)))
    t.shards

(* ------------------------------------------------------------------ *)
(* Introspection (quiescent / setup-mode use only)                     *)
(* ------------------------------------------------------------------ *)

let contents t =
  Array.to_list t.shards
  |> List.concat_map (fun sh -> sh.store.st_contents ())
  |> List.sort compare

let check_invariants t =
  Array.iter (fun sh -> sh.store.st_check ()) t.shards

(* The retained committed log of each shard — the suffix starting at
   the shard's checkpoint base — in log order. *)
let committed_log t =
  Array.map
    (fun sh ->
      (* a suppressed commit site can leave the recovered index below a
         committed checkpoint's base; the retained suffix is then empty
         (everything below base is snapshot-covered), not negative *)
      List.init (max 0 (sh.committed - sh.base)) (fun i ->
          sh.ledger.read_entry (sh.base + i)))
    t.shards

let committed_total t =
  Array.fold_left (fun acc sh -> acc + sh.committed) 0 t.shards

let checkpoints_taken t = t.ckpt_count
let truncated_slots t = t.truncated
let replayed_slots t = t.replayed
let detect_enabled t = t.detect

(* Status query for a (client, seq) this slice has seen — what a
   re-connecting client may conclude without re-sending. [Completed]:
   the request durably committed (with its result when it is the
   client's latest). In detect mode an absent record is [Not_applied]:
   every committed completion wrote a descriptor before its ack, and
   recovery reconciled away any uncommitted effects, so a re-send is
   safe and will not double-apply. Without descriptors the dedup table
   is rebuilt only from the *retained* log, so absence proves nothing:
   [Unknown]. *)
let op_status t ~client ~seq : Nvt_nvm.Detectable.status * result option =
  match Hashtbl.find_opt t.last client with
  | Some d when d.d_seq = seq ->
    if t.shards.(d.d_shard).committed > d.d_slot then
      (Nvt_nvm.Detectable.Completed, Some d.d_res)
    else (Nvt_nvm.Detectable.Unknown, None)
  | Some d when d.d_seq > seq ->
    (* a sequential client submits seq n+1 only after seq n was
       acknowledged, so a later committed request vouches for this one *)
    (Nvt_nvm.Detectable.Completed, None)
  | Some _ | None ->
    ( (if t.detect then Nvt_nvm.Detectable.Not_applied
       else Nvt_nvm.Detectable.Unknown),
      None )

let checkpoint_state t =
  Array.map
    (fun sh ->
      match sh.ledger.read_ckpt () with
      | None -> (0, [], [])
      | Some (upto, pairs, dedup) ->
        ( upto,
          Array.to_list pairs,
          Array.to_list dedup
          |> List.map (fun kd -> (kd.k_client, kd.k_seq)) ))
    t.shards

(* Test hook: forge committed ledger entries (setup mode), durably, as
   if they had been applied and committed — including duplicates the
   normal path would dedup away. The store and the acknowledgement
   hooks are bypassed; the mirror tracks the forged entries so later
   checkpoints stay consistent. *)
let inject_committed t entries =
  List.iter
    (fun e ->
      let si = shard_of t (key_of_op e.e_op) in
      let sh = t.shards.(si) in
      let slot = sh.next_slot in
      sh.ledger.append slot e;
      sh.ledger.flush_entry slot;
      if t.detect then
        t.desc_put e.e_client
          { r_seq = e.e_seq; r_shard = si; r_slot = slot; r_res = e.e_res };
      sh.next_slot <- slot + 1;
      mirror_apply sh e.e_op;
      sh.ledger.write_index sh.next_slot;
      sh.ledger.flush_index ();
      sh.committed <- sh.next_slot;
      merge_last t e.e_client
        { d_seq = e.e_seq; d_res = e.e_res; d_shard = si; d_slot = slot })
    entries;
  t.svc_fence commit_fence_site
