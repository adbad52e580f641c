(* A sharded durable KV front-end over the simulated machine.

   The key space is partitioned over N shards; each shard owns one
   instance of a registry structure under a registry persistence policy
   and is driven by one worker thread, so per-shard execution is
   sequential and conflicts are always intra-shard.

   What must be durable is the destination of each request: client c's
   last completed request is seq s, result r, at slot p of shard k — one
   {!Types.completion}, kept per client in the volatile dedup table. A
   request is acknowledged once {!Ledger.commit} covers its log record.
   Two choices are made once, in {!create} and {!start}: the committer
   (per-op: the worker commits each request and owns its shard's
   checkpoints; group: a committer thread commits each interval's batch
   under one pair of fences, then checkpoints every shard), and the
   completion source recovery rebuilds the dedup table from (the
   checkpoint's records plus the replayed log suffix, or detect mode's
   {!Descriptors}, which every commit persists under its ledger fence).

   The dedup table is an array indexed by client, grown on demand, so
   a request's lookup and record are two array accesses. A batch is a
   pair of arrays (requests, completions) reused from commit to
   commit: a request allocates no table, list or tuple on its way to
   its acknowledgement.

   A checkpoint snapshots a shard's committed state — a plain-OCaml
   model mirror of the store, kept as a key-sorted int vector so the
   cut is a sequential copy into flat chunks, plus the shard's dedup
   records, scanned in client order — captured in one non-preemptible
   stretch so the cut is consistent, on the thread that owns the
   shard's commit index, so recovery replays only the delta since
   it. Recovery replays into a hash table first, whose
   order it reconciles the store in, then loads the sorted mirror from
   it. {!spawn_recovery} runs each shard's recovery as a simulated
   thread: shards recover in parallel, in virtual time. *)

module Machine = Nvt_sim.Machine
module Sim_mem = Nvt_sim.Memory
module Detectable = Nvt_nvm.Detectable
module I = Nvt_harness.Instances
include Types

type mode = Per_op | Group of { timeout : int }

let mode_name = function
  | Per_op -> "per_op"
  | Group { timeout } -> Printf.sprintf "group%d" timeout

(* ------------------------------------------------------------------ *)
(* The committed-prefix model                                          *)
(* ------------------------------------------------------------------ *)

(* An int-keyed container the committed-prefix model replays into: the
   shard's sorted mirror, or recovery's replay table. *)
type 'm container = {
  find : 'm -> int -> int option;
  set : 'm -> int -> int -> unit;
  remove : 'm -> int -> unit;
}

(* The committed-prefix model: put adds only if absent, del removes,
   get reads, a multi-put is a put per key in list order, an rmw adds
   its delta (or sets it, if absent) — the exact semantics the runner's
   oracle replays, so a checkpoint snapshot equals a model replay of
   the covered prefix. *)
let replay c m op =
  match op with
  | Put (k, v) -> if Option.is_none (c.find m k) then c.set m k v
  | Del k -> c.remove m k
  | Get _ -> ()
  | Multi_put kvs ->
    List.iter
      (fun (k, v) -> if Option.is_none (c.find m k) then c.set m k v)
      kvs
  | Rmw (k, d) ->
    c.set m k (match c.find m k with Some v -> v + d | None -> d)

let hashtbl : (int, int) Hashtbl.t container =
  { find = Hashtbl.find_opt; set = Hashtbl.replace; remove = Hashtbl.remove }

(* Mirror keys are unique, so ordering pairs on their first component
   alone is [compare]'s order. *)
let by_fst ((a : int), _) (b, _) = Int.compare a b

(* A shard's mirror: the [live] pairs in [keys.(0 .. live - 1)] and
   [values], strictly increasing by key. Lookups binary-search; an
   insert or a remove blits the tail. *)
module Mirror = struct
  type t = {
    mutable keys : int array;
    mutable values : int array;
    mutable live : int;
  }

  let create () = { keys = Array.make 64 0; values = Array.make 64 0; live = 0 }

  (* The index of [k], or [-(i + 1)] where [i] is the index it would be
     inserted at. *)
  let search t (k : int) =
    let lo = ref 0 and hi = ref t.live and found = ref (-1) in
    while !found < 0 && !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      let km = t.keys.(mid) in
      if km = k then found := mid
      else if km < k then lo := mid + 1
      else hi := mid
    done;
    if !found >= 0 then !found else -(!lo + 1)

  let find t k =
    let i = search t k in
    if i >= 0 then Some t.values.(i) else None

  let set t k v =
    let i = search t k in
    if i >= 0 then t.values.(i) <- v
    else begin
      let i = -(i + 1) in
      if t.live = Array.length t.keys then begin
        let cap = max 64 (2 * t.live) in
        let grow a = Array.append a (Array.make (cap - t.live) 0) in
        t.keys <- grow t.keys;
        t.values <- grow t.values
      end;
      (* typed int loops, not [Array.blit]: a blit into a major-heap
         array takes the write barrier for every element, ints too *)
      let keys = t.keys and values = t.values in
      for j = t.live downto i + 1 do
        keys.(j) <- keys.(j - 1);
        values.(j) <- values.(j - 1)
      done;
      t.keys.(i) <- k;
      t.values.(i) <- v;
      t.live <- t.live + 1
    end

  let remove t k =
    let i = search t k in
    if i >= 0 then begin
      let keys = t.keys and values = t.values in
      for j = i to t.live - 2 do
        keys.(j) <- keys.(j + 1);
        values.(j) <- values.(j + 1)
      done;
      t.live <- t.live - 1
    end

  let apply = replay { find; set; remove }
  let length t = t.live

  (* The live pairs in key order. *)
  let pairs t = Array.init t.live (fun i -> (t.keys.(i), t.values.(i)))

  (* The checkpoint's cut: the same pairs, flat ([k0; v0; k1; ...]) in
     chunks of {!Checkpoint.chunk} pairs, one array per chunk cell. *)
  let chunks t =
    let per = Checkpoint.chunk in
    Array.init
      ((t.live + per - 1) / per)
      (fun j ->
        let lo = j * per in
        let len = min per (t.live - lo) in
        let a = Array.make (2 * len) 0 in
        for i = 0 to len - 1 do
          a.(2 * i) <- t.keys.(lo + i);
          a.((2 * i) + 1) <- t.values.(lo + i)
        done;
        a)

  (* Replace the contents with a table's, sorted once. *)
  let load t tbl =
    let a = Array.of_seq (Hashtbl.to_seq tbl) in
    Array.sort by_fst a;
    t.keys <- Array.map fst a;
    t.values <- Array.map snd a;
    t.live <- Array.length a
end

(* The dedup table: each client's last completion, in an array
   indexed by client that grows on demand; a client not seen holds
   {!no_completion}. *)
module Dedup = struct
  type t = { mutable last : completion array }

  let create () = { last = Array.make 64 no_completion }

  let find t client =
    if client >= 0 && client < Array.length t.last then t.last.(client)
    else no_completion

  let replace t client c =
    if client < 0 then
      invalid_arg (Printf.sprintf "service: negative client %d" client);
    let n = Array.length t.last in
    if client >= n then begin
      let a = Array.make (max (2 * n) (client + 1)) no_completion in
      Array.blit t.last 0 a 0 n;
      t.last <- a
    end;
    t.last.(client) <- c

  (* Merge a client's completion. Later completions win on equal
     [seq]: a re-send can legitimately commit twice (once per era), and
     the last committed slot is the one whose result a post-crash
     re-send must be answered from. *)
  let merge t client (c : completion) =
    let c0 = find t client in
    if c0 == no_completion || c0.seq <= c.seq then replace t client c

  let reset t = Array.fill t.last 0 (Array.length t.last) no_completion

  (* A checkpoint's records: each client whose last completion lies on
     [shard] below slot [upto], in ascending client order. *)
  let cut t ~shard ~upto =
    let covers (c : completion) = c.shard = shard && c.slot < upto in
    let a = t.last in
    let n = ref 0 in
    for client = 0 to Array.length a - 1 do
      if covers a.(client) then incr n
    done;
    let cut = Array.make !n (0, no_completion) in
    let j = ref 0 in
    for client = 0 to Array.length a - 1 do
      let c = a.(client) in
      if covers c then begin
        cut.(!j) <- (client, c);
        incr j
      end
    done;
    cut
end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* The structure module is existential; close over its operations. *)
type store = {
  apply : op -> result;
  st_recover : unit -> unit;
  st_contents : unit -> (int * int) list;
  st_reconcile : (int * int) list -> unit;
      (* make the structure's contents equal the given pairs — recovery
         calls this with the rebuilt committed-prefix replay to undo
         persisted effects of applies that never committed *)
  st_check : unit -> unit;
}

type shard = {
  store : store;
  log : Ledger.log;
  queue : request Queue.t;
      (* volatile inbox, lost at a crash; a request leaves it only once
         completed, so an empty inbox means an idle shard *)
  mirror : Mirror.t;
      (* plain-OCaml model of the committed-prefix replay ({!replay}),
         maintained in the same non-preemptible stretch as the log
         append; sorted by key, so the checkpoint's cut is a copy *)
  mutable preseed : (int * int) list;
      (* the prefill pairs — the mirror's base state, needed to re-seed
         it when a recovery finds no committed checkpoint (a checkpoint
         snapshot already contains them) *)
  own : batch;  (* per-op mode: the worker's one-request batch *)
}

(* A commit batch: [n] requests and their completions, in arrays
   reused from commit to commit; [persist i] hands item [i] to the
   completion source. *)
and batch = {
  mutable reqs : request array;
  mutable comps : completion array;
  mutable n : int;
  persist : int -> unit;
}

(* The completion source: where recovery finds each client's last
   completion. *)
type source = {
  persist : int -> completion -> unit;  (* client; before the ledger fence *)
  persist_slot : Ledger.log -> int -> int -> unit;
      (* the same for the entry at (shard, slot), read back from the
         shard's log *)
  rebuild : int -> int -> (int * completion) list -> unit;
      (* shard -> durable index -> the checkpoint's and the replayed
         log's records, in commit order: refill the dedup table *)
  unseen : Detectable.status;  (* op_status of a request never seen *)
}

type t = {
  mode : mode;
  shards : shard array;  (* the slice's local shards only *)
  ledger : Ledger.t;
  src : source;
  group : int;  (* slice: this instance owns global shards *)
  stride : int;  (* [s] with [s mod stride = group] *)
  total : int;  (* global shard count across all slices *)
  commit_interval : int;  (* group mode: commit at multiples of this *)
  ckpt_interval : int;  (* 0: checkpointing disabled *)
  mutable ckpt_count : int;
  mutable truncated : int;  (* log slots dropped by checkpoints *)
  mutable replayed : int;  (* log entries replayed by recovery passes *)
  last : Dedup.t;  (* volatile; rebuilt in recovery *)
  mutable pending : batch;  (* group mode: awaiting the boundary commit *)
  mutable spare : batch;  (* group mode: the batch being committed *)
  mutable stop : bool;
  mutable on_apply : request -> result -> unit;
  mutable on_ack : request -> result -> dedup:bool -> unit;
  mutable on_commit : request -> shard:int -> slot:int -> unit;
  policy_recover : unit -> unit;
}

let no_request = { client = -1; seq = -1; op = Get 0 }

let batch persist =
  let rec b =
    { reqs = Array.make 16 no_request;
      comps = Array.make 16 no_completion;
      n = 0;
      persist = (fun i -> persist b.reqs.(i).client b.comps.(i)) }
  in
  b

let push b req c =
  let n = b.n in
  if n = Array.length b.reqs then begin
    let grow a x =
      let g = Array.make (2 * n) x in
      Array.blit a 0 g 0 n;
      g
    in
    b.reqs <- grow b.reqs no_request;
    b.comps <- grow b.comps no_completion
  end;
  b.reqs.(n) <- req;
  b.comps.(n) <- c;
  b.n <- n + 1

let mk_store (structure : (module I.STRUCTURE)) (policy : I.policy) : store =
  let module S = (val I.instantiate structure policy) in
  let s = S.create () in
  { apply =
      (fun op ->
        (* [Done true] and [Done false] are constants; [Done b] would
           allocate *)
        match op with
        | Put (k, v) ->
          if S.insert s ~key:k ~value:v then Done true else Done false
        | Del k -> if S.delete s k then Done true else Done false
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

let create ?(slice = (0, 1)) ?commit_interval
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
  let local = if group >= n then 0 else (n - group + stride - 1) / stride in
  let last = Dedup.create () in
  let src =
    if detect then
      let module D = Descriptors.Make (L.Mem) in
      let d = D.create () in
      { persist = D.put d;
        persist_slot =
          (fun log si slot ->
            let e = log.Ledger.read slot in
            D.put d e.e_client
              { seq = e.e_seq; shard = si; slot; res = e.e_res });
        rebuild =
          (fun si index _ ->
            D.recover d ~shard:si ~index ~find:(Dedup.find last)
              ~replace:(Dedup.replace last));
        unseen = Detectable.Not_applied }
    else
      { persist = (fun _ _ -> ());
        persist_slot = (fun _ _ _ -> ());
        rebuild =
          (fun _ _ records ->
            List.iter (fun (client, c) -> Dedup.merge last client c) records);
        unseen = Detectable.Unknown }
  in
  let shards =
    Array.init local (fun _ ->
        (* the log's cells are allocated before the store's *)
        let log = Ledger.create_log (module L.Mem) in
        { store = mk_store structure policy;
          log;
          queue = Queue.create ();
          mirror = Mirror.create ();
          preseed = [];
          own = batch src.persist })
  in
  { mode;
    shards;
    ledger = Ledger.create (module L.Mem) (Array.map (fun sh -> sh.log) shards);
    src;
    group;
    stride;
    total = n;
    commit_interval;
    ckpt_interval = max 0 checkpoint;
    ckpt_count = 0;
    truncated = 0;
    replayed = 0;
    last;
    pending = batch src.persist;
    spare = batch src.persist;
    stop = false;
    on_apply = (fun _ _ -> ());
    on_ack = (fun _ _ ~dedup:_ -> ());
    on_commit = (fun _ ~shard:_ ~slot:_ -> ());
    policy_recover = L.recover }

let set_on_apply t f = t.on_apply <- f
let set_on_ack t f = t.on_ack <- f
let set_on_commit t f = t.on_commit <- f
let request_stop t = t.stop <- true

(* Direct store access for prefill (bypasses the ledger and hooks; use
   in setup mode, then [Machine.persist_all]). Keys owned by another
   slice are skipped, so every slice can be prefilled from the same
   global key list. *)
let prefill t keys =
  (* the new keys gather in a table per shard and sort into the mirror
     once, rather than blitting it per key *)
  let tables =
    Array.map
      (fun sh ->
        let tbl = Hashtbl.create 64 in
        Array.iter
          (fun (k, v) -> Hashtbl.replace tbl k v)
          (Mirror.pairs sh.mirror);
        tbl)
      t.shards
  in
  List.iter
    (fun k ->
      if global_shard ~shards:t.total k mod t.stride = t.group then begin
        let si = shard_of t k in
        let sh = t.shards.(si) in
        ignore (sh.store.apply (Put (k, k)));
        if not (Hashtbl.mem tables.(si) k) then begin
          Hashtbl.replace tables.(si) k k;
          sh.preseed <- (k, k) :: sh.preseed
        end
      end)
    keys;
  Array.iteri (fun si sh -> Mirror.load sh.mirror tables.(si)) t.shards

(* ------------------------------------------------------------------ *)
(* Commit and checkpoint                                               *)
(* ------------------------------------------------------------------ *)

(* Commit a batch, persisting each completion to the source, then
   acknowledge it. *)
let commit t b =
  Ledger.commit t.ledger b.comps b.n ~persist:b.persist;
  for i = 0 to b.n - 1 do
    let c = b.comps.(i) in
    t.on_commit b.reqs.(i) ~shard:c.shard ~slot:c.slot
  done;
  for i = 0 to b.n - 1 do
    t.on_ack b.reqs.(i) b.comps.(i).res ~dedup:false
  done

(* Snapshot and durably checkpoint one shard, on the thread that owns
   its commit index, so no other thread races the index.

   The cut — (next slot, mirror, dedup records) — is captured before
   the first simulated memory operation: fibers are only preempted at
   simulated accesses, so the snapshot is a consistent model replay of
   log prefix [0, upto) even though workers of *other* shards keep
   running while it is written out. Entries of [0, upto) the index does
   not cover yet (group mode: appended since the last boundary) are
   force-committed, each persisted to the completion source — in detect
   mode a committed entry must not outrun its descriptor, or a crash
   before its acknowledging commit would hide it from recovery and its
   re-send would double-apply. Their acknowledgements still release
   through [commit], which always acknowledges. *)
let checkpoint_shard t si =
  let sh = t.shards.(si) in
  let upto = sh.log.next_slot in
  if upto > sh.log.base then begin
    let pairs = Mirror.chunks sh.mirror in
    let dedup = Dedup.cut t.last ~shard:si ~upto in
    t.truncated <-
      t.truncated
      + Ledger.checkpoint t.ledger si
          ~persist:(t.src.persist_slot sh.log si)
          ~upto ~pairs ~dedup;
    t.ckpt_count <- t.ckpt_count + 1
  end

let next_boundary now interval = ((now / interval) + 1) * interval

(* A checkpoint cadence from now: [due ()] holds at or past the next
   multiple of [interval], and [tick ()] runs [f] when it is due; never
   due when the interval is 0 (checkpointing disabled). An idle worker
   waits on [due] without running [tick]. *)
type cadence = { due : unit -> bool; tick : unit -> unit }

let never = { due = (fun () -> false); tick = ignore }

let every m interval f =
  if interval = 0 then never
  else begin
    let next = ref (next_boundary (Machine.now m) interval) in
    let due () = Machine.now m >= !next in
    { due;
      tick =
        (fun () ->
          if due () then begin
            f ();
            next := next_boundary (Machine.now m) interval
          end) }
  end

(* ------------------------------------------------------------------ *)
(* Worker / committer threads                                          *)
(* ------------------------------------------------------------------ *)

let process t ~complete si req =
  (* a multi-put is atomic because one shard worker applies and one
     ledger record commits it; keys on another shard would silently
     break that, so a spanning batch is a router/generator bug *)
  (match req.op with
  | Multi_put kvs ->
    List.iter
      (fun (k, _) ->
        if shard_of t k <> si then
          invalid_arg "service: multi-put keys span shards")
      kvs
  | _ -> ());
  let c = Dedup.find t.last req.client in
  if c != no_completion && c.seq > req.seq then
    (* duplicate of a request already superseded by a later one from
       the same (sequential) client: it was acknowledged long ago *)
    ()
  else if c != no_completion && c.seq = req.seq then begin
    (* re-sent request: answer from the ledger iff its record is
       committed; if it is still in flight the original completion
       will acknowledge it, and acknowledging here would ack an
       operation that is not yet durable *)
    if t.shards.(c.shard).log.committed > c.slot then begin
      (* re-assert the committed position: a crash can sever the
         original batch's hooks after its commit fence, leaving this
         dedup answer as the request's only acknowledgement *)
      t.on_commit req ~shard:c.shard ~slot:c.slot;
      t.on_ack req c.res ~dedup:true
    end
  end
  else begin
    let sh = t.shards.(si) in
    let res = sh.store.apply req.op in
    t.on_apply req res;
    let slot =
      Ledger.append sh.log
        { e_client = req.client; e_seq = req.seq; e_op = req.op; e_res = res }
    in
    Mirror.apply sh.mirror req.op;
    let c = { seq = req.seq; shard = si; slot; res } in
    Dedup.replace t.last req.client c;
    complete si req c
  end

(* The timed wait an idle worker sleeps between queue polls. *)
let poll_quantum = 100

(* An idle worker sleeps whole quanta until a wake would find work: a
   request queued, a stop requested or a checkpoint due. The scheduler
   evaluates that test at every quantum, so the worker resumes in
   exactly the step where a poll would first have found something. *)
let worker t si ~complete ~(cadence : cadence) () =
  let m = Machine.get () in
  let sh = t.shards.(si) in
  let wake () =
    t.stop || (not (Queue.is_empty sh.queue)) || cadence.due ()
  in
  let rec loop () =
    match Queue.peek_opt sh.queue with
    | Some req ->
      process t ~complete si req;
      ignore (Queue.pop sh.queue);
      cadence.tick ();
      loop ()
    | None ->
      cadence.tick ();
      if not t.stop then begin
        Machine.sleep m poll_quantum ~until:wake;
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
   matters, or use per-op mode, where checkpoints are worker-local.

   After [request_stop] the committer exits at the first boundary with
   no completion pending and no request in any inbox, not even one a
   worker is still applying. *)
let committer t ~tick () =
  let m = Machine.get () in
  let interval = t.commit_interval in
  let rec loop () =
    let now = Machine.now m in
    Machine.sleep m (next_boundary now interval - now);
    (* the workers fill the other batch while this one commits *)
    let b = t.pending in
    t.pending <- t.spare;
    t.spare <- b;
    commit t b;
    b.n <- 0;
    tick ();
    if
      not
        (t.stop && t.pending.n = 0
        && Array.for_all (fun sh -> Queue.is_empty sh.queue) t.shards)
    then loop ()
  in
  loop ()

(* Spawn the shard workers (and, in group mode, the committer) on the
   machine. Threads exit once [request_stop] was called and their
   queues are drained. *)
let start t m =
  t.stop <- false;
  let every = every m t.ckpt_interval in
  let spawn_workers ~complete cadence =
    Array.iteri
      (fun si _ ->
        ignore
          (Machine.spawn m (worker t si ~complete ~cadence:(cadence si))))
      t.shards
  in
  match t.mode with
  | Per_op ->
    let commit_one si req c =
      let b = t.shards.(si).own in
      b.n <- 0;
      push b req c;
      commit t b
    in
    spawn_workers ~complete:commit_one
      (fun si -> every (fun () -> checkpoint_shard t si))
  | Group _ ->
    let enqueue _ req c = push t.pending req c in
    spawn_workers ~complete:enqueue (fun _ -> never);
    let ckpt_all () =
      Array.iteri (fun si _ -> checkpoint_shard t si) t.shards
    in
    ignore (Machine.spawn m (committer t ~tick:(every ckpt_all).tick))

let submit t req =
  Queue.push req t.shards.(shard_of t (key_of_op req.op)).queue

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

(* Recover one shard: reopen the log at its durable index -> restore the
   checkpoint snapshot into a replay table -> replay the remaining
   committed suffix into it -> rebuild the dedup table from the
   completion source -> reconcile the store -> load the mirror.

   The store is reconciled in the replay table's fold order, and that
   order reaches the simulation: it is the order reconcile reinserts
   keys in. So the table is always built in one sequence — a fresh
   64-bucket table, then the checkpoint's pairs in key order (or the
   prefill pairs in list order), then the replayed suffix — and the
   pinned recovery histories depend on it. *)
let recover_shard t si =
  let sh = t.shards.(si) in
  sh.store.st_recover ();
  Queue.clear sh.queue;
  let idx, ck = Ledger.reopen sh.log in
  let table = Hashtbl.create 64 in
  let covered =
    match ck with
    | None ->
      List.iter (fun (k, v) -> Hashtbl.replace table k v) sh.preseed;
      []
    | Some (_, pairs, covered) ->
      for i = 0 to (Array.length pairs / 2) - 1 do
        Hashtbl.replace table pairs.(2 * i) pairs.((2 * i) + 1)
      done;
      Array.to_list covered
  in
  let base = sh.log.base in
  t.replayed <- t.replayed + (idx - base);
  let replayed =
    List.init (max 0 (idx - base)) (fun i ->
        let slot = base + i in
        let e = sh.log.read slot in
        replay hashtbl table e.e_op;
        (e.e_client, { seq = e.e_seq; shard = si; slot; res = e.e_res }))
  in
  t.src.rebuild si idx (covered @ replayed);
  (* The committed log is the truth: undo the persisted effects of
     applies that never committed by reconciling the store to the
     rebuilt mirror. Idempotent ops (put/del) masked this window — a
     re-sent put converges on its own — but a non-idempotent RMW (or a
     multi-put the crash split) double-applies without it. *)
  sh.store.st_reconcile
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []);
  Mirror.load sh.mirror table

(* Recovery: reset the slice's volatile state, then run each shard's
   pass as a simulated thread, so shards of one slice recover
   concurrently (they touch disjoint state except the dedup table, whose
   merges commute across shards), slices on different domains recover
   in parallel, and recovery's reads consume measurable virtual time.
   Drive the machine to completion (or the next crash) afterwards. *)
let spawn_recovery t m =
  t.policy_recover ();
  t.stop <- false;
  (* a crash can cut a commit short: neither batch is in flight now *)
  t.pending.n <- 0;
  t.spare.n <- 0;
  Ledger.abandon t.ledger;
  Dedup.reset t.last;
  Array.iteri
    (fun si _ -> ignore (Machine.spawn m (fun () -> recover_shard t si)))
    t.shards

(* ------------------------------------------------------------------ *)
(* Introspection (quiescent / setup-mode use only)                     *)
(* ------------------------------------------------------------------ *)

let contents t =
  Array.to_list t.shards
  |> List.concat_map (fun sh -> sh.store.st_contents ())
  |> List.sort compare_pair

let check_invariants t =
  Array.iter (fun sh -> sh.store.st_check ()) t.shards

let committed_total t =
  Array.fold_left (fun acc sh -> acc + sh.log.committed) 0 t.shards

let checkpoints_taken t = t.ckpt_count
let truncated_slots t = t.truncated
let replayed_slots t = t.replayed

(* Status query for a (client, seq) this slice has seen — what a
   re-connecting client may conclude without re-sending. [Completed]:
   the request durably committed (with its result when it is the
   client's latest). An absent record answers the completion source's
   [unseen]: in detect mode [Not_applied] — every committed completion
   wrote a descriptor before its ack, and recovery reconciled away any
   uncommitted effects, so a re-send will not double-apply. Without
   descriptors the table is rebuilt from the checkpoint's records plus
   the retained log suffix, so absence proves nothing: [Unknown]. *)
let op_status t ~client ~seq : Detectable.status * result option =
  let c = Dedup.find t.last client in
  if c == no_completion || c.seq < seq then (t.src.unseen, None)
  else if c.seq = seq then
    if t.shards.(c.shard).log.committed > c.slot then
      (Detectable.Completed, Some c.res)
    else (Detectable.Unknown, None)
  else
    (* a sequential client submits seq n+1 only after seq n was
       acknowledged, so a later committed request vouches for this one *)
    (Detectable.Completed, None)

type durable = {
  dv_base : int;
  dv_pairs : (int * int) list;
  dv_covered : (int * completion) list;
  dv_log : entry list;
}

(* Each shard's durable state, read back through the ledger: the
   committed checkpoint, then the retained committed log — the suffix
   starting at the shard's checkpoint base — in log order. *)
let durable_state t =
  Array.map
    (fun sh ->
      let l = sh.log in
      let dv_base, dv_pairs, dv_covered =
        match l.read_ckpt () with
        | None -> (0, [], [])
        | Some (upto, pairs, covered) ->
          ( upto,
            List.init
              (Array.length pairs / 2)
              (fun i -> (pairs.(2 * i), pairs.((2 * i) + 1))),
            Array.to_list covered )
      in
      (* a suppressed commit site can leave the recovered index below a
         committed checkpoint's base; the retained suffix is then empty
         (everything below base is snapshot-covered), not negative *)
      let dv_log =
        List.init (max 0 (l.committed - l.base)) (fun i -> l.read (l.base + i))
      in
      { dv_base; dv_pairs; dv_covered; dv_log })
    t.shards

(* Test hook: forge committed ledger entries (setup mode), durably, as
   if they had been applied and committed — including duplicates the
   normal path would dedup away — in one commit. The store and the
   acknowledgement hooks are bypassed; the mirror tracks the forged
   entries so later checkpoints stay consistent. *)
let inject_committed t entries =
  let b = batch t.src.persist in
  List.iter
    (fun e ->
      let si = shard_of t (key_of_op e.e_op) in
      let sh = t.shards.(si) in
      let slot = Ledger.append sh.log e in
      Mirror.apply sh.mirror e.e_op;
      let c = { seq = e.e_seq; shard = si; slot; res = e.e_res } in
      Dedup.merge t.last e.e_client c;
      push b { client = e.e_client; seq = e.e_seq; op = e.e_op } c)
    entries;
  Ledger.commit t.ledger b.comps b.n ~persist:b.persist
