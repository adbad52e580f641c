(* A slice's durable request ledger: per shard, a redo log and a commit
   index in the active policy's memory, plus the shard's checkpoint —
   and the one commit routine every acknowledged request, checkpoint
   force-commit and forged test entry goes through.

     entries[base..]  one cell per applied request {client; seq; op; result}
     index            one cell: the durable prefix length

   Commit protocol (per batch, executed by the committing thread):

     flush every entry cell of the batch        svc:ledger_flush
     persist the batch's completions (detect mode's descriptors)
     fence                                      svc:ledger_fence
     write+flush each touched shard's index     svc:commit_flush
     fence                                      svc:commit_fence

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

   A batch on one shard writes that shard's index. A batch spanning
   shards (group mode's committer, or a forged test batch) writes the
   touched indexes in a fixed order that is part of the pinned
   histories: the iteration order of the 16-bucket [Hashtbl] this
   routine once built per batch — ascending [Hashtbl.hash si] modulo
   the bucket count (16, doubled each time the touched count passes
   twice the buckets), later-touched first within a bucket. A reusable
   per-ledger buffer holds the touched shards, so a commit allocates
   nothing. *)

module Stats = Nvt_nvm.Stats
module Guard = Nvt_nvm.Guard
open Types

(* Interned once; every flush and fence passes through {!Guard}, so the
   mutation lab can suppress each one. *)
let flush_site = Stats.intern "svc:ledger_flush"
let fence_site = Stats.intern "svc:ledger_fence"
let commit_flush_site = Stats.intern "svc:commit_flush"
let commit_fence_site = Stats.intern "svc:commit_fence"

(* A committed checkpoint as read back: the cut, the snapshot pairs
   flat in key order ([k0; v0; k1; v1; ...]), and each client's last
   completion on the shard. *)
type ckpt = int * int array * (int * completion) array

(* One shard's log; its cells' [loc] type is existential, so the record
   closes over them. *)
type log = {
  append_at : int -> entry -> unit;
  flush : int -> unit;
  read : int -> entry;  (* slot -> record *)
  write_index : int -> unit;  (* write and flush *)
  read_index : unit -> int;
  truncate : int -> unit;  (* drop cells at slots >= the argument *)
  drop_below : int -> unit;  (* drop cells at slots < the argument *)
  write_ckpt :
    upto:int -> pairs:int array array -> dedup:(int * completion) array -> unit;
      (* pairs: the snapshot pre-chunked, {!Checkpoint.chunk} flat pairs
         per array *)
  read_ckpt : unit -> ckpt option;
  mutable next_slot : int;  (* volatile append cursor *)
  mutable committed : int;  (* volatile mirror of the durable index *)
  mutable base : int;  (* slots below this are checkpoint-covered *)
}

type t = {
  logs : log array;
  fence : Stats.id -> unit;
  hash : int array;  (* per shard: [Hashtbl.hash si], its bucket key *)
  target : int array;
      (* per shard: the index a spanning batch commits it to; 0 if the
         batch leaves it alone (a commit index is at least 1) *)
  touched : int array;  (* a spanning batch's shards, first touch first *)
  mutable n_touched : int;
}

let create_log (module M : Nvt_nvm.Memory.S) =
  (* Slot [s] lives at [cells.(s - off)]; every slot below [off] is
     [None]. A checkpoint's [drop_below] empties the front of the array
     and moves [off] past it, so the array spans the live window between
     checkpoints rather than every slot the shard ever logged. *)
  let cells = ref (Array.make 64 (None : entry M.loc option)) in
  let off = ref 0 in
  let index = M.alloc 0 in
  let module C = Checkpoint.Make (M) in
  let ckpt : (int * completion) C.t = C.create () in
  let cell slot =
    let i = slot - !off in
    match if i < 0 || i >= Array.length !cells then None else !cells.(i) with
    | Some c -> c
    | None ->
      (* [failwith], not [invalid_arg]: with a suppressed svc:ckpt_ site
         site a crash can durably commit a truncation whose checkpoint
         descriptor was lost, and recovery then asks for a dropped
         slot — the harnesses treat [Failure] as a recovery kill. *)
      failwith "service ledger: read of an absent slot"
  in
  (* Null cells at slots in [lo, hi), retiring the simulated locations
     of those actually dropped (Some -> None transitions only, so
     truncation after a crash-interrupted recovery never
     double-retires). *)
  let drop lo hi =
    let dropped = ref 0 in
    for i = max 0 (lo - !off) to min (Array.length !cells) (hi - !off) - 1 do
      match !cells.(i) with
      | Some _ ->
        !cells.(i) <- None;
        incr dropped
      | None -> ()
    done;
    Nvt_nvm.Memory.reclaimed !dropped
  in
  (* Widen the window to cover [slot], and return its index. *)
  let place slot =
    let n = Array.length !cells in
    if slot < !off then begin
      (* below the window, as appends after a crash lost the commit
         that a checkpoint's drop had passed can be: widen it down *)
      let lower = Array.make (n + !off - slot) None in
      Array.blit !cells 0 lower (!off - slot) n;
      cells := lower;
      off := slot
    end
    else if slot - !off >= n then begin
      let bigger = Array.make (max (2 * n) (slot - !off + 1)) None in
      Array.blit !cells 0 bigger 0 n;
      cells := bigger
    end;
    slot - !off
  in
  let append_at slot e =
    match !cells.(place slot) with
    | Some c -> M.write c e
    | None ->
      let c = M.alloc e in
      (* the allocation is a machine step, in which a checkpoint may
         move the window: place the slot again *)
      !cells.(place slot) <- Some c
  in
  (* Every slot below [upto] is [None] now: shift the rest to the
     front. *)
  let rebase upto =
    let a = !cells and k = upto - !off in
    let n = Array.length a in
    if k < n then begin
      Array.blit a k a 0 (n - k);
      Array.fill a (n - k) k None
    end;
    off := upto
  in
  { append_at;
    flush =
      (fun slot -> if Guard.admit Flush flush_site then M.flush (cell slot));
    read = (fun slot -> M.read (cell slot));
    write_index =
      (fun i ->
        M.write index i;
        if Guard.admit Flush commit_flush_site then M.flush index);
    read_index = (fun () -> M.read index);
    truncate = (fun from -> drop from (!off + Array.length !cells));
    drop_below =
      (fun upto ->
        drop !off upto;
        if upto > !off then rebase upto);
    write_ckpt = (fun ~upto ~pairs ~dedup -> C.write ckpt ~upto ~pairs ~dedup);
    read_ckpt = (fun () -> C.read ckpt);
    next_slot = 0;
    committed = 0;
    base = 0 }

let create (module M : Nvt_nvm.Memory.S) logs =
  let n = Array.length logs in
  { logs;
    fence = (fun site -> if Guard.admit Fence site then M.fence ());
    hash = Array.init n Hashtbl.hash;
    target = Array.make n 0;
    touched = Array.make n 0;
    n_touched = 0 }

(* Log a record at the shard's next slot, and return the slot. *)
let append l e =
  let slot = l.next_slot in
  l.append_at slot e;
  l.next_slot <- slot + 1;
  slot

(* The first half of the protocol for one item: flush the entry at
   [slot] of shard [si], unless a checkpoint that raced the batch
   already force-committed it (and dropped its cell). *)
let flush_entry t si slot =
  let l = t.logs.(si) in
  if slot >= l.base then l.flush slot

(* The second half for a batch on one shard: write the shard's index
   if the batch moves it, then the commit fence. *)
let publish_one t si idx =
  let l = t.logs.(si) in
  let moves = idx > l.committed in
  if moves then l.write_index idx;
  t.fence commit_fence_site;
  if moves then l.committed <- idx

(* Note that a spanning batch covers shard [si] up to [idx]. *)
let touch t si idx =
  let cur = t.target.(si) in
  if idx > (if cur > 0 then cur else t.logs.(si).committed) then begin
    if cur = 0 then begin
      t.touched.(t.n_touched) <- si;
      t.n_touched <- t.n_touched + 1
    end;
    t.target.(si) <- idx
  end

(* The second half for a spanning batch: write the touched indexes in
   the order the header describes, the commit fence, then the volatile
   mirrors. Only one thread commits spanning batches (the group
   committer, or setup mode), so the buffer has one user at a time. *)
let publish_touched t =
  let n = t.n_touched and a = t.touched in
  let buckets = ref 16 in
  while n > 2 * !buckets do
    buckets := 2 * !buckets
  done;
  let mask = !buckets - 1 and hash = t.hash in
  (* reverse, so that a stable sort by bucket puts the later-touched
     first within one *)
  for i = 0 to (n / 2) - 1 do
    let x = a.(i) in
    a.(i) <- a.(n - 1 - i);
    a.(n - 1 - i) <- x
  done;
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && hash.(a.(!j)) land mask > hash.(x) land mask do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done;
  for i = 0 to n - 1 do
    let si = a.(i) in
    t.logs.(si).write_index t.target.(si)
  done;
  t.fence commit_fence_site;
  for i = 0 to n - 1 do
    let si = a.(i) in
    t.logs.(si).committed <- t.target.(si);
    t.target.(si) <- 0
  done;
  t.n_touched <- 0

(* Commit the first [n] completions of [batch] under the protocol
   above; [persist i] runs on each item just before the ledger fence,
   which then covers its flushes. An empty batch does nothing. *)
let commit t (batch : completion array) n ~persist =
  if n > 0 then begin
    for i = 0 to n - 1 do
      let c = batch.(i) in
      flush_entry t c.shard c.slot
    done;
    for i = 0 to n - 1 do
      persist i
    done;
    t.fence fence_site;
    let si = batch.(0).shard in
    let one = ref true and idx = ref 0 in
    for i = 0 to n - 1 do
      let c = batch.(i) in
      if c.shard <> si then one := false;
      if c.slot + 1 > !idx then idx := c.slot + 1
    done;
    if !one then publish_one t si !idx
    else begin
      if t.n_touched <> 0 then
        invalid_arg "service ledger: two spanning batches commit at once";
      for i = 0 to n - 1 do
        let c = batch.(i) in
        touch t c.shard (c.slot + 1)
      done;
      publish_touched t
    end
  end

(* Durably checkpoint shard [si] at cut [upto]: force-commit the slots
   the index does not cover yet ([persist slot] as in {!commit}), write
   the snapshot, drop the covered prefix, and return how many slots it
   held. *)
let checkpoint t si ~persist ~upto ~pairs ~dedup =
  let l = t.logs.(si) in
  let from = l.committed in
  if upto > from then begin
    for slot = from to upto - 1 do
      flush_entry t si slot
    done;
    for slot = from to upto - 1 do
      persist slot
    done;
    t.fence fence_site;
    publish_one t si upto
  end;
  l.write_ckpt ~upto ~pairs ~dedup;
  (* commit point passed: the covered prefix is now garbage *)
  let dropped = upto - l.base in
  l.drop_below upto;
  l.base <- upto;
  dropped

(* After a crash: forget the spanning batch a crash cut short, if
   any. *)
let abandon t =
  for i = 0 to t.n_touched - 1 do
    t.target.(t.touched.(i)) <- 0
  done;
  t.n_touched <- 0

(* After a crash: truncate the log to its durable index (dropping cells
   beyond, which a crash may have left corrupt — FliT's write reads the
   old value, so they cannot be overwritten), drop what the committed
   checkpoint covers, and return the index and the checkpoint.
   Restartable: re-running retires only cells not already dropped. *)
let reopen l =
  let idx = l.read_index () in
  l.truncate idx;
  l.committed <- idx;
  l.next_slot <- idx;
  let ck = l.read_ckpt () in
  let base = match ck with Some (upto, _, _) -> upto | None -> 0 in
  l.drop_below base;
  l.base <- base;
  (idx, ck)
