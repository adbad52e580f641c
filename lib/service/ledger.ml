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
   earlier conflicting request of the same shard is uncommitted. *)

module Stats = Nvt_nvm.Stats
module Guard = Nvt_nvm.Guard
open Types

(* Interned once; every flush and fence passes through {!Guard}, so the
   mutation lab can suppress each one. *)
let flush_site = Stats.intern "svc:ledger_flush"
let fence_site = Stats.intern "svc:ledger_fence"
let commit_flush_site = Stats.intern "svc:commit_flush"
let commit_fence_site = Stats.intern "svc:commit_fence"

(* cut, snapshot pairs, and each client's last completion on the shard *)
type ckpt = int * (int * int) array * (int * completion) array

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
  write_ckpt : ckpt -> unit;
  read_ckpt : unit -> ckpt option;
  mutable next_slot : int;  (* volatile append cursor *)
  mutable committed : int;  (* volatile mirror of the durable index *)
  mutable base : int;  (* slots below this are checkpoint-covered *)
}

type t = { logs : log array; fence : Stats.id -> unit }

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
    write_ckpt = (fun (upto, pairs, dedup) -> C.write ckpt ~upto ~pairs ~dedup);
    read_ckpt = (fun () -> C.read ckpt);
    next_slot = 0;
    committed = 0;
    base = 0 }

let create (module M : Nvt_nvm.Memory.S) logs =
  { logs; fence = (fun site -> if Guard.admit Fence site then M.fence ()) }

(* Log a record at the shard's next slot, and return the slot. *)
let append l e =
  let slot = l.next_slot in
  l.append_at slot e;
  l.next_slot <- slot + 1;
  slot

(* Commit [items], each at the (shard, slot) [at] gives, under the
   protocol above; [persist] runs on each item just before the ledger
   fence, which then covers its flushes. Slots below a shard's
   checkpoint base were force-committed (and their cells dropped) by a
   checkpoint that raced this batch: they are not re-flushed. *)
let commit t ~at ~persist = function
  | [] -> ()
  | items ->
    List.iter
      (fun it ->
        let si, slot = at it in
        let l = t.logs.(si) in
        if slot >= l.base then l.flush slot)
      items;
    List.iter persist items;
    t.fence fence_site;
    let touched = Hashtbl.create 8 in
    List.iter
      (fun it ->
        let si, slot = at it in
        let cur =
          match Hashtbl.find_opt touched si with
          | Some i -> i
          | None -> t.logs.(si).committed
        in
        if slot + 1 > cur then Hashtbl.replace touched si (slot + 1))
      items;
    Hashtbl.iter (fun si idx -> t.logs.(si).write_index idx) touched;
    t.fence commit_fence_site;
    Hashtbl.iter (fun si idx -> t.logs.(si).committed <- idx) touched

(* Durably checkpoint shard [si] at cut [upto]: force-commit the slots
   the index does not cover yet ([persist] as in {!commit}), write the
   snapshot, drop the covered prefix, and return how many slots it
   held. *)
let checkpoint t si ~persist ((upto, _, _) as ck) =
  let l = t.logs.(si) in
  commit t
    ~at:(fun slot -> (si, slot))
    ~persist
    (List.init (max 0 (upto - l.committed)) (fun i -> l.committed + i));
  l.write_ckpt ck;
  (* commit point passed: the covered prefix is now garbage *)
  let dropped = upto - l.base in
  l.drop_below upto;
  l.base <- upto;
  dropped

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
