(* An indexed min-heap of runnable thread ids keyed by
   (vtime, tid), lexicographically — exactly the scheduler's
   least-virtual-time / lowest-tid tie-break, so the root is the same
   thread the old linear scan over the thread list selected, found in
   O(1) and rescheduled in O(log n) instead of O(n) per step.

   "Indexed" means a positions array mapping tid -> heap slot, giving
   O(1) membership tests and O(log n) removal of an arbitrary tid — the
   operation the explorer's scheduler override needs. Tids are small
   dense integers (the machine allocates them sequentially and never
   reuses them), so the positions array is grown by doubling and old,
   finished tids simply keep a -1 slot.

   This is the simulator's hottest data structure: one {!reschedule}
   per scheduling step of every benchmark, so the representation is
   tuned.
   Each element is a single int [(vtime lsl 20) lor tid] — unsigned
   packing keeps integer comparison identical to lexicographic
   (vtime, tid) comparison while halving the loads per sift level — and
   the sifts move a hole instead of swapping (one store per level, not
   three). The packing bounds tids below 2^20 and vtimes below 2^42;
   [add]/[reschedule] enforce both, and no simulation gets anywhere
   near either (vtime grows by at most a few hundred cost units per
   step).

   The [Array.unsafe_*] accesses in the sifts are justified by the
   structure's invariants: slot indices are bounded by [size <= length
   keys], and every tid unpacked from a stored key had [pos] grown to
   cover it when it was added. *)

let tid_bits = 20
let tid_mask = (1 lsl tid_bits) - 1
let max_vtime = max_int lsr tid_bits

type t = {
  mutable keys : int array;  (* (vtime lsl tid_bits) lor tid per slot *)
  mutable pos : int array;  (* tid -> heap slot; -1 when absent *)
  mutable size : int;
}

let create () =
  { keys = Array.make 8 0; pos = Array.make 8 (-1); size = 0 }

let mem t ~tid = tid >= 0 && tid < Array.length t.pos && t.pos.(tid) >= 0

(* The tree is 4-ary: children of [i] are [4i+1 .. 4i+4]. Half the
   levels of a binary heap at the 32–64-thread sizes the benchmarks
   sweep, and the min-child scan reads adjacent words — measurably
   faster than binary for this workload. Packed keys are unique (the
   tid is in the low bits), so which element pops is the same for any
   heap arity; only the internal layout differs. *)

(* Move the hole at [i] up until [key] fits, then fill it. *)
let sift_up t i key =
  let keys = t.keys and pos = t.pos in
  let i = ref i in
  let stop = ref false in
  while (not !stop) && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let pk = Array.unsafe_get keys p in
    if pk > key then begin
      Array.unsafe_set keys !i pk;
      Array.unsafe_set pos (pk land tid_mask) !i;
      i := p
    end
    else stop := true
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set pos (key land tid_mask) !i

(* Move the hole at [i] down until [key] fits, then fill it. *)
let sift_down t i key =
  let keys = t.keys and pos = t.pos in
  let n = t.size in
  let i = ref i in
  let stop = ref false in
  while (not !stop) && (!i lsl 2) + 1 < n do
    let base = (!i lsl 2) + 1 in
    let last = if base + 3 < n then base + 3 else n - 1 in
    let c = ref base in
    let ck = ref (Array.unsafe_get keys base) in
    for j = base + 1 to last do
      let kj = Array.unsafe_get keys j in
      if kj < !ck then begin
        c := j;
        ck := kj
      end
    done;
    if !ck < key then begin
      Array.unsafe_set keys !i !ck;
      Array.unsafe_set pos (!ck land tid_mask) !i;
      i := !c
    end
    else stop := true
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set pos (key land tid_mask) !i

let grow a fresh n =
  let len = ref (max 8 (Array.length a)) in
  while !len <= n do
    len := 2 * !len
  done;
  let b = Array.make !len fresh in
  Array.blit a 0 b 0 (Array.length a);
  b

let check_vtime fn vtime =
  if vtime < 0 || vtime > max_vtime then
    invalid_arg (Printf.sprintf "Sched_heap.%s: vtime %d out of range" fn vtime)

let add t ~vtime ~tid =
  if tid < 0 || tid > tid_mask then
    invalid_arg (Printf.sprintf "Sched_heap.add: tid %d out of range" tid);
  check_vtime "add" vtime;
  if mem t ~tid then
    invalid_arg (Printf.sprintf "Sched_heap.add: tid %d already present" tid);
  if tid >= Array.length t.pos then t.pos <- grow t.pos (-1) tid;
  if t.size >= Array.length t.keys then t.keys <- grow t.keys 0 t.size;
  let i = t.size in
  t.size <- i + 1;
  sift_up t i ((vtime lsl tid_bits) lor tid)

(* Remove the element at heap slot [i], restoring the heap property. *)
let remove_slot t i =
  let last = t.size - 1 in
  t.pos.(t.keys.(i) land tid_mask) <- -1;
  t.size <- last;
  if i < last then begin
    let key = t.keys.(last) in
    (* the displaced last element may belong above or below slot [i] *)
    sift_up t i key;
    sift_down t t.pos.(key land tid_mask) key
  end

let min_tid t = if t.size = 0 then None else Some (t.keys.(0) land tid_mask)

(* The machine's one heap call per step. Keys only grow (vtime is
   monotone), so sifting down from the tid's slot suffices — slot 0 on
   the default schedule, where the thread that ran is the root. *)
let reschedule t ~tid ~vtime ~runnable =
  if runnable && (vtime < 0 || vtime > max_vtime) then
    check_vtime "reschedule" vtime;
  (if mem t ~tid then
     if runnable then sift_down t t.pos.(tid) ((vtime lsl tid_bits) lor tid)
     else remove_slot t t.pos.(tid)
   else if runnable then add t ~vtime ~tid);
  if t.size = 0 then -1 else Array.unsafe_get t.keys 0 land tid_mask

let clear t =
  for i = 0 to t.size - 1 do
    t.pos.(t.keys.(i) land tid_mask) <- -1
  done;
  t.size <- 0

(* Ascending tid order, as the explorer's scheduler override expects.
   O(max_tid): a scan of the positions array, which is exactly as large
   as the highest tid ever seen. *)
let tids_ascending t =
  let acc = ref [] in
  for tid = Array.length t.pos - 1 downto 0 do
    if t.pos.(tid) >= 0 then acc := tid :: !acc
  done;
  !acc
