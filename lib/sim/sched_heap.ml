(* The runnable thread ids keyed by (vtime, tid), lexicographically —
   exactly the scheduler's least-virtual-time / lowest-tid tie-break.

   This is the simulator's hottest data structure: one {!reschedule}
   per scheduling step of every benchmark. It is a winner (tournament)
   tree over thread slots:
   - a key is one int [(vtime lsl 20) lor tid]: integer order is
     lexicographic (vtime, tid) order, and keys are unique, so the root
     is the same tid for any tree shape;
   - leaves are slots, taken from a free list and given back when their
     thread finishes, so the tree is as wide as the most threads ever
     live at once, not the highest tid; an empty slot holds [empty];
   - an internal node holds the least of its two children, computed
     without a branch, so a re-key writes a leaf and recomputes its
     fixed-length path to the root: log2(width) steps and no
     data-dependent branch for the CPU to mispredict;
   - [slot] maps a tid to its slot (-1 when absent), grown by doubling.

   The packing bounds tids below 2^20 and vtimes below 2^42 - 1, which
   keeps every key strictly below [empty]; [add] and [reschedule]
   enforce both. The [Array.unsafe_*] accesses are in bounds by the
   tree's shape: a leaf index is below [2 * width = length tree] and
   its path to the root only shrinks it. *)

let tid_bits = 20
let tid_mask = (1 lsl tid_bits) - 1
let max_vtime = (max_int lsr tid_bits) - 1
let empty = max_int
let sign_shift = Sys.int_size - 1

type t = {
  mutable width : int;  (* leaves; a power of two *)
  mutable tree : int array;
      (* the root at 1, node [i]'s children at [2i] and [2i + 1], slot
         [s]'s leaf at [width + s] *)
  mutable slot : int array;  (* tid -> slot; -1 when absent *)
  mutable free : int array;  (* free slots, the next one on top *)
  mutable nfree : int;
}

(* Put the [nfree] highest slots on the free list, the lowest of them
   on top. *)
let refill t nfree =
  t.free <- Array.init t.width (fun i -> t.width - 1 - i);
  t.nfree <- nfree

let create () =
  let t =
    { width = 8; tree = Array.make 16 empty; slot = Array.make 8 (-1);
      free = [||]; nfree = 0 }
  in
  refill t 8;
  t

let slot_of t tid =
  if tid >= 0 && tid < Array.length t.slot then Array.unsafe_get t.slot tid
  else -1

let mem t ~tid = slot_of t tid >= 0

(* Write [key] at slot [s]'s leaf and recompute its path to the root:
   the parent of [k] and its sibling [b] is [b + min (k - b) 0]. Keys
   lie in [0, empty], so the difference never overflows. *)
let set t s key =
  let tree = t.tree in
  let i = ref (t.width + s) and k = ref key in
  Array.unsafe_set tree !i key;
  while !i > 1 do
    let b = Array.unsafe_get tree (!i lxor 1) in
    let d = !k - b in
    k := b + (d land (d asr sign_shift));
    i := !i lsr 1;
    Array.unsafe_set tree !i !k
  done

(* Double the width: the leaves keep their slots and the new slots are
   free. *)
let grow_tree t =
  let w = 2 * t.width in
  let tree = Array.make (2 * w) empty in
  Array.blit t.tree t.width tree w t.width;
  for i = w - 1 downto 1 do
    tree.(i) <- min tree.(2 * i) tree.(2 * i + 1)
  done;
  t.tree <- tree;
  t.width <- w;
  refill t (w / 2)

let bad_vtime fn vtime =
  invalid_arg (Printf.sprintf "Sched_heap.%s: vtime %d out of range" fn vtime)

let add t ~vtime ~tid =
  if tid < 0 || tid > tid_mask then
    invalid_arg (Printf.sprintf "Sched_heap.add: tid %d out of range" tid);
  if vtime < 0 || vtime > max_vtime then bad_vtime "add" vtime;
  if mem t ~tid then
    invalid_arg (Printf.sprintf "Sched_heap.add: tid %d already present" tid);
  if tid >= Array.length t.slot then begin
    let b = Array.make (max (tid + 1) (2 * Array.length t.slot)) (-1) in
    Array.blit t.slot 0 b 0 (Array.length t.slot);
    t.slot <- b
  end;
  if t.nfree = 0 then grow_tree t;
  t.nfree <- t.nfree - 1;
  let s = t.free.(t.nfree) in
  t.slot.(tid) <- s;
  set t s ((vtime lsl tid_bits) lor tid)

let root t =
  let k = Array.unsafe_get t.tree 1 in
  if k = empty then -1 else k land tid_mask

let min_tid t = match root t with -1 -> None | tid -> Some tid

(* The machine's one call per step: a runnable tid is re-keyed in place
   (or added), a finished one gives its slot back. *)
let reschedule t ~tid ~vtime ~runnable =
  let s = slot_of t tid in
  if runnable then begin
    if vtime < 0 || vtime > max_vtime then bad_vtime "reschedule" vtime;
    if s >= 0 then set t s ((vtime lsl tid_bits) lor tid)
    else add t ~vtime ~tid
  end
  else if s >= 0 then begin
    set t s empty;
    t.slot.(tid) <- -1;
    t.free.(t.nfree) <- s;
    t.nfree <- t.nfree + 1
  end;
  root t

(* The occupied leaves' tids, in no particular order. *)
let live t =
  List.filter_map
    (fun k -> if k = empty then None else Some (k land tid_mask))
    (Array.to_list (Array.sub t.tree t.width t.width))

let clear t =
  List.iter (fun tid -> t.slot.(tid) <- -1) (live t);
  Array.fill t.tree 0 (Array.length t.tree) empty;
  refill t t.width

let tids_ascending t = List.sort compare (live t)
