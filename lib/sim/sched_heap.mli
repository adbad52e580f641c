(** An indexed 4-ary min-heap of thread ids keyed by [(vtime, tid)],
    lexicographically — the scheduler's least-virtual-time /
    lowest-tid tie-break as a data structure. Backs {!Machine}'s
    scheduler: the thread that runs stays at the root and
    {!reschedule} re-keys it, O(log n) per scheduling step where the
    old implementation scanned every thread.

    A positions array indexed by tid gives O(1) membership (what the
    explorer's scheduler override checks its pick against) and lets
    {!reschedule} re-key or remove any tid in O(log n), not only the
    root. Tids must be small non-negative integers; the machine's
    sequentially allocated, never-reused tids qualify. *)

type t

val create : unit -> t

val mem : t -> tid:int -> bool

val add : t -> vtime:int -> tid:int -> unit
(** Insert a tid with its key. Raises [Invalid_argument] if the tid is
    negative or already present (each runnable thread is in the heap
    exactly once). *)

val min_tid : t -> int option
(** The tid with the least [(vtime, tid)], without removing it. *)

val reschedule : t -> tid:int -> vtime:int -> runnable:bool -> int
(** Put [tid], which just ran (or stalled), back in order and return
    the new root tid, [-1] when the heap is empty: the scheduler's one
    heap call per step. A [runnable] tid is re-keyed to [vtime] in
    place, or added if absent; a finished one is removed. The new key
    must be no smaller than the current one (virtual time is monotone);
    a smaller key silently misorders the heap. When [tid] is the root,
    as it is on the default schedule, this is a single sift down from
    slot 0. Raises [Invalid_argument] if [vtime] is out of range. *)

val clear : t -> unit

val tids_ascending : t -> int list
(** Every contained tid in ascending order — the runnable list handed
    to a scheduler override. *)
