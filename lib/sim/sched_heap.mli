(** The runnable thread ids keyed by [(vtime, tid)], lexicographically
    — the scheduler's least-virtual-time / lowest-tid tie-break as a
    data structure. Backs {!Machine}'s scheduler: the thread that runs
    stays in it and {!reschedule} re-keys it, O(log n) per scheduling
    step where the old implementation scanned every thread.

    A winner tree over thread slots: each internal node holds the least
    key below it, so the root is the next thread, and a re-key
    recomputes one leaf-to-root path. Slots are reused once their
    thread finishes, so the tree is as wide as the most threads ever
    runnable at once. A map from tid to slot gives O(1) membership
    (what the explorer's scheduler override checks its pick against)
    and lets {!reschedule} re-key or remove any tid, not only the root.
    Tids must be small non-negative integers; the machine's
    sequentially allocated, never-reused tids qualify. *)

type t

val create : unit -> t

val mem : t -> tid:int -> bool

val add : t -> vtime:int -> tid:int -> unit
(** Insert a tid with its key. Raises [Invalid_argument] if the tid is
    negative or already present (each runnable thread is in the tree
    exactly once). *)

val min_tid : t -> int option
(** The tid with the least [(vtime, tid)], without removing it. *)

val reschedule : t -> tid:int -> vtime:int -> runnable:bool -> int
(** Put [tid], which just ran (or stalled), back in order and return
    the new root tid, [-1] when the tree is empty: the scheduler's one
    call per step. A [runnable] tid is re-keyed to [vtime] in place, or
    added if absent; a finished one is removed. The new key may be
    larger or smaller than the current one. Raises [Invalid_argument]
    if [vtime] is out of range. *)

val clear : t -> unit

val tids_ascending : t -> int list
(** Every contained tid in ascending order — the runnable list handed
    to a scheduler override. *)
