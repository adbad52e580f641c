(* The shared-memory interface all data structures are written against.

   A ['a loc] is one shared mutable word living on its own cache line: it
   has a volatile (cached) value that [read]/[write]/[cas] act on, and —
   in persistent backends — a separate persistent value that only [flush]
   followed by [fence] (or an implicit eviction) updates.

   [cas] compares with physical equality, like [Atomic.compare_and_set];
   algorithms must pass the exact value previously read as [expected].

   Immutable data (e.g. a node's key) is represented as plain OCaml record
   fields, not locations, which is how the paper's "no flush after reading
   an immutable field" rule is expressed structurally. Fields that must be
   persisted before a node is published (key, value) are grouped in a
   location written once at initialization.

   Counting backends attribute each flush, fence and CAS they count to
   the pending site tag ([Stats.take_site], consumed per instruction):
   an interned site id that instrumentation layers set immediately
   before the access — flushes and fences through the one guard
   ([Guard.admit]), CAS through [Stats.tag] — so that the benchmark
   harness can report which instrumentation point pays each
   instruction, not just the totals. *)

exception Corrupt_read of int
(** Raised by backends that can detect reads of data lost in a crash
    (the simulator: a cell whose contents were never persisted). The
    payload is a backend-specific cell id. Living here rather than in
    the simulator lets structure-level recovery code — which only sees
    {!S} — treat "this word did not survive" as an ordinary, catchable
    outcome without depending on any particular backend. *)

module type S = sig
  type 'a loc

  val alloc : 'a -> 'a loc
  (** A fresh location holding the given value. The value is *not*
      persistent until flushed: after a crash, an unflushed fresh location
      reads back as corrupt in the simulator. *)

  val read : 'a loc -> 'a

  val write : 'a loc -> 'a -> unit

  val cas : 'a loc -> expected:'a -> desired:'a -> bool
  (** Atomic compare-and-swap using physical equality on [expected]. *)

  val flush : 'a loc -> unit
  (** Initiate a write-back of the location's current volatile value. The
      write-back is only guaranteed complete after the next [fence] by the
      same thread. *)

  val fence : unit -> unit
  (** Wait until every write-back this thread initiated has reached
      persistent memory. *)
end

(* Reclamation feedback: code that frees cells (the service ledger and
   checkpoint) reports how many, and a backend with a working-set model
   (the simulator's capacity-miss probability) subscribes to shrink its
   live-line estimate accordingly. Without this, freed cells would
   count as cache pressure forever, monotonically inflating the
   read-miss probability of long service runs. The native backend
   leaves the hook at its no-op default. *)
let on_reclaim : (int -> unit) ref = ref (fun _ -> ())

let reclaimed n = if n > 0 then !on_reclaim n

(* A second signature for backends that also expose their counters; the
   wrappers below only need [S]. *)
module type BACKEND = sig
  include S

  val stats : unit -> Stats.t
  (** Aggregate counters across all threads since the last reset. *)

  val reset_stats : unit -> unit
end
