(** The NVTraverse transformation (Section 4, Algorithm 2).

    Given the three methods of a traversal data structure and its
    boundary, {!Make.operation} runs the attempt loop and injects every
    flush and fence the transformation prescribes: nothing during
    findEntry/traverse, ensureReachable + makePersistent before the
    critical method (through the structure's boundary and
    {!Make.reach}, {!Make.persist}, {!Make.end_boundary}), Protocol 2
    inside it (through {!Make.Critical}), and a fence before returning.
    Instantiated with the [Volatile] policy everything erases to the
    original lock-free algorithm. *)

module Make (M : Nvt_nvm.Memory.S) (P : Nvt_nvm.Persist.Make(M).S) : sig
  module Critical : Nvt_nvm.Memory.S with type 'a loc = 'a M.loc
  (** Protocol 2-instrumented memory for critical methods: flush after
      shared reads/writes/CAS, fence before writes/CAS. Immutable fields
      should be read through [M] directly (no flush needed). *)

  type 'r verdict = Restart | Finish of 'r

  (** {1 The traversal/critical boundary}

      A structure's boundary receives the nodes its traverse returned
      and passes, in order, the ensureReachable cells to {!reach} and
      then the makePersistent cells to {!persist}, each typed, and then
      calls {!end_boundary} once. It keeps no state beyond its own
      parameters: a flush is a scheduling step, so other threads run
      inside a boundary. *)

  val reach : dup:bool -> 'a M.loc -> int
  (** One ensureReachable entry: the location of the pointer that first
      linked the topmost returned node in (Supplement 2), or one of the
      parent edges on the last [k] steps of the traversal (Lemma 4.1).
      Flushed, attributed to [nvt:ensure_reachable], unless [dup]: an
      earlier entry of this boundary names the same location. Returns
      the flushes issued, 0 or 1. *)

  val persist : dup:bool -> 'a M.loc -> int
  (** One makePersistent entry, a mutable field the traversal read in
      the returned nodes; as {!reach}, attributed to
      [nvt:make_persistent]. *)

  val end_boundary : clean:bool -> mentions:int -> issued:int -> unit
  (** Close a boundary that named [mentions] entries and issued [issued]
      flushes: count the [mentions - issued] coalesced duplicates, then
      issue the boundary fence ([nvt:make_persistent]) — unless a
      deferred optimizer plan is installed, nothing was issued and the
      attempt is [clean] (the first one of its operation), in which
      case the fence is counted as elided — and count the [issued]
      flushes as deferred under such a plan. *)

  val operation :
    find_entry:('i -> 'entry) ->
    traverse:('entry -> 'i -> 'nodes) ->
    boundary:('nodes -> clean:bool -> unit) ->
    critical:('nodes -> 'i -> 'r verdict) ->
    'i ->
    'r
  (** One operation of an NVTraverse data structure (Algorithm 2):
      repeat findEntry, traverse, the boundary (ensureReachable,
      makePersistent), critical until the critical method finishes;
      fence; return. The boundary runs only under a policy whose
      [P.enabled] is true, with [~clean] false on a restarted attempt.

      Section 4.3's necessity claim is tested through
      {!Nvt_nvm.Suppress}: every injected instruction passes its
      interned site through {!Nvt_nvm.Guard}, which honours the
      per-site suppression switch ([nvt:ensure_reachable],
      [nvt:make_persistent], [nvt:return_fence], and the Protocol 2
      sites inside {!Critical}), and the mutation harness drives each
      suppressed variant to a durability violation. *)
end
