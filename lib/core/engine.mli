(** The NVTraverse transformation (Section 4, Algorithm 2).

    Given the three methods of a traversal data structure, {!Make.operation}
    runs the attempt loop and injects every flush and fence the
    transformation prescribes: nothing during findEntry/traverse,
    ensureReachable + makePersistent before the critical method, Protocol 2
    inside it (through {!Make.Critical}), and a fence before returning.
    Instantiated with the [Volatile] policy everything erases to the
    original lock-free algorithm. *)

module Make (M : Nvt_nvm.Memory.S) (P : Nvt_nvm.Persist.Make(M).S) : sig
  module Critical : Nvt_nvm.Memory.S with type 'a loc = 'a M.loc
  (** Protocol 2-instrumented memory for critical methods: flush after
      shared reads/writes/CAS, fence before writes/CAS. Immutable fields
      should be read through [M] directly (no flush needed). *)

  type reachability =
    | Original_parent of M.any
        (** Supplement 2: the location of the pointer that first linked
            the topmost returned node into the structure. *)
    | Parents of M.any list
        (** Lemma 4.1: the parent edges on the last [k] steps of the
            traversal, where [k] bounds the depth of any atomically
            inserted subtree. *)

  type 'nodes traversal = {
    nodes : 'nodes;  (** what the critical method operates on *)
    reach : reachability;
    persist_set : M.any list;
        (** the mutable fields the traversal read in the returned nodes *)
  }

  type 'r verdict = Restart | Finish of 'r

  (** Section 4.3's necessity claim is tested through
      {!Nvt_nvm.Suppress}: every injected instruction passes its
      interned site through {!Nvt_nvm.Guard}, which honours the
      per-site suppression switch
      ([nvt:ensure_reachable], [nvt:make_persistent],
      [nvt:return_fence], and the Protocol 2 sites inside
      {!Critical}), and the mutation harness drives each suppressed
      variant to a durability violation. *)

  val ensure_reachable : reachability -> unit
  val make_persistent : M.any list -> unit

  val operation :
    find_entry:('i -> 'entry) ->
    traverse:('entry -> 'i -> 'nodes traversal) ->
    critical:('nodes -> 'i -> 'r verdict) ->
    'i ->
    'r
  (** One operation of an NVTraverse data structure (Algorithm 2):
      repeat findEntry, traverse, ensureReachable, makePersistent,
      critical until the critical method finishes; fence; return. *)
end
