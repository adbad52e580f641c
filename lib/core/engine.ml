(* The NVTraverse transformation (Section 4, Algorithm 2).

   Given the three methods of a traversal data structure — findEntry,
   traverse, critical — this engine runs the operation loop and injects
   every flush and fence the transformation prescribes:

     - nothing is persisted during findEntry or traverse;
     - ensureReachable persists the pointer that connects the returned
       subtree to the rest of the structure, using either the node's
       original-parent field (Supplement 2) or the k-last-parents
       optimization of Lemma 4.1;
     - makePersistent flushes every field the traversal read in the nodes
       it returned, then executes one fence (which also covers
       ensureReachable's flush);
     - the critical method runs over Protocol 2-instrumented memory
       (flush after shared reads, writes and CAS; fence before writes and
       CAS — see {!Nvt_nvm.Protocol2});
     - a fence executes before the operation returns.

   The boundary flush set is deduplicated per fence epoch: the
   ensure-reachable parents and the persist set can name the same cell
   several times (a field read twice in a traversal, a parent that is
   also a returned node's field), and one flush of the line's current
   value covers every duplicate under the single covering fence.
   Re-flushing charged the flush cost once per mention — an accounting
   bug, fixed unconditionally; the savings are counted through
   {!Nvt_nvm.Optimizer.note_coalesced} so the optimizer experiment can
   attribute them.

   Instantiated with the [Volatile] persistence policy, all of the above
   erases and the engine runs the original lock-free algorithm. *)

module Make (M : Nvt_nvm.Memory.S) (P : Nvt_nvm.Persist.Make(M).S) = struct
  module Critical = Nvt_nvm.Protocol2.Make (M) (P)

  type reachability =
    | Original_parent of M.any
        (** Supplement 2: the location of the pointer that first linked
            the topmost returned node into the structure. *)
    | Parents of M.any list
        (** Lemma 4.1: the parent pointers on the last [k] steps of the
            traversal, where [k] bounds the depth of any atomically
            inserted subtree. *)

  type 'nodes traversal = {
    nodes : 'nodes;  (** what the critical method operates on *)
    reach : reachability;
    persist_set : M.any list;
        (** the mutable fields the traversal read in the returned nodes *)
  }

  type 'r verdict = Restart | Finish of 'r

  (* Attribution: each engine placement names its site so the per-site
     flush table separates the traversal/critical boundary cost from
     Protocol 2's per-access cost. The names are interned once, here.

     Each placement passes its site through {!Nvt_nvm.Guard}: the
     mutation harness suppresses one site at a time and drives the
     crippled engine to a durability violation, demonstrating the
     Section 4.3 necessity claim per instruction site rather than per
     class; an installed proof-gated {!Nvt_nvm.Optimizer} plan may
     elide it; otherwise the guard tags it. Under [Volatile] the
     instruction is erased before the guard, so volatile runs neither
     tag nor count skips. *)
  let ensure_reachable_site = Nvt_nvm.Stats.intern "nvt:ensure_reachable"
  let make_persistent_site = Nvt_nvm.Stats.intern "nvt:make_persistent"
  let return_fence_site = Nvt_nvm.Stats.intern "nvt:return_fence"

  let flush_at site l =
    if P.enabled && Nvt_nvm.Guard.admit Flush site then P.flush_any l

  let fence_at site =
    if P.enabled && Nvt_nvm.Guard.admit Fence site then P.fence ()

  (* Same-line membership. Packed [M.any] wrappers are fresh
     allocations, so compare the wrapped locations; for every concrete
     memory a location is a heap value (the simulator's cell record, a
     native ref), so physical equality of the representations is
     exactly same-cache-line identity. Boundary sets are a handful of
     entries, so a quadratic scan of the lists beats building a table. *)
  let same_line (M.Any a) (M.Any b) = Obj.repr a == Obj.repr b

  (* Some entry of [ls] in front of its suffix [stop] names [l]'s line. *)
  let rec named_before l ls stop =
    ls != stop
    &&
    match ls with
    | [] -> false
    | x :: tl -> same_line x l || named_before l tl stop

  let in_reach l = function
    | Original_parent p -> same_line p l
    | Parents ps -> named_before l ps []

  (* Flush each entry of [rest], a suffix of [set], unless [reach] or an
     earlier entry of [set] names its line; returns [issued] plus the
     flushes handed to the policy. *)
  let rec drain site reach set rest issued =
    match rest with
    | [] -> issued
    | l :: tl ->
      if in_reach l reach || named_before l set rest then
        drain site reach set tl issued
      else begin
        flush_at site l;
        drain site reach set tl (issued + 1)
      end

  (* Issue the boundary's flush set — reach parents first (they are the
     structurally distinguished flushes), then the persist set — with
     same-line duplicates dropped. Returns the flushes issued, so the
     caller can apply the empty-drain fence rule. *)
  let boundary_flushes reach set =
    let issued, parents =
      match reach with
      | Original_parent l ->
        flush_at ensure_reachable_site l;
        (1, 1)
      | Parents ps ->
        (drain ensure_reachable_site (Parents []) ps ps 0, List.length ps)
    in
    let issued = drain make_persistent_site reach set set issued in
    Nvt_nvm.Optimizer.note_coalesced (parents + List.length set - issued);
    issued

  (* The traversal/critical boundary of one attempt. Under a deferred
     plan, a boundary whose deduplicated drain issued no flushes skips
     its fence: a fence only completes the calling thread's pending
     write-backs, and on a first attempt the thread has fenced all its
     flushes (the previous operation ended in a return fence and
     findEntry/traverse persist nothing), so an empty drain makes the
     fence a semantic no-op. A restarted attempt may have unfenced
     Protocol 2 flushes outstanding from the aborted critical section,
     so [clean] withholds the rule there. *)
  let persist_boundary ~clean reach persist_set =
    if P.enabled then begin
      let issued = boundary_flushes reach persist_set in
      if issued = 0 && clean && Nvt_nvm.Optimizer.defer_on () then
        (* erased before the guard, per its contract: a fence that was
           never going to issue must not count as a suppressed skip *)
        Nvt_nvm.Optimizer.note_empty_fence ()
      else fence_at make_persistent_site;
      if Nvt_nvm.Optimizer.defer_on () then
        Nvt_nvm.Optimizer.note_deferred issued
    end

  (* The attempt loop passes its arguments down instead of closing
     over them, so an attempt allocates nothing of its own. *)
  let rec attempt ~find_entry ~traverse ~critical input ~clean =
    let tr = traverse (find_entry input) input in
    persist_boundary ~clean tr.reach tr.persist_set;
    match critical tr.nodes input with
    | Restart -> attempt ~find_entry ~traverse ~critical input ~clean:false
    | Finish v ->
      fence_at return_fence_site;
      v

  let operation ~find_entry ~traverse ~critical input =
    attempt ~find_entry ~traverse ~critical input ~clean:true
end
