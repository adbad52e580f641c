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
     entries, so the quadratic scan beats building a table. *)
  let same_line (M.Any a) (M.Any b) = Obj.repr a == Obj.repr b
  let seen_line seen l = List.exists (same_line l) seen

  (* Issue the boundary's flush set — reach parents first (they are the
     structurally distinguished flushes), then the persist set — with
     same-line duplicates dropped. Returns the number of flushes
     actually handed to the policy, so the caller can apply the
     empty-drain fence rule. *)
  let boundary_flushes reach persist_set =
    let reach_locs =
      match reach with Original_parent l -> [ l ] | Parents ls -> ls
    in
    let issued = ref 0 in
    let dropped = ref 0 in
    let flush_new seen site l =
      if seen_line seen l then begin
        incr dropped;
        seen
      end
      else begin
        flush_at site l;
        incr issued;
        l :: seen
      end
    in
    let seen =
      List.fold_left
        (fun seen l -> flush_new seen ensure_reachable_site l)
        [] reach_locs
    in
    ignore
      (List.fold_left
         (fun seen l -> flush_new seen make_persistent_site l)
         seen persist_set);
    if P.enabled then Nvt_nvm.Optimizer.note_coalesced !dropped;
    !issued

  let ensure_reachable reach =
    match reach with
    | Original_parent l -> flush_at ensure_reachable_site l
    | Parents ls ->
      ignore
        (List.fold_left
           (fun seen l ->
             if seen_line seen l then seen
             else begin
               flush_at ensure_reachable_site l;
               l :: seen
             end)
           [] ls)

  let make_persistent locs =
    ignore
      (List.fold_left
         (fun seen l ->
           if seen_line seen l then seen
           else begin
             flush_at make_persistent_site l;
             l :: seen
           end)
         [] locs);
    fence_at make_persistent_site

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
    let issued = boundary_flushes reach persist_set in
    if P.enabled && issued = 0 && clean && Nvt_nvm.Optimizer.defer_on () then
      (* erased before the guard, per its contract: a fence that was
         never going to issue must not count as a suppressed skip *)
      Nvt_nvm.Optimizer.note_empty_fence ()
    else fence_at make_persistent_site;
    if P.enabled && Nvt_nvm.Optimizer.defer_on () then
      Nvt_nvm.Optimizer.note_deferred issued

  let operation ~find_entry ~traverse ~critical input =
    let rec attempt ~clean () =
      let entry = find_entry input in
      let tr = traverse entry input in
      persist_boundary ~clean tr.reach tr.persist_set;
      match critical tr.nodes input with
      | Restart -> attempt ~clean:false ()
      | Finish v ->
        fence_at return_fence_site;
        v
    in
    attempt ~clean:true ()
end
