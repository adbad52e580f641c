(* The NVTraverse transformation (Section 4, Algorithm 2).

   Given the three methods of a traversal data structure — findEntry,
   traverse, critical — plus the structure's boundary, this engine runs
   the operation loop and injects every flush and fence the
   transformation prescribes:

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

   Which cells ensureReachable and makePersistent name is a property of
   the structure's returned nodes, so the structure supplies the
   boundary: a function over its own traversal record that passes each
   cell, typed, to {!reach} or {!persist} and then calls
   {!end_boundary}. Nothing is collected into a set on the way.

   The boundary flush set is deduplicated per fence epoch: the
   ensure-reachable parents and the persist set can name the same cell
   several times (a left node that is also the reach parent, a field
   read twice in a traversal), and one flush of the line's current
   value covers every duplicate under the single covering fence. The
   structure's boundary passes [~dup:true] for an entry whose line an
   earlier entry already names; the engine skips its flush and counts
   the saving through {!Nvt_nvm.Optimizer.note_coalesced} so the
   optimizer experiment can attribute it.

   Instantiated with the [Volatile] persistence policy, all of the above
   erases — the boundary is never called — and the engine runs the
   original lock-free algorithm. *)

module Make (M : Nvt_nvm.Memory.S) (P : Nvt_nvm.Persist.Make(M).S) = struct
  module Critical = Nvt_nvm.Protocol2.Make (M) (P)

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

  let fence_at site =
    if P.enabled && Nvt_nvm.Guard.admit Fence site then P.fence ()

  (* One boundary entry: the flush is issued (handed to the guard)
     unless [dup]; the result is the flushes issued, for the
     empty-drain rule. *)
  let entry site ~dup l =
    if dup then 0
    else begin
      if P.enabled && Nvt_nvm.Guard.admit Flush site then P.flush l;
      1
    end

  let reach ~dup l = entry ensure_reachable_site ~dup l
  let persist ~dup l = entry make_persistent_site ~dup l

  (* The rest of the traversal/critical boundary, once its [mentions]
     entries have been passed and [issued] of them flushed. Under a
     deferred plan, a boundary whose deduplicated drain issued no
     flushes skips its fence: a fence only completes the calling
     thread's pending write-backs, and on a first attempt the thread
     has fenced all its flushes (the previous operation ended in a
     return fence and findEntry/traverse persist nothing), so an empty
     drain makes the fence a semantic no-op. A restarted attempt may
     have unfenced Protocol 2 flushes outstanding from the aborted
     critical section, so [clean] withholds the rule there. *)
  let end_boundary ~clean ~mentions ~issued =
    Nvt_nvm.Optimizer.note_coalesced (mentions - issued);
    let defer = Nvt_nvm.Optimizer.defer_on () in
    if issued = 0 && clean && defer then
      (* erased before the guard, per its contract: a fence that was
         never going to issue must not count as a suppressed skip *)
      Nvt_nvm.Optimizer.note_empty_fence ()
    else fence_at make_persistent_site;
    if defer then Nvt_nvm.Optimizer.note_deferred issued

  (* The attempt loop passes its arguments down instead of closing
     over them, so an attempt allocates nothing of its own. *)
  let rec attempt ~find_entry ~traverse ~boundary ~critical input ~clean =
    let nodes = traverse (find_entry input) input in
    if P.enabled then boundary nodes ~clean;
    match critical nodes input with
    | Restart ->
      attempt ~find_entry ~traverse ~boundary ~critical input ~clean:false
    | Finish v ->
      fence_at return_fence_site;
      v

  let operation ~find_entry ~traverse ~boundary ~critical input =
    attempt ~find_entry ~traverse ~boundary ~critical input ~clean:true
end
