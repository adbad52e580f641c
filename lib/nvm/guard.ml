(* The one guard in front of every flush and fence an instrumentation
   layer issues: the NVTraverse engine and its Protocol 2 memory, the
   Izraelevitz and FliT wrappers, link-and-persist, the site-persisting
   contenders ([Persist.Sited]: SOFT, detectable descriptors) and the
   service's ledger, commit and checkpoint persistence.

   [admit kind site] answers one question — does this instruction
   issue? — in a fixed order:

   1. suppression ({!Suppress}, the mutation lab's knife): the
      suppressed site skips, and the skip is counted;
   2. elision ({!Optimizer}): a site in the installed plan skips, and
      the skip is counted — after suppression, so the mutation lab's
      skip counters stay exact under a plan;
   3. otherwise the site becomes the pending tag ({!Stats}) and the
      caller issues the instruction, which the backend counts under it.

   The three pieces of state it reads — the suppression target, the
   elision set and the pending tag — live in one per-domain context, so
   a guarded instruction costs one domain-local lookup. Machines carry
   their own suppression and optimizer records and
   {!Nvt_sim.Machine.set_current} installs them here, so machines on
   different domains (or interleaved on one) never observe each other's
   suppression, plan or counters. The pending-tag cell is the domain's
   own and never swapped.

   A CAS is never suppressed or elided: it belongs to the concurrent
   algorithm, not to the persistence discipline. Wrappers that attribute
   their CAS tag it with {!Stats.tag}. *)

type suppression = {
  mutable target : Stats.id;
  mutable skipped_flushes : int;
  mutable skipped_fences : int;
}

type plan = { defer : bool; elide : string list }

type optimizer = {
  mutable plan : plan option;
  mutable elided : bool array;
  mutable coalesced_flushes : int;
  mutable deferred_flushes : int;
  mutable elided_flushes : int;
  mutable elided_fences : int;
}

type t = {
  pending : Stats.pending;
  mutable suppression : suppression;
  mutable optimizer : optimizer;
}

let no_suppression () =
  { target = -1; skipped_flushes = 0; skipped_fences = 0 }

let no_optimizer () =
  { plan = None;
    elided = [||];
    coalesced_flushes = 0;
    deferred_flushes = 0;
    elided_flushes = 0;
    elided_fences = 0 }

(* Created on the domain that first asks, so [pending] is that domain's
   own tag cell. *)
let key =
  Domain.DLS.new_key (fun () ->
      { pending = Stats.pending ();
        suppression = no_suppression ();
        optimizer = no_optimizer () })

let context () = Domain.DLS.get key

type kind = Flush | Fence

let admit kind site =
  let c = Domain.DLS.get key in
  let s = c.suppression in
  if site = s.target then begin
    (match kind with
    | Flush -> s.skipped_flushes <- s.skipped_flushes + 1
    | Fence -> s.skipped_fences <- s.skipped_fences + 1);
    false
  end
  else
    let o = c.optimizer in
    if site < Array.length o.elided && Array.unsafe_get o.elided site then begin
      (match kind with
      | Flush -> o.elided_flushes <- o.elided_flushes + 1
      | Fence -> o.elided_fences <- o.elided_fences + 1);
      false
    end
    else begin
      Stats.tag_at c.pending site;
      true
    end
