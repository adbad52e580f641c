(* Per-site suppression: the mutation harness's knife.

   Every flush/fence the policies and the engine inject is attributed to
   a named site (see {!Stats}); this module lets the harness disable
   exactly one of those sites at a time. Every instrumentation layer
   passes its flushes and fences through {!Guard.admit}, which skips the
   instruction when its site is the suppressed one — the program
   otherwise runs unchanged, which is the mutation-testing notion of
   removing a single persistence instruction from the source.

   Only flushes and fences are suppressible. CAS-only sites
   (lp:mark_clean, flit:install, flit:decrement) are part of the
   algorithms' synchronization, not of the persistence discipline, and
   suppressing a CAS would change the concurrent algorithm itself.

   The switch is a small context record rather than a global cell:
   machines running on different domains (shard-per-domain simulation,
   parallel mutation batteries) each carry their own context, installed
   in the domain's {!Guard} context by {!Nvt_sim.Machine.set_current},
   so one domain's suppression can never leak into another's run.
   Within a domain the module-level API below operates on the currently
   installed context. Callers must still reset with [set None] (through
   [Fun.protect]) so a suppression cannot leak into later runs on the
   same context. *)

type t = Guard.suppression

let create = Guard.no_suppression
let ambient () = (Guard.context ()).suppression
let use c = (Guard.context ()).suppression <- c

let set site =
  let c = ambient () in
  c.target <- (match site with Some name -> Stats.intern name | None -> -1);
  c.skipped_flushes <- 0;
  c.skipped_fences <- 0

let site () =
  let t = (ambient ()).target in
  if t < 0 then None else Some (Stats.name t)

let skipped () =
  let c = ambient () in
  (c.skipped_flushes, c.skipped_fences)
