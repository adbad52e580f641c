(* Persistence optimizer: turn telemetry and mutation verdicts into
   skipped instructions.

   The engine and the policy wrappers attribute every flush/fence to a
   named site ({!Stats}) and the mutation lab classifies each site as
   necessary or candidate-redundant ({!Suppress} is its knife). This
   module closes the loop: a {e plan} names the sites that may be
   elided for the running structure x policy — derived from a committed
   [MUTATION_report.json], never hand-written — and turns on deferred
   boundary persistence. {!Guard.admit} consults the installed plan
   right after the suppression check and skips the instruction when its
   site is in the plan.

   Three distinct savings are tracked:

   - {b coalesced}: same-line duplicates dropped by the engine's
     boundary dedup (the NVTraverse persist set and the
     ensure-reachable parents can name one cell several times; one
     flush of the line's current value covers all of them under the
     single covering fence). The dedup itself is unconditional — the
     duplicate flushes were an accounting bug — but the savings are
     counted here so the before/after series can report them.
   - {b elided}: flushes/fences skipped because their site is in the
     plan. Sound only under proof: every shipped elision list must be
     re-validated by an optimizer-enabled mutation battery (see
     [nvtsim mutate --optimize]); the substantive evidence is that
     battery's control run — the optimized configuration surviving the
     full crash/stall/eviction adversary suite — since a single-site
     mutant of an already-elided site is trivially indistinguishable
     from the optimized baseline.
   - {b deferred}: boundary flushes routed through the drain point. In
     a clwb-style machine flushes are already asynchronous (they ride
     the per-thread pending FIFO until the next fence), so deferral's
     measurable effect is the empty-drain rule: a boundary whose drain
     issued no flushes — and which provably has no earlier unfenced
     flush outstanding — skips its fence entirely.

   Like {!Suppress}, the state is a small context record installed in
   the domain's {!Guard} context by {!Nvt_sim.Machine.set_current}, so
   domains running different machines (striped mutation batteries,
   sharded services) never observe each other's plan or counters. *)

type plan = Guard.plan = { defer : bool; elide : string list }

let no_opt = { defer = false; elide = [] }

type counters = {
  coalesced_flushes : int;
  deferred_flushes : int;
  elided_flushes : int;
  elided_fences : int;
}

type t = Guard.optimizer

let create = Guard.no_optimizer

(* The guard tests membership by site id, so a plan's names are
   interned and laid out as a flag array once, when it is installed. *)
let elided_of = function
  | None -> [||]
  | Some p ->
    let ids = List.map Stats.intern p.elide in
    let a = Array.make (1 + List.fold_left max (-1) ids) false in
    List.iter (fun id -> a.(id) <- true) ids;
    a

let of_plan plan : t = { (create ()) with plan; elided = elided_of plan }

let ambient () : t = (Guard.context ()).optimizer
let use c = (Guard.context ()).optimizer <- c

let set plan =
  let c = ambient () in
  c.plan <- plan;
  c.elided <- elided_of plan;
  c.coalesced_flushes <- 0;
  c.deferred_flushes <- 0;
  c.elided_flushes <- 0;
  c.elided_fences <- 0

let plan () = (ambient ()).plan
let active () = (ambient ()).plan <> None

let defer_on () =
  match (ambient ()).plan with Some p -> p.defer | None -> false

(* Dedup savings are counted even with no plan installed: the engine's
   boundary coalescing is unconditional, and the counter is how the
   bench attributes the accounting fix's share of the reduction. *)
let note_coalesced n =
  if n > 0 then begin
    let c = ambient () in
    c.coalesced_flushes <- c.coalesced_flushes + n
  end

let note_deferred n =
  if n > 0 then begin
    let c = ambient () in
    c.deferred_flushes <- c.deferred_flushes + n
  end

let note_empty_fence () =
  let c = ambient () in
  c.elided_fences <- c.elided_fences + 1

let counters_of (c : t) =
  { coalesced_flushes = c.coalesced_flushes;
    deferred_flushes = c.deferred_flushes;
    elided_flushes = c.elided_flushes;
    elided_fences = c.elided_fences }

let counters () = counters_of (ambient ())
