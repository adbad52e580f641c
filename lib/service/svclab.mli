(** Mutation battery for the service layer's own persistence sites —
    the commit protocol's [svc:ledger_]/[svc:commit_] sites and the
    checkpointer's [svc:ckpt_] sites — which only a whole-service run
    reaches. Suppresses one site at a time ({!Nvt_nvm.Suppress}) and
    attacks the {!Runner} with swept crash thresholds, including
    double-crash eras that fire a second crash during the recovery
    pass; a kill is an exactly-once-oracle violation, a stalled
    recovery, a corrupt cell or a structural failure.

    Results are ordinary {!Nvt_harness.Mutlab.flavour_report}s with
    [structure = "svc:" ^ name]: [nvtsim mutate] appends them to the
    structure batteries' report, and the nvtraverse-mutation/2 schema,
    gate and report check apply unchanged. *)

val run :
  ?policies:string list ->
  ?optimize:Nvt_harness.Json.t ->
  Nvt_harness.Mutlab.scale ->
  Nvt_harness.Mutlab.flavour_report list
(** Run the battery for every [(structure, policy)] combo in the
    scale's [service] list (restricted to [policies] when non-empty).
    [optimize] is a committed mutation report: each combo then runs
    under the optimizer plan {!Nvt_harness.Mutlab.plan_of_report}
    derives for its {e store}'s structure x policy — svc commit sites
    are proven necessary and never planned — so the battery doubles as
    the service-scale durability proof of the optimized configuration.
    The plan reaches the runner in its config's [plan] field. Raises
    [Failure] if an intact probe run reports a violation. *)
