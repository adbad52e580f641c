(** The service target of the mutation laboratory: the service layer's
    own [svc:] persistence sites (commit protocol and checkpointer),
    which only a whole-service run reaches. Its attacks crash the
    {!Runner} at swept thresholds, including double-crash eras that
    crash the recovery pass; a kill is an exactly-once-oracle
    violation, a stalled recovery, a corrupt cell or a structural
    failure. *)

val config :
  structure:string ->
  policy:string ->
  plan:Nvt_nvm.Optimizer.plan option ->
  Runner.config
(** The fixed battery workload of one combo. *)

val target :
  Runner.config ->
  Nvt_harness.Mutlab.scale ->
  Nvt_harness.Mutlab.svc_crash Nvt_harness.Mutlab.target
(** The service target over a combo; its [attack] replays a recorded
    [svc-crash] kill under the active suppression. Its probe raises
    [Failure] if a crash-free run reports a violation. *)

val batteries :
  ?policies:string list ->
  ?optimize:Nvt_harness.Json.t ->
  Nvt_harness.Mutlab.scale ->
  Nvt_harness.Mutlab.battery list
(** One battery per combo in the scale's [service] list (restricted to
    [policies] when non-empty), with report rows named ["svc:" ^
    structure]. Under [optimize] (a checked report) each runs under the
    plan {!Nvt_harness.Mutlab.plan_of_report} derives for its store's
    structure x policy — svc sites are proven necessary and never
    planned — carried in the runner config's [plan] field. *)
