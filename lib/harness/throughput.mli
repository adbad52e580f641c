(** The simulated-throughput runner behind every figure panel: prefill
    to half the key range, persist, spawn N simulated threads over the
    operation mix, and report operations per simulated microsecond plus
    the flush/fence mix. *)

module type SET = Nvt_core.Set_intf.SET

type params = {
  threads : int;
  range : int;
  mix : Nvt_workload.Workload.mix;
  total_ops : int;
      (** split across threads: exactly this many operations run, the
          remainder spread one-each over the first threads *)
}

type result = {
  ops : int;  (** operations actually executed: equals [total_ops] *)
  makespan : int;  (** virtual time *)
  mops : float;  (** ops per 1e3 simulated time units: Mops/s in ns units *)
  flushes_per_op : float;
  fences_per_op : float;
  cas_failure_rate : float;
  stats : Nvt_nvm.Stats.t;
      (** the run's counter delta, including the per-site attribution
          table — the JSON emitter and the telemetry tests read it *)
}

val run : (module SET) -> cost:Nvt_nvm.Cost_model.t -> seed:int -> params -> result
