(** Open-loop load harness and crash laboratory for {!Service}: Poisson
    arrivals over sequential client sessions, crash/recover eras with
    client re-send, the exactly-once {!Oracle}, and latency percentiles
    in simulated time. One barrier driver advances eras, recovery passes
    and the audit alike. The per-request state is flat: the schedule is
    {!Oracle.arrivals}' four columns, each distinct op built once and
    shared; a client's backlog holds arrival numbers; and each shard's
    apply history is two ints, a count and a rolling digest
    ({!type:history}).

    The service's shards are striped over [domains] groups, each a
    {!Service} slice on its own {!Nvt_sim.Machine} running on its own
    OCaml domain; the main domain merges their event streams, drives
    client sessions and fires crashes at virtual-time barriers every
    [merge_epoch] units. Crash-free runs produce the same
    per-shard apply histories and oracle verdict for every domain
    count, provided each machine's working set fits the cost model's
    [capacity_lines] (above it the per-machine working-set model
    converts read hits to misses probabilistically, and one machine
    holding all shards has a larger set than several holding slices)
    and checkpointing is off; crashed runs stay verdict-stable (each
    machine coin-flips its own pending write-backs at a crash).

    With [checkpoint_interval > 0] crash-free histories can differ
    across domain counts, with a clean verdict: a checkpoint's cost
    depends on its slice. Its dedup records keep each client's latest
    completion in the whole slice, and in group mode the committer
    checkpoints the slice's shards one after another. On the
    determinism test's configuration, per-op runs differ at some
    intervals (3000) and group runs at every interval from 500 to
    20000. *)

type config = {
  structure : string;  (** registry key, e.g. ["hash"] *)
  flavour : string;  (** registry key, e.g. ["nvt"] *)
  shards : int;
  clients : int;  (** at most {!Oracle.max_clients} *)
  requests : int;
  mean_gap : int;  (** mean Poisson inter-arrival gap, time units *)
  skew : float;  (** [0.] = uniform keys, else Zipf skew *)
  update_pct : int;
  key_range : int;
  mode : Service.mode;
  seed : int;
  crash_steps : int list;
  cost : Nvt_nvm.Cost_model.t;
  eviction : Nvt_sim.Machine.eviction;
  watchdog : int;
      (** max aggregate steps per era before a stall is declared *)
  domains : int;
      (** shard groups on real OCaml domains; clamped to [shards].
          Default 1: everything on the calling domain. *)
  merge_epoch : int;
      (** virtual time units between merge barriers (default 500) *)
  checkpoint_interval : int;
      (** virtual-time checkpoint interval, rounded up to whole merge
          epochs; 0 (the default) disables checkpointing *)
  recovery_crashes : int list;
      (** aggregate-step thresholds of crashes fired {e during}
          recovery (double-crash eras): each recovery pass after an era
          crash consumes the next threshold, crashes every machine, and
          restarts recovery from the durable state. Default []. *)
  plan : Nvt_nvm.Optimizer.plan option;
      (** Optimizer plan installed on every machine's own context
          (worker domains never see the main domain's ambient plan, and
          a shared context would race its counters across domains).
          [None] (the default): no plan. *)
  multi_pct : int;
      (** percentage of requests issued as same-shard
          {!Service.Multi_put} batches (default 0: none, and the
          op-mix RNG is never consumed, so existing histories are
          unchanged) *)
  multi_k : int;
      (** keys per multi-put, capped at the shard's key pool
          (default 4) *)
  rmw_pct : int;
      (** percentage of requests issued as {!Service.Rmw} (default 0) *)
  detect : bool;
      (** detectable recovery: per-client completion descriptors instead
          of dedup-table log replay (see {!Service.create}); the oracle
          additionally holds every acknowledgement against
          {!Service.op_status} at each recovered quiescent point
          (default [false]) *)
}

val default_config : config

type latency = { p50 : int; p95 : int; p99 : int; lmax : int; mean : float }

type history = { count : int; digest : int }
(** One shard's apply history, digested: the number of applies and a
    rolling 63-bit digest of their [(client, seq)] pairs, oldest first.
    Two runs with equal histories applied the same requests in the same
    order on that shard, up to a digest collision. *)

val history_of : (int * int) list -> history
(** The history of these [(client, seq)] applies, oldest first: what
    the merge barrier records for them. *)

type report = {
  config : config;
  acked : int;
  applies : int;
  resent : int;
  multi_puts : int;  (** requests issued as same-shard multi-puts *)
  multi_keys : int;
      (** keys those multi-puts carry, summed: [multi_k] per batch
          unless the shard's key pool is smaller *)
  rmws : int;  (** requests issued as read-modify-writes *)
  dedup_acks : int;
  audit_acks : int;
  crashes_requested : int;
  crashes_fired : int;
  recovery_crashes_requested : int;
  recovery_crashes_fired : int;
  checkpoints : int;  (** checkpoints durably committed *)
  truncated : int;  (** log slots dropped by checkpoints *)
  replayed : int;
      (** committed log entries replayed by recovery passes: bounded by
          the delta since the last checkpoint when checkpointing is on,
          the whole committed log per pass otherwise *)
  recovery_steps : int;
      (** aggregate machine steps spent inside recovery passes *)
  recovery_time : int;
      (** virtual time consumed by recovery passes — the availability
          gap the recovery experiment measures *)
  eras : int;
  makespan : int;
  steps : int;
  committed : int;
  latency : latency;
  stats : Nvt_nvm.Stats.t;
      (** main-run window: prefill and the audit pass excluded *)
  violations : string list;
      (** empty iff exactly-once semantics held (and nothing stalled);
          see {!Oracle.violations} *)
  histories : history array;
      (** per global shard, the applies of the main run, in the order
          the merge barrier collected them (see {!Merge.release}). The
          determinism tests compare these across domain counts. *)
}

val run : config -> report

val run_with : on_machine:(Nvt_sim.Machine.t -> unit) -> config -> report
(** {!run}, calling [on_machine] on each machine as soon as it is
    created, before anything runs on it. Tests use it to install a
    schedule hook, or to keep the machines and read their counters
    after the run. *)

val summarize : ?len:int -> int array -> latency
(** Nearest-rank p50/p95/p99 (the element of rank [ceil (p n)]), max
    and mean of the first [len] latencies (default: all), all 0 when
    there are none. Selects in place: reorders those [len], and copies
    nothing. *)

(** The merge barrier's event buffers, exposed for testing. *)
module Merge : sig
  type ev =
    | E_apply of Service.request * int  (** apply virtual time *)
    | E_commit of Service.request * int * int * int
        (** global shard, slot, commit virtual time *)
    | E_ack of Service.request * Service.result * bool * int
        (** result, dedup, ack virtual time *)

  type t

  val create : groups:int -> shards:int -> ack_interval:int option -> t
  (** [ack_interval]: group mode's commit interval, the boundary a
      fresh (non-dedup) ack is released at; [None] in per-op mode. *)

  val push : t -> int -> ev -> unit
  (** Append to a group's buffer; only that group's domain calls it. *)

  val release : t -> audit:bool -> all:bool -> int -> (ev -> unit) -> unit
  (** [release m ~audit ~all t_bar f] drains every group's buffer,
      recording applies in the shards' histories unless [audit], in
      collection order (for one shard, the order its group pushed
      them), and calls [f]
      on each event due by barrier [t_bar] (every event, with [all]),
      ordered by (effective time, client, seq, apply < commit < ack),
      ties in collection order: events deferred earlier first, then
      group 0's buffer, group 1's, and so on. The rest stays deferred,
      in that order. *)

  val histories : t -> history array
  (** Per global shard, the applies recorded so far, as in
      [report.histories]: a count and a digest, kept as two ints per
      shard, so recording an apply allocates nothing. *)
end

val fences_per_op : report -> float
val flushes_per_op : report -> float
val pp_report : Format.formatter -> report -> unit
