(** A sharded durable KV front-end over the simulated machine.

    Keys are partitioned over N shards, each an instance of a registry
    structure under a registry persistence policy, driven by one worker
    thread. A request is acknowledged only once its record in the
    shard's redo log ({!Ledger}, written through the same policy's
    memory) is covered by the ledger's one two-fence commit — run per
    operation on the worker, or by a committer thread once per commit
    interval for the whole batch (group persistence). What recovery
    needs of a request is its {!completion}, kept per client: in the
    volatile dedup table, in checkpoints, and in detect mode in durable
    descriptors ({!Descriptors}). With [?checkpoint] set, the thread
    owning each shard's commit index periodically snapshots the shard
    through {!Checkpoint} and drops the covered log prefix. Recovery
    truncates each log to its durable commit index, restores the
    snapshot, replays the remaining committed suffix and rebuilds the
    dedup table, so re-sent acknowledged requests are answered from the
    ledger without being re-applied; recovery cost is O(delta since the
    last checkpoint), and {!spawn_recovery} runs it as parallel
    simulated threads. *)

include module type of struct
  include Types
end
(** The requests, results and records ({!Types}). *)

type mode =
  | Per_op  (** commit (2 fences) on the worker, per request *)
  | Group of { timeout : int }
      (** a committer thread commits accumulated completions under one
          pair of fences at virtual-time multiples of the commit
          interval (default: [timeout]; see [?commit_interval] on
          {!create}). Commit points are a pure function of virtual
          time, so slices of one logical service commit at the same
          global boundaries regardless of how shards are spread over
          domains. *)

val mode_name : mode -> string
(** ["per_op"], or ["group<timeout>"]. *)

type t

val global_shard : shards:int -> int -> int
(** [global_shard ~shards k] is the global shard owning key [k] in a
    service of [shards] shards — a pure function shared by every slice
    and by the parallel runner's request router. *)

val create :
  ?slice:int * int ->
  ?commit_interval:int ->
  ?checkpoint:int ->
  ?detect:bool ->
  structure:(module Nvt_harness.Instances.STRUCTURE) ->
  flavour:Nvt_harness.Instances.flavour ->
  shards:int ->
  mode:mode ->
  unit ->
  t
(** Build the shards and their ledgers on the current machine (call in
    setup mode).

    [slice] is [(group, stride)] with [0 <= group < stride]: build only
    the local instance of a service whose [shards] global shards are
    striped over [stride] domain groups — this instance owns the global
    shards [s] with [s mod stride = group]. The default [(0, 1)] owns
    everything. {!submit} on a key owned by another slice raises.

    [commit_interval] overrides the group committer's virtual-time
    commit boundary (default: the mode's [timeout]); the parallel
    runner passes the interval rounded up to a whole number of merge
    epochs so acknowledgement release times quantize identically for
    every domain count.

    [checkpoint] is the virtual-time checkpoint interval (default 0:
    checkpointing disabled, reproducing the pre-checkpoint service
    exactly). In per-op mode each worker checkpoints its own shard at
    the interval; in group mode the committer checkpoints every local
    shard after a boundary commit — in both cases on the thread that
    owns the commit index.

    [detect] (default [false]) rebuilds the dedup table from durable
    completion descriptors instead of the checkpoint and log replay
    (the replay still rebuilds each shard's store mirror): every commit
    writes each request's completion into its client's round-robin cell
    pair under the batch's existing ledger fence ([svc:desc_flush],
    zero extra fences); recovery counts a descriptor only if its slot
    is below its shard's durable commit index, and durably nulls stale
    ones ([svc:desc_fence]). The exactly-once guarantees are unchanged;
    what detect mode adds is a sound {!op_status} answer of
    [Not_applied] for requests that never committed. *)

(** A shard's mirror: the plain-OCaml model of its committed-prefix
    replay, kept sorted by key so a checkpoint's cut is a copy. Exposed
    for tests. *)
module Mirror : sig
  type t

  val create : unit -> t
  (** An empty mirror. Any int is a key. *)

  val apply : t -> op -> unit
  (** Replay one committed operation: a put adds its pair only if the
      key is absent, a del removes it, a get changes nothing, a
      multi-put is a put per pair in list order, and an rmw adds its
      delta to the value (or sets the delta, if the key is absent). *)

  val find : t -> int -> int option
  val length : t -> int

  val pairs : t -> (int * int) array
  (** The contents in increasing key order. *)

  val chunks : t -> int array array
  (** The checkpoint's cut: the same pairs flat ([\[|k0; v0; k1; v1;
      ...|\]]), {!Checkpoint.chunk} pairs per array. *)
end

(** The dedup table: each client's last completion, in an array indexed
    by client, grown on demand. Exposed for tests. *)
module Dedup : sig
  type t

  val create : unit -> t

  val find : t -> int -> completion
  (** The client's last completion, or {!no_completion} (compared
      physically) if it has none — a negative client has none. *)

  val replace : t -> int -> completion -> unit
  (** Record the client's completion, as a freshly applied request does.
      Raises [Invalid_argument] for a negative client. *)

  val merge : t -> int -> completion -> unit
  (** Record it unless the client's recorded seq is higher: on equal
      seqs the later completion wins, as recovery's rebuild needs. *)

  val reset : t -> unit
  (** Forget every client. *)

  val cut : t -> shard:int -> upto:int -> (int * completion) array
  (** A checkpoint's records: each client whose completion lies on local
      [shard] below slot [upto], in ascending client order. *)
end

val prefill : t -> int list -> unit
(** Load keys (value = key) directly into the shard stores, bypassing
    ledger and hooks; setup mode, follow with
    {!Nvt_sim.Machine.persist_all}. *)

val start : t -> Nvt_sim.Machine.t -> unit
(** Spawn the shard workers (and the committer in group mode). Threads
    exit once {!request_stop} was called and their queues drained. *)

val submit : t -> request -> unit
(** Enqueue a request on its shard's inbox (volatile: submissions not
    yet applied are lost at a crash and must be re-sent). *)

val request_stop : t -> unit

val spawn_recovery : t -> Nvt_sim.Machine.t -> unit
(** After a crash: run the policy's and every shard store's recovery,
    truncate each ledger to its durable commit index (retiring the
    dropped cells), restore the checkpoint snapshot, and rebuild the
    deduplication table from the remaining committed suffix. Each
    shard's pass is spawned as a simulated thread: shards recover
    concurrently and the reads consume virtual time. Drive the machine
    (e.g. {!Nvt_sim.Machine.run} or {!Nvt_sim.Machine.advance_to})
    until it completes — or crashes, in which case calling
    [spawn_recovery] again restarts recovery from the durable state. *)

val set_on_apply : t -> (request -> result -> unit) -> unit
(** Called on the worker after a request was applied to a shard store
    (not for deduplicated re-sends). Test oracle hook. *)

val set_on_ack : t -> (request -> result -> dedup:bool -> unit) -> unit
(** Called when a request is acknowledged: after its commit fence, or
    with [~dedup:true] when a re-sent committed request was answered
    from the ledger. *)

val set_on_commit : t -> (request -> shard:int -> slot:int -> unit) -> unit
(** Called once per batch item when its commit fence completes, with
    the {e local} shard and log slot the request committed at — the
    position a post-crash oracle can hold the durable index against
    (a claim, not evidence: with the commit fence suppressed the call
    still fires, which is exactly what lets the runner catch an
    acknowledgement the durable index never covered). *)

(** {1 Introspection} (quiescent / setup-mode use only) *)

val global_of_local : t -> int -> int
(** The global shard index of local shard [i]: [group + i * stride].
    Inverse of the ownership mapping; the runner uses it to merge
    per-slice logs and histories into global-shard order. *)

val contents : t -> (int * int) list
val check_invariants : t -> unit

val committed_total : t -> int
(** Sum of the shards' commit indices (absolute: includes slots whose
    cells a checkpoint has since truncated away). *)

val checkpoints_taken : t -> int
(** Checkpoints durably committed by this instance since creation. *)

val truncated_slots : t -> int
(** Log slots dropped (and their cells retired) by checkpoints. *)

val op_status :
  t -> client:int -> seq:int -> Nvt_nvm.Detectable.status * result option
(** What this slice can prove about request [(client, seq)] — the
    detectable-recovery query, meaningful at a quiescent point (e.g.
    after recovery): [Completed] iff the request durably committed
    (with its recorded result when it is the client's latest request);
    [Not_applied] — only ever answered in detect mode — iff it never
    committed and its effects were reconciled away, so a re-send is
    safe; [Unknown] otherwise. *)

val replayed_slots : t -> int
(** Committed log entries replayed by this instance's recovery passes
    since creation — the recovery experiment's measure of recovery work:
    with checkpointing on it is bounded by the delta since the last
    checkpoint, without it each pass replays the whole committed
    log. *)

type durable = {
  dv_base : int;  (** the checkpoint's cut; [0] if none committed *)
  dv_pairs : (int * int) list;  (** the snapshot's (key, value) pairs *)
  dv_covered : (int * completion) list;
      (** its dedup records: each client's last completion on the
          shard as of the cut *)
  dv_log : entry list;
      (** the {e retained} committed records from [dv_base] on *)
}

val durable_state : t -> durable array
(** Per local shard, the durable state read back through the ledger:
    what recovery restores and replays, and what the oracle checks. *)

val inject_committed : t -> entry list -> unit
(** Test hook (setup mode): forge entries into the committed log —
    applied to nothing, acknowledged to nobody, but durable, under one
    ledger commit — including duplicate (client, seq) records the
    normal path would dedup. *)
