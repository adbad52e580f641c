(** The service's exactly-once oracle. Plain OCaml state, so it survives
    simulated crashes, and no machine: every check can be fed by hand.

    It checks that every request is acknowledged exactly once and never
    applied after its acknowledgement; that at every recovered quiescent
    point each acknowledgement lies inside its shard's recovered commit
    extent (and, in detect mode, answers [Completed]); that the final
    store equals a replay of the durable state in which every
    acknowledged request committed exactly once; on crash-free runs,
    that the replay reproduces every result and each request was applied
    once; and, in the audit phase, that every client's last acknowledged
    request re-sent is answered from the ledger, unchanged. *)

type arrivals = {
  a_op : Service.op array;
  a_stamp : int array;  (** client and arrival time, packed by {!stamp} *)
}
(** A run's arrival schedule, one column per field: arrival [i] is an
    [a_op.(i)] sent by client [client_of a_stamp.(i)] at time
    [time_of a_stamp.(i)]. The index [i] is the request's {e arrival
    number}, and its seq is its rank among its client's arrivals: a
    client's first arrival is its seq 0, its next seq 1, and so on. *)

val max_clients : int
(** [2^16]: a client's number must fit the low bits of a stamp. *)

val stamp : client:int -> time:int -> int
(** The stamp of client [client]'s arrival at time [time]. Raises
    [Invalid_argument] naming both unless [client] lies in
    [\[0, max_clients)] and [time] in [\[0, 2^46)] (on 64-bit hosts). *)

val client_of : int -> int

val time_of : int -> int
(** The arrival time, until the oracle records the request's first
    acknowledgement: from then on, its latency. A runner reads an
    arrival's time only before it issues the request. *)

type t

val create : clients:int -> crashes:bool -> arrivals -> t
(** The oracle for a run whose [clients] sessions issue exactly these
    requests; [crashes] says whether the run may crash, so that
    {!check_recovered} applies. It keeps the schedule (shared, not
    copied: each first acknowledgement overwrites its arrival time with
    the latency) and its own per-request state in flat int arrays
    indexed by arrival number: each client's row of arrival numbers in
    seq order, and one word packing the acknowledgement, the apply
    count and the recorded result. With the schedule's two columns,
    four words per request; with [crashes], a fifth holds the commit
    position. Raises [Invalid_argument] if the columns differ in length,
    if [clients] exceeds {!max_clients}, or naming an arrival whose
    client lies outside [\[0, clients)]. *)

val request : t -> int -> Service.request
(** Arrival [i] as the request its client issues. *)

val violations : t -> string list
(** In the order recorded: the first 32, then, if there were more, one
    ["… and N more violations"] entry. Empty iff every check held.
    Events report as they arrive, and each check in the order of the
    passes its documentation names; a pass over requests reports them
    in ascending arrival number. *)

(** {1 Events, in merge order}

    Each event names its request by [~client] and [~seq], and an
    acknowledgement its result by {!result_tag} and {!result_value}:
    the merge barrier keeps its events as int columns and calls these
    without building a request or a result. *)

val note_apply : t -> client:int -> seq:int -> unit

val note_commit : t -> client:int -> seq:int -> shard:int -> slot:int -> unit
(** [shard] is the global shard. Raises [Invalid_argument] for a shard
    outside [\[0, 65536)] or a negative slot. *)

val note_ack :
  t ->
  client:int ->
  seq:int ->
  tag:int ->
  value:int ->
  dedup:bool ->
  time:int ->
  bool
(** [true] iff this is the request's first acknowledgement outside the
    audit phase: its client may issue its next request. Raises
    [Invalid_argument] for a first acknowledgement answering
    [Value (Some v)] with [v] outside [\[-2^57, 2^57)], which its state
    word cannot record, or one whose latency lies outside
    [\[-2^46, 2^46)], which its stamp cannot (on 64-bit hosts). *)

val result_tag : Service.result -> int
(** 0 [Done false], 1 [Done true], 2 [Value None], 3 [Value (Some _)]. *)

val result_value : Service.result -> int
(** [v] for [Value (Some v)], else 0. *)

val result_of : tag:int -> value:int -> Service.result
(** The inverse of the two above. *)

val apply : t -> Service.request -> unit
val commit : t -> Service.request -> shard:int -> slot:int -> unit

val ack :
  t -> Service.request -> Service.result -> dedup:bool -> time:int -> bool
(** The three events above, given a request and a result. *)

(** {1 Checks} *)

val check_recovered :
  t ->
  Service.durable array ->
  status:
    (client:int -> seq:int -> Service.op -> Nvt_nvm.Detectable.status) option ->
  unit
(** At a recovered quiescent point, given each global shard's durable
    state and, in detect mode, the status query. Two passes over the
    acknowledged requests: the commit extent, then the status. Raises
    [Invalid_argument] for an oracle created without [crashes], which
    keeps no commit positions. *)

val check_final :
  t ->
  invariant:string option ->
  crash_free:bool ->
  prefill:int list ->
  durable:Service.durable array ->
  contents:(int * int) list ->
  unit
(** On the final state: the failed structural invariant (if any),
    whether no era crash fired, the prefilled keys, each global shard's
    durable state and the stores' contents. In order: the invariant;
    the durable log entry by entry (an unknown request; on crash-free
    runs, a replay result mismatch); requests committed more than once;
    acknowledged requests no commit vouches for or, crash-free, applied
    other than once; state divergence. *)

val stall : t -> in_recovery:bool -> watchdog:int -> unit
(** The watchdog fired after [watchdog] steps. *)

val stalled : t -> bool
(** A stall outside the audit phase: the final checks and the audit do
    not apply. *)

(** {1 The audit phase} *)

val start_audit : t -> Service.request list
(** Enter the audit phase; returns the re-sends in client order. *)

val auditing : t -> bool

val settled : t -> bool
(** Every request acknowledged — in the audit phase, every re-send
    answered. *)

(** {1 Counts} *)

val acked : t -> int
val applies : t -> int
val dedup_acks : t -> int
val audit_acks : t -> int

val latencies : t -> int array
(** Arrival-to-acknowledgement latencies, in arrival order: the first
    {!acked} entries of the schedule's stamp column, compacted in place,
    not a copy, so a summary may reorder them in place. The stamps are
    gone from then on: call it once, after every other call that reads
    the schedule. *)
