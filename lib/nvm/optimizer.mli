(** Proof-gated persistence optimization.

    A {!plan} names the flush/fence sites that may be skipped for the
    running structure x policy (derived from a committed mutation
    report's candidate-redundant verdicts, never hand-written) and
    switches on deferred boundary persistence. {!Guard.admit} consults
    the installed plan immediately after the {!Suppress} check —
    suppression wins, so the mutation lab's skip counters stay exact
    under an installed plan.

    State lives in a context record installed in the domain's {!Guard}
    context by {!Nvt_sim.Machine.set_current}, mirroring {!Suppress}:
    machines on different domains never observe each other's plan or
    counters.

    Elision is only sound under proof. Every shipped elision list must
    ride with a re-run optimizer-enabled mutation battery (the
    [nvtsim mutate --optimize] gate): the battery refuses sites without
    a committed candidate-redundant verdict, and its control run — the
    optimized configuration against the full crash/stall/eviction
    adversary suite — is the substantive durability evidence. *)

type plan = Guard.plan = {
  defer : bool;
      (** Route boundary flushes through a single drain point and skip
          the boundary fence when the drain is provably empty. *)
  elide : string list;  (** Site names whose flush/fence are skipped. *)
}

val no_opt : plan
(** [{ defer = false; elide = [] }] — a plan that changes nothing;
    useful as a base for records updates. *)

type counters = {
  coalesced_flushes : int;
      (** Same-line duplicates dropped by the engine's boundary dedup
          (counted even with no plan installed — the dedup is an
          unconditional accounting fix). *)
  deferred_flushes : int;  (** Flushes routed through the drain point. *)
  elided_flushes : int;  (** Flushes skipped by the plan's site list. *)
  elided_fences : int;
      (** Fences skipped: planned sites plus empty-drain boundaries. *)
}

type t = Guard.optimizer
(** One optimizer context: the installed plan (its elision list
    resolved to site ids when installed) plus saving counters. *)

val create : unit -> t
(** A fresh context with no plan and zeroed counters. *)

val of_plan : plan option -> t
(** A fresh context with [plan] pre-installed and zeroed counters —
    for harnesses that build one machine per domain and must hand each
    its own context before any worker domain runs. *)

val ambient : unit -> t
(** The calling domain's currently installed context. *)

val use : t -> unit
(** Install a context as the calling domain's ambient one (machines
    carry their context; {!Nvt_sim.Machine.set_current} calls this). *)

(** {1 Operations on the ambient context} *)

val set : plan option -> unit
(** Install (or clear) the plan. Resets the counters. *)

val plan : unit -> plan option
val active : unit -> bool
val defer_on : unit -> bool

val note_coalesced : int -> unit
(** Record [n] same-line duplicate flushes dropped by boundary dedup. *)

val note_deferred : int -> unit
(** Record [n] flushes routed through the deferred drain point. *)

val note_empty_fence : unit -> unit
(** Record one boundary fence skipped by the empty-drain rule. *)

val counters : unit -> counters
(** The ambient context's savings since the last {!set}. *)

val counters_of : t -> counters
(** A context's savings, e.g. a machine's
    ({!Nvt_sim.Machine.optimizer}). *)
