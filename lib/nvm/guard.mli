(** The one guard in front of every flush and fence an instrumentation
    layer issues, and the per-domain context it reads.

    {!admit} checks suppression ({!Suppress}), then plan elision
    ({!Optimizer}), then tags the pending site ({!Stats}); the caller
    issues the instruction only when it returns [true]. All three live
    in one per-domain context, so a guarded instruction costs one
    domain-local lookup. A CAS is never suppressed or elided; wrappers
    tag theirs with {!Stats.tag}. *)

type suppression = {
  mutable target : Stats.id;  (** the suppressed site; [-1] for none *)
  mutable skipped_flushes : int;
  mutable skipped_fences : int;
}
(** A suppression context ({!Suppress.t}). *)

type plan = { defer : bool; elide : string list }
(** An optimizer plan ({!Optimizer.plan}). *)

type optimizer = {
  mutable plan : plan option;
  mutable elided : bool array;
      (** [plan]'s [elide] list resolved to site ids, once, when the
          plan is installed: [elided.(id)] for ids below its length *)
  mutable coalesced_flushes : int;
  mutable deferred_flushes : int;
  mutable elided_flushes : int;
  mutable elided_fences : int;
}
(** An optimizer context ({!Optimizer.t}). *)

type t = {
  pending : Stats.pending;  (** the domain's own tag cell *)
  mutable suppression : suppression;
  mutable optimizer : optimizer;
}

val no_suppression : unit -> suppression
val no_optimizer : unit -> optimizer

val context : unit -> t
(** The calling domain's context. {!Suppress.use} and {!Optimizer.use}
    swap its records; {!Nvt_sim.Machine.set_current} calls both. *)

type kind = Flush | Fence

val admit : kind -> Stats.id -> bool
(** [admit kind site]: [false] when [site] is suppressed or elided (the
    skip is counted in the installed context), otherwise tag [site] as
    pending and return [true] — the caller must then issue exactly one
    [kind] instruction. Callers whose policy is erased (volatile)
    must not call it: an erased instruction is neither a skip nor a
    tagged access. *)
