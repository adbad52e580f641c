(** Per-site suppression of persistence instructions.

    The mutation harness ({!Nvt_harness.Mutlab} in the harness library)
    classifies every attributed flush/fence site as necessary or
    candidate-redundant by re-running a crash battery with exactly one
    site disabled. This module is the switch: every instrumentation
    layer passes its flushes and fences through {!Guard.admit}, which
    skips the instruction (and counts the skip) when its site is the
    suppressed one.

    Suppression state lives in a context record, not a global: each
    domain has its own ambient context (fresh by default), and
    {!Nvt_sim.Machine.set_current} installs the machine's context, so
    machines on different domains — or interleaved machines with
    explicit contexts on one domain — never observe each other's
    suppression or skip counters.

    Only flushes and fences are suppressible; CAS instructions belong to
    the concurrent algorithm, not the persistence discipline, and are
    never elided. *)

type t = Guard.suppression
(** One suppression context: the suppressed site (if any, as an
    interned id) and the skip counters accumulated since the last
    {!set}. *)

val create : unit -> t
(** A fresh context with nothing suppressed. *)

val ambient : unit -> t
(** The calling domain's currently installed context. Every domain
    starts with its own fresh context. *)

val use : t -> unit
(** Install a context as the calling domain's ambient one. Machines
    carry their context and {!Nvt_sim.Machine.set_current} calls this,
    so explicit use is only needed in tests that juggle contexts. *)

(** {1 Operations on the ambient context} *)

val set : string option -> unit
(** Suppress the given site (or none), interning its name. Resets the
    skip counters. *)

val site : unit -> string option
(** The currently suppressed site, if any. *)

val skipped : unit -> int * int
(** [(flushes, fences)] skipped since the last {!set} — the measured
    instruction delta of the suppressed site. *)
