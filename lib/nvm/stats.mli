(** Operation counters for a persistent-memory backend.

    Backends count shared-memory and persistence instructions so that the
    benchmark harness can report flush/fence mixes per operation — the
    quantity the paper's analysis is built on.

    Flushes, fences and CAS are additionally attributed to named
    {e sites} (e.g. ["nvt:make_persistent"], ["izr:load"],
    ["flit:racy_read"]). A site is an interned {!id}: an instrumentation
    layer interns its names once ({!intern}, when its module or functor
    is applied) and tags the very next counted access with the id —
    flushes and fences through {!Guard.admit}, CAS through {!tag}.
    Untagged accesses land on {!app}. Every counted flush/fence/CAS goes
    to exactly one site, so the site table always sums to the aggregate
    counters. *)

type site = {
  mutable s_flushes : int;
  mutable s_fences : int;
  mutable s_cas : int;  (** CAS attempts, successful or not *)
}

type id = int
(** An interned site name. *)

type t = {
  mutable reads : int;
  mutable writes : int;
  mutable cas : int;  (** CAS attempts, successful or not *)
  mutable cas_failures : int;
  mutable flushes : int;
  mutable fences : int;
  mutable allocs : int;
  mutable by_site : site array;
      (** per-site counters, indexed by {!id}; grown on demand *)
}

val zero : unit -> t
(** A fresh counter record with all fields zero and no sites. *)

val copy : t -> t

val reset : t -> unit

val accumulate : into:t -> t -> unit
(** [accumulate ~into t] adds every field (and site) of [t] into
    [into]. *)

val diff : after:t -> before:t -> t
(** Field-wise (and site-wise) subtraction, for measuring a window of
    execution. *)

(** {1 Site registry}

    Append-only and process-wide. Any domain may intern: writers take a
    mutex, readers see an immutable snapshot held in an [Atomic], so ids
    agree across domains whatever order the names arrive in. *)

val intern : string -> id
(** The id of a site name, registering it on first use. Idempotent. *)

val name : id -> string

val app_site : string
(** The default site, ["app"]: the algorithm's own shared accesses. *)

val app : id
(** [intern app_site]. *)

(** {1 The pending tag}

    The pending tag is per-domain and consumed by the next counted
    flush/fence/CAS in the same synchronous call chain. A wrapper must
    set it immediately before each access it claims; a wrapper whose
    access may be elided (a clean-line flush, an erased policy) must
    {!clear_site} instead so the tag cannot leak onto an unrelated
    later access. *)

type pending
(** One domain's pending-tag cell. *)

val pending : unit -> pending
(** The calling domain's cell. Per-domain state created on a domain
    (the instrumentation context, the simulator's current-machine slot,
    the native backend's counters) holds its domain's cell, so hot
    paths tag and take without a second domain-local lookup. *)

val tag_at : pending -> id -> unit
val take_at : pending -> id

val tag : id -> unit
(** Tag the next counted flush/fence/CAS on this domain. *)

val set_site : string -> unit
(** [tag (intern name)]: the by-name entry point, for benchmarks and
    tests. Instrumentation layers tag by id. *)

val clear_site : unit -> unit
(** Drop any pending tag (back to {!app}). *)

val take_site : unit -> id
(** Consume and return the pending tag (backends call this exactly once
    per counted flush/fence/CAS). *)

(** {1 Counting} *)

val record_flush : t -> site:id -> unit
val record_fence : t -> site:id -> unit

val record_cas : t -> site:id -> ok:bool -> unit
(** Count one CAS attempt (a failure too when [not ok]) under [site]. *)

val sites : t -> (string * site) list
(** All sites with at least one counted access, heaviest first (ties by
    name). *)

val pp : Format.formatter -> t -> unit

val pp_sites : Format.formatter -> t -> unit
(** One line per site: flushes, fences, CAS. *)
