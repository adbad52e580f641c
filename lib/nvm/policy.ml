(* The persistence-policy layer.

   The paper's central observation is that durability instrumentation can
   be factored out of the algorithm: NVTraverse, the Izraelevitz et al.
   transformation, link-and-persist and FliT are all *memory wrappers*
   over the same volatile structure. This module makes that factoring a
   first-class interface. A policy is:

   - metadata (name, one-line summary, whether it is durable, and a
     description of its per-operation flush discipline), and
   - an [Apply] functor that, given a backend [M], yields the memory
     [Mem] the structure's loads and stores should run against, the
     [Persist] policy the NVTraverse engine should inject (erased for
     wrappers that carry their own instrumentation), and a policy-level
     [recover] hook run after a crash before the structure's own
     recovery.

   Adding a policy means implementing [S] and adding one entry to
   [Nvt_harness.Instances.flavours]; every panel, the crash laboratory,
   the nvtsim CLI and the crash-sweep test suites iterate that registry.

   Two instrumentation skeletons are shared by the concrete policies so
   that each wrapper states only its flush discipline, not another copy
   of the read/write/CAS plumbing:

   - [Instrument]: same-representation wrappers (Izraelevitz,
     Protocol 2) that add actions around each access;
   - [tagged] + [Tagged_word]: changed-representation wrappers
     (link-and-persist's clean bit, FliT's pending counter) that pair
     every stored value with a volatile tag and need the tag-tolerant
     CAS.

   Every flush, fence and CAS a wrapper issues is attributed to a named
   site, interned once when the wrapper's functor is applied
   ([Stats.intern]). Flushes and fences go through the one guard
   ([Guard.admit]: suppression, plan elision, then the pending tag);
   a CAS is only tagged ([Stats.tag]) immediately before the access.
   The site naming convention is [<policy>:<point>], e.g. [izr:load],
   [lp:mark_clean], [flit:racy_read], and the engine's own placements
   are [nvt:*] (see [Nvt_core.Traversal.nvt_sites]). *)

module type S = sig
  val name : string
  (** Registry key, e.g. ["izraelevitz"]. *)

  val summary : string
  (** One-line description for CLIs and docs. *)

  val durable : bool
  (** Whether the policy makes structures durably linearizable. The
      crash-injection suites sweep exactly the durable policies (the
      volatile policy is *expected* to lose data). *)

  val discipline : string
  (** The per-operation flush discipline, in a sentence. *)

  module Apply (M : Memory.S) : sig
    module Mem : Memory.S
    (** The memory the structure's shared accesses run against. *)

    module P : Persist.Make(Mem).S
    (** The persistence policy the NVTraverse engine injects on top of
        [Mem] ([Volatile] when the wrapper self-instruments). *)

    val recover : unit -> unit
    (** Policy-level recovery, run after a crash before the structure's
        own [recover]. *)
  end
end

(* ------------------------------------------------------------------ *)
(* Skeleton 1: same-representation instrumentation                     *)
(* ------------------------------------------------------------------ *)

(* A wrapper that keeps ['a M.loc] and only adds actions around each
   access. [flush]/[fence] are what the wrapper *exports* (the engine's
   instrumentation points), not necessarily [M]'s. *)
module Instrument
    (M : Memory.S) (D : sig
      val after_alloc : 'a M.loc -> unit
      val after_read : 'a M.loc -> unit
      val before_update : unit -> unit
      val after_update : 'a M.loc -> unit
      val flush : 'a M.loc -> unit
      val fence : unit -> unit
    end) : Memory.S with type 'a loc = 'a M.loc = struct
  type 'a loc = 'a M.loc

  type any = Any : 'a loc -> any

  let alloc v =
    let l = M.alloc v in
    D.after_alloc l;
    l

  let read l =
    let v = M.read l in
    D.after_read l;
    v

  let write l v =
    D.before_update ();
    M.write l v;
    D.after_update l

  let cas l ~expected ~desired =
    D.before_update ();
    let ok = M.cas l ~expected ~desired in
    D.after_update l;
    ok

  let flush = D.flush
  let fence = D.fence
  let flush_any (Any l) = flush l
end

(* ------------------------------------------------------------------ *)
(* Skeleton 2: tagged words                                            *)
(* ------------------------------------------------------------------ *)

type ('a, 't) tagged = { v : 'a; tag : 't }
(** A stored value paired with a volatile per-location tag:
    link-and-persist's clean bit, FliT's pending-writer counter. *)

module Tagged_word (M : Memory.S) = struct
  let read l = (M.read l).v

  (* CAS on the value while the tag can flip concurrently under us (a
     racing flusher or writer protocol touching only the tag), which
     would fail a naive CAS even though the value is unchanged;
     re-examine and retry in that case. [retag] maps the tag observed to
     the tag the new value is installed with. [site] attributes every
     underlying CAS attempt (including retries) to the wrapper's
     instrumentation point; pass [Stats.app] when the CAS stands in
     1:1 for the algorithm's own CAS. *)
  let rec cas l ~site ~retag ~expected ~desired =
    let c = M.read l in
    if c.v != expected then false
    else begin
      if site <> Stats.app then Stats.tag site;
      if M.cas l ~expected:c ~desired:{ v = desired; tag = retag c.tag }
      then true
      else
        let c' = M.read l in
        if c' != c && c'.v == expected then cas l ~site ~retag ~expected ~desired
        else false
    end
end

(* ------------------------------------------------------------------ *)
(* The two identity-memory policies                                    *)
(* ------------------------------------------------------------------ *)

(* The original volatile lock-free algorithm: identity memory, every
   injected flush and fence erased. *)
module Volatile : S = struct
  let name = "volatile"
  let summary = "the original volatile lock-free algorithm (not durable)"
  let durable = false
  let discipline = "no flushes or fences at all"

  module Apply (M : Memory.S) = struct
    module Mem = M
    module Persist_m = Persist.Make (M)
    module P = Persist_m.Volatile

    let recover () = ()
  end
end

(* The paper's transformation: identity memory, with the engine
   injecting ensureReachable/makePersistent between traverse and
   critical, Protocol 2 inside critical, and a fence before return. *)
module Nvtraverse : S = struct
  let name = "nvt"
  let summary = "NVTraverse: persist the destination, not the journey"
  let durable = true

  let discipline =
    "nothing during traversal; ensureReachable + makePersistent at the \
     traversal/critical boundary; flush per shared access and fence per \
     update inside critical; fence before return"

  module Apply (M : Memory.S) = struct
    module Mem = M
    module Persist_m = Persist.Make (M)
    module P = Persist_m.Durable

    let recover () = ()
  end
end
