(* Persistence policies.

   Every structure in [lib/structures] is written once, in traversal form,
   against a memory [M] and a persistence policy [P]. Instantiating [P]
   with [Volatile] erases every flush and fence and yields the original
   lock-free algorithm; instantiating it with [Durable] yields the
   NVTraverse data structure of Section 4. *)

module Make (M : Memory.S) = struct
  module type S = sig
    val enabled : bool
    (** Whether flushes are real; lets generic code skip bookkeeping that
        only exists to feed [flush]. *)

    val flush : 'a M.loc -> unit
    val fence : unit -> unit
  end

  module Volatile : S = struct
    let enabled = false
    let flush _ = ()
    let fence () = ()
  end

  module Durable : S = struct
    let enabled = true
    let flush = M.flush
    let fence = M.fence
  end

  (* Site-attributed guarded persistence, for hand-tuned contenders that
     place their own flushes instead of going through the NVTraverse
     engine (SOFT, the detectable-recovery descriptors), and for the
     whole-program wrappers (Izraelevitz, FliT) over [Durable]. Each
     [persist site l] is one flush + fence pair attributed to the
     interned [site] and passed through the same {!Guard} as the
     engine's own placements (suppression, then plan elision) — so the
     contenders' minimality claims are testable with exactly the
     machinery that tested the paper's. Routing through [P] rather than
     [M] makes the [Volatile] instantiation the negative control: the
     whole pair erases, guard and all. *)
  module Sited (P : S) = struct
    let persist site l =
      if P.enabled then begin
        if Guard.admit Flush site then P.flush l;
        if Guard.admit Fence site then P.fence ()
      end
  end
end
