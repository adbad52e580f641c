(* Protocol 2 (Section 4.2): the instrumentation applied inside the
   critical method of an NVTraverse data structure.

     - Flush after every read of a shared variable.
     - Flush after every write/CAS instruction.
     - Fence before every write/CAS on a shared variable.
     - (Fence before return is inserted by the engine, which owns the
       return point of the critical method.)

   The flushes and fences are routed through the persistence policy [P],
   so the same critical-section code erases to the original algorithm
   when [P] is [Persist.Make(M).Volatile].

   Immutable fields need no flush after a read (end of Section 4.2);
   structures express this by reading write-once locations through [M]
   directly rather than through this wrapper. *)

module Make (M : Memory.S) (P : Persist.Make(M).S) :
  Memory.S with type 'a loc = 'a M.loc =
  Policy.Instrument
    (M)
    (struct
      (* Each placement passes its interned site through the {!Guard}
         (suppression, plan elision, attribution). Under [Volatile] the
         instruction is erased before the guard, so volatile runs
         neither tag nor count skips. *)
      let flush_at site l =
        if P.enabled && Guard.admit Flush site then P.flush l

      let fence_at site =
        if P.enabled && Guard.admit Fence site then P.fence ()

      let crit_read_site = Stats.intern "nvt:crit_read"
      let crit_update_site = Stats.intern "nvt:crit_update"
      let crit_flush_site = Stats.intern "nvt:crit_flush"
      let crit_fence_site = Stats.intern "nvt:crit_fence"

      let after_alloc _ = ()
      let after_read l = flush_at crit_read_site l
      let before_update () = fence_at crit_fence_site
      let after_update l = flush_at crit_update_site l
      let flush l = flush_at crit_flush_site l
      let fence () = fence_at crit_fence_site
    end)
