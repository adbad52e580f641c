(** The native backend: [Atomic.t]-based locations usable from multiple
    domains. Flush and fence are counted but have no semantic effect —
    which is also true on real hardware until the power fails. Crash
    semantics are exercised through the simulator backend instead. *)

include Memory.BACKEND
