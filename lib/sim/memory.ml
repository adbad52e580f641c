(* The simulator's persistent-memory backend, satisfying the same
   interface as the native backend so that every structure functor can be
   instantiated over either.

   Operations act on the machine installed by [Machine.create] /
   [Machine.set_current]. Inside [Machine.run] they are charged to and
   interleaved with the running simulated thread; outside a run ("setup
   mode", e.g. pre-filling a structure or running recovery) they execute
   directly and flushes persist immediately. *)

module Stats = Nvt_nvm.Stats

type 'a loc = 'a Machine.cell

let alloc = Machine.alloc
let read = Machine.read
let write = Machine.write
let cas = Machine.cas
let flush = Machine.flush
let fence = Machine.fence

let stats () = Stats.copy (Machine.stats (Machine.get ()))

let reset_stats () = Stats.reset (Machine.stats (Machine.get ()))
