(* The native backend: locations are [Atomic.t] cells, threads are OCaml
   domains. There is no simulated persistence here — flush and fence only
   count, which matches what a deployment on real NVRAM hardware observes
   ([clwb] / [sfence] have no visible effect until the power fails).

   Crash testing therefore lives in the simulator backend ([Sim_nvm]); the
   native backend is the implementation a downstream user runs. *)

type 'a loc = 'a Atomic.t

(* Per-domain counters, registered globally so [stats] can aggregate.
   Each domain's record also holds its pending-tag cell, so a counted
   CAS, flush or fence takes its site with the same lookup that finds
   its counters. *)

type local = { stats : Stats.t; pending : Stats.pending }

let registry : Stats.t list ref = ref []
let registry_lock = Mutex.create ()

let local : local Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s = Stats.zero () in
      Mutex.lock registry_lock;
      registry := s :: !registry;
      Mutex.unlock registry_lock;
      { stats = s; pending = Stats.pending () })

let stats () =
  let total = Stats.zero () in
  Mutex.lock registry_lock;
  List.iter (fun s -> Stats.accumulate ~into:total s) !registry;
  Mutex.unlock registry_lock;
  total

let reset_stats () =
  Mutex.lock registry_lock;
  List.iter Stats.reset !registry;
  Mutex.unlock registry_lock

let alloc v =
  let s = (Domain.DLS.get local).stats in
  s.allocs <- s.allocs + 1;
  Atomic.make v

let read l =
  let s = (Domain.DLS.get local).stats in
  s.reads <- s.reads + 1;
  Atomic.get l

let write l v =
  let s = (Domain.DLS.get local).stats in
  s.writes <- s.writes + 1;
  Atomic.set l v

let cas l ~expected ~desired =
  let d = Domain.DLS.get local in
  let ok = Atomic.compare_and_set l expected desired in
  Stats.record_cas d.stats ~site:(Stats.take_at d.pending) ~ok;
  ok

let flush _l =
  let d = Domain.DLS.get local in
  Stats.record_flush d.stats ~site:(Stats.take_at d.pending)

let fence () =
  let d = Domain.DLS.get local in
  Stats.record_fence d.stats ~site:(Stats.take_at d.pending)
