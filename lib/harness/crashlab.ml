(* The crash laboratory and the one seeded set-run driver.

   A recorded run is a set on a machine, pre-filled and persisted, with
   every operation recorded in a {!History} as invoke -> apply ->
   respond. An era runs the machine; a crash is marked in the history
   and the set recovers. The verdict is durable linearizability of the
   whole history against the keys the prefill put in. The mutation
   battery, the crash tests and the crash-recovery example use this one
   primitive and keep only their own op generators, seeds and crash
   placement.

   [run] is the seeded set-run driver over one {!spec}: the figure
   panels, the experiments' set runs and [nvtsim run] all run their set
   workloads through it, so one spec names one run whichever tool asks
   for it. Each caller keeps its own stream-seed derivation as a spec
   field. *)

module Machine = Nvt_sim.Machine
module History = Nvt_sim.History
module Lin = Nvt_sim.Linearizability
module Stats = Nvt_nvm.Stats
module Optimizer = Nvt_nvm.Optimizer
module Workload = Nvt_workload.Workload

module type SET = Nvt_core.Set_intf.SET

(* One recorded run. The set itself stays behind closures, so callers
   of any structure share one record type. *)
type recorded = {
  machine : Machine.t;
  history : History.t;
  prefilled : int list;  (* the prefill keys that went in *)
  op : History.op -> unit;  (* invoke -> apply -> respond *)
  recover : unit -> unit;
  check_invariants : unit -> unit;
  size : unit -> int;
  to_list : unit -> (int * int) list;
}

(* Create the set on [m], insert [prefill] (keeping the keys that went
   in), persist everything, and open a fresh history. *)
let start (module S : SET) m ~prefill =
  let s = S.create () in
  let prefilled = List.filter (fun k -> S.insert s ~key:k ~value:k) prefill in
  Machine.persist_all m;
  let h = History.create () in
  let op o =
    let e =
      History.invoke h ~tid:(Machine.current_tid m) ~time:(Machine.now m) o
    in
    let r =
      match o with
      | History.Insert k -> S.insert s ~key:k ~value:k
      | History.Delete k -> S.delete s k
      | History.Member k -> S.member s k
    in
    History.respond e ~time:(Machine.now m) r
  in
  { machine = m;
    history = h;
    prefilled;
    op;
    recover = (fun () -> S.recover s);
    check_invariants = (fun () -> S.check_invariants s);
    size = (fun () -> S.size s);
    to_list = (fun () -> S.to_list s) }

(* Run one era to completion or to its crash; a crash is marked in the
   history and the set recovers. Invariants are checked by the caller:
   an invariant walk reads through the simulated caches, so checking
   between eras where a caller did not would move the next era's
   timing. *)
let era r =
  let outcome = Machine.run r.machine in
  (match outcome with
  | Machine.Crashed_at t ->
    History.mark_crash r.history ~time:t;
    r.recover ()
  | Machine.Completed -> ());
  outcome

type verdict =
  | Linearizable
  | Violation of Lin.violation
  | Unchecked of int
      (* the key whose search outgrew the checker's state budget: the
         run checked less than it was asked to *)

let verdict r =
  match Lin.check_set ~initial_keys:r.prefilled r.history with
  | Ok () -> Linearizable
  | Error v -> Violation v
  | exception Lin.Over_budget key -> Unchecked key

(* Spawn [threads] threads of [ops] uniform operations each: a key
   below [range], then insert, delete or member with equal odds. Thread
   [tid] draws from [Random.State.make (seed tid)]. *)
let spawn_uniform r ~threads ~ops ~range ~seed =
  for tid = 0 to threads - 1 do
    let rng = Random.State.make (seed tid) in
    ignore
      (Machine.spawn r.machine (fun () ->
           for _ = 1 to ops do
             let k = Random.State.int rng range in
             r.op
               (match Random.State.int rng 3 with
               | 0 -> History.Insert k
               | 1 -> History.Delete k
               | _ -> History.Member k)
           done))
  done

type spec = {
  set : (module SET);
  threads : int;
  ops : int;
      (* per era, split across the threads: each takes [ops / threads]
         and the first [ops mod threads] one more; a thread with none is
         not spawned *)
  range : int;  (* keys below it; the prefill puts in every other one *)
  mix : Workload.mix;
  seed : int;
  stream_seed : seed:int -> tid:int -> era:int -> int;
      (* thread [tid]'s op-stream seed in [era], from [seed] *)
  cost : Nvt_nvm.Cost_model.t;
  jitter : int;
  eviction : Machine.eviction;
  stall : Machine.stall option;
  plan : Optimizer.plan option;  (* the machine's optimizer plan *)
  crash_steps : int list;  (* one crash per era, in order *)
  trace_capacity : int;  (* 0 = no event trace *)
}

(* The panels' and the experiments' derivation, and [nvtsim run]'s. *)
let thread_streams ~seed ~tid ~era:_ = (seed * 977) + tid
let era_streams ~seed ~tid ~era = seed + (31 * tid) + (977 * era)

let spec set =
  { set;
    threads = 4;
    ops = 400;
    range = 64;
    mix = Workload.default;
    seed = 1;
    stream_seed = era_streams;
    cost = Nvt_nvm.Cost_model.nvram;
    jitter = 0;
    eviction = Machine.No_eviction;
    stall = None;
    plan = None;
    crash_steps = [];
    trace_capacity = 0 }

let history_op = function
  | Workload.Insert k -> History.Insert k
  | Workload.Delete k -> History.Delete k
  | Workload.Lookup k -> History.Member k

(* Each thread's share of [era]'s ops, drawn from its stream up front,
   so a run's threads execute only the set's code and its recording. *)
let streams s ~era =
  Array.init s.threads (fun tid ->
      let n = (s.ops / s.threads) + if tid < s.ops mod s.threads then 1 else 0 in
      let g =
        Workload.gen
          ~seed:(s.stream_seed ~seed:s.seed ~tid ~era)
          ~mix:s.mix ~range:s.range
      in
      Array.init n (fun _ -> history_op (Workload.next g)))

type run = {
  recorded : recorded;
      (* its machine (with the event trace, if the spec asked for one)
         and history, after the last era *)
  stats : Stats.t;
      (* the eras' counters: the prefill excluded, taken before any
         invariant walk *)
  makespan : int;
  steps : int;  (* total simulator steps across all eras *)
  crashes_requested : int;
  crashes_fired : int;
      (* a [crash_steps] entry beyond an era's end never fires: the era
         completes first. Reporting requested vs fired makes that
         visible instead of silently testing less than configured. *)
}

(* One era per crash step, then one that runs to completion. The
   verdict, the invariants and the final size are the caller's to ask
   for: each is a walk a panel run does not pay for. *)
let run s =
  let m =
    Machine.create ~seed:s.seed ~cost:s.cost ~jitter:s.jitter
      ~eviction:s.eviction ?stall:s.stall
      ~optimizer:(Optimizer.of_plan s.plan) ()
  in
  let r = start s.set m ~prefill:(Workload.prefill_keys ~range:s.range) in
  if s.trace_capacity > 0 then Machine.set_trace m ~capacity:s.trace_capacity;
  let before = Stats.copy (Machine.stats m) in
  let spawn_era () =
    Array.iter
      (fun ops ->
        if Array.length ops > 0 then
          ignore (Machine.spawn m (fun () -> Array.iter r.op ops)))
      (streams s ~era:(History.era r.history))
  in
  let fired = ref 0 in
  List.iter
    (fun step ->
      spawn_era ();
      Machine.set_crash_at_step m (Machine.steps m + step);
      match era r with
      | Machine.Crashed_at _ -> incr fired
      | Machine.Completed ->
        (* The era finished before the requested step: the crash never
           fired. Clear it and carry on, but the run will show
           [crashes_fired < crashes_requested]. *)
        Machine.clear_crash m)
    s.crash_steps;
  spawn_era ();
  (match era r with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> assert false);
  { recorded = r;
    stats = Stats.diff ~after:(Machine.stats m) ~before;
    makespan = Machine.makespan m;
    steps = Machine.steps m;
    crashes_requested = List.length s.crash_steps;
    crashes_fired = !fired }
