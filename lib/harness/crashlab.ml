(* The crash laboratory: one recorded crash run, and the seeded
   multi-thread workload over it behind [bin/nvtsim.exe].

   A recorded run is a set on a machine the caller made, pre-filled
   and persisted, with every operation recorded in a {!History} as
   invoke -> apply -> respond. An era runs the machine; a crash is
   marked in the history and the set recovers. The verdict is durable
   linearizability of the whole history against the keys the prefill
   put in. The mutation battery, the crash tests and the
   crash-recovery example all use this one primitive and keep only
   their own op generators, seeds and crash placement. *)

module Machine = Nvt_sim.Machine
module History = Nvt_sim.History
module Lin = Nvt_sim.Linearizability
module Workload = Nvt_workload.Workload

module type SET = Nvt_core.Set_intf.SET

type config = {
  seed : int;
  threads : int;
  ops_per_thread : int;
  key_range : int;
  mix : Workload.mix;
  cost : Nvt_nvm.Cost_model.t;
  eviction : Machine.eviction;
  stall : Machine.stall option;
  crash_steps : int list;  (* one crash per era, in order *)
  trace_capacity : int;  (* 0 = no event trace *)
}

let default_config =
  { seed = 1;
    threads = 4;
    ops_per_thread = 100;
    key_range = 64;
    mix = Workload.default;
    cost = Nvt_nvm.Cost_model.nvram;
    eviction = Machine.No_eviction;
    stall = None;
    crash_steps = [];
    trace_capacity = 0 }

type report = {
  history : History.event list;  (* oldest first, across every era *)
  eras : int;
  final_size : int;
  makespan : int;
  steps : int;  (* total simulator steps across all eras *)
  crashes_requested : int;
  crashes_fired : int;
      (* a [crash_steps] entry beyond an era's end never fires: the era
         completes first. Reporting requested vs fired makes that
         visible instead of silently testing less than configured. *)
  stats : Nvt_nvm.Stats.t;
  linearizable : (unit, Lin.violation) result;
  trace : Machine.event list;  (* last [trace_capacity] events *)
  trace_dropped : int;
}

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

let verdict r = Lin.check_set ~initial_keys:r.prefilled r.history

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

let run set (c : config) =
  let m =
    Machine.create ~seed:c.seed ~cost:c.cost ~eviction:c.eviction
      ?stall:c.stall ()
  in
  let r =
    start set m
      ~prefill:
        (List.filter (fun k -> k < c.key_range)
           (Workload.prefill_keys ~range:c.key_range))
  in
  if c.trace_capacity > 0 then Machine.set_trace m ~capacity:c.trace_capacity;
  let spawn_era () =
    for tid = 0 to c.threads - 1 do
      let g =
        Workload.gen
          ~seed:(c.seed + (31 * tid) + (977 * History.era r.history))
          ~mix:c.mix ~range:c.key_range
      in
      ignore
        (Machine.spawn m (fun () ->
             for _ = 1 to c.ops_per_thread do
               r.op
                 (match Workload.next g with
                 | Workload.Insert k -> History.Insert k
                 | Workload.Delete k -> History.Delete k
                 | Workload.Lookup k -> History.Member k)
             done))
    done
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
           fired. Clear it and carry on, but the report will show
           [crashes_fired < crashes_requested]. *)
        Machine.clear_crash m)
    c.crash_steps;
  spawn_era ();
  (match era r with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> assert false);
  r.check_invariants ();
  { history = History.events r.history;
    eras = History.era r.history + 1;
    final_size = r.size ();
    makespan = Machine.makespan m;
    steps = Machine.steps m;
    crashes_requested = List.length c.crash_steps;
    crashes_fired = !fired;
    stats = Machine.stats m;
    linearizable = verdict r;
    trace = Machine.trace m;
    trace_dropped = Machine.trace_dropped m }
