(* A reusable crash-injection laboratory: run a seeded multi-thread
   workload on any set structure over the simulator, optionally crash
   and recover (possibly several times), record the full history, and
   check durable linearizability. This is the engine behind
   [bin/nvtsim.exe] and mirrors what the test suites do. *)

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

let run (module S : SET) (c : config) =
  let m =
    Machine.create ~seed:c.seed ~cost:c.cost ~eviction:c.eviction
      ?stall:c.stall ()
  in
  let s = S.create () in
  let prefilled =
    List.filter
      (fun k -> S.insert s ~key:k ~value:k)
      (List.filter (fun k -> k < c.key_range)
         (Workload.prefill_keys ~range:c.key_range))
  in
  Machine.persist_all m;
  if c.trace_capacity > 0 then Machine.set_trace m ~capacity:c.trace_capacity;
  let h = History.create () in
  let fired = ref 0 in
  let spawn_era () =
    for tid = 0 to c.threads - 1 do
      let g =
        Workload.gen
          ~seed:(c.seed + (31 * tid) + (977 * History.era h))
          ~mix:c.mix ~range:c.key_range
      in
      ignore
        (Machine.spawn m (fun () ->
             for _ = 1 to c.ops_per_thread do
               let record op f =
                 let e =
                   History.invoke h ~tid:(Machine.current_tid m)
                     ~time:(Machine.now m) op
                 in
                 let r = f () in
                 History.respond e ~time:(Machine.now m) r
               in
               match Workload.next g with
               | Workload.Insert k ->
                 record (History.Insert k) (fun () ->
                     S.insert s ~key:k ~value:k)
               | Workload.Delete k ->
                 record (History.Delete k) (fun () -> S.delete s k)
               | Workload.Lookup k ->
                 record (History.Member k) (fun () -> S.member s k)
             done))
    done
  in
  let rec eras = function
    | [] -> (
      spawn_era ();
      match Machine.run m with
      | Machine.Completed -> ()
      | Machine.Crashed_at _ -> assert false)
    | step :: rest -> (
      spawn_era ();
      Machine.set_crash_at_step m (Machine.steps m + step);
      match Machine.run m with
      | Machine.Crashed_at t ->
        incr fired;
        History.mark_crash h ~time:t;
        S.recover s;
        eras rest
      | Machine.Completed ->
        (* The era finished before the requested step: the crash never
           fired. Clear it and carry on, but the report will show
           [crashes_fired < crashes_requested]. *)
        Machine.clear_crash m;
        eras rest)
  in
  eras c.crash_steps;
  S.check_invariants s;
  { history = History.events h;
    eras = History.era h + 1;
    final_size = S.size s;
    makespan = Machine.makespan m;
    steps = Machine.steps m;
    crashes_requested = List.length c.crash_steps;
    crashes_fired = !fired;
    stats = Machine.stats m;
    linearizable = Lin.check_set ~initial_keys:prefilled h;
    trace = Machine.trace m;
    trace_dropped = Machine.trace_dropped m }

(* Registry-driven runs: the same config under every policy of
   [Instances.flavours] for one structure. Configs that crash restrict
   to durable policies by default — the volatile flavour legitimately
   loses data at a crash. [key] is the structure's registry key, which
   flavours resolve their structure variants and support against; an
   anonymous structure (no key) skips the flavours restricted to
   specific structures (SOFT) and applies the structure-independent
   wrappers (detectable descriptors). *)
let run_policies ?(durable_only = true) ?(key = "")
    (module Str : Instances.STRUCTURE) (c : config) =
  let fls =
    if durable_only then Instances.durable_flavours else Instances.flavours
  in
  List.filter_map
    (fun (f : Instances.flavour) ->
      let supported =
        if key = "" then f.only = None else Instances.supports f key
      in
      if not supported then None
      else Some (f.key, run (Instances.instantiate_flavour f key (module Str)) c))
    fls

let run_structure ?durable_only name (c : config) =
  match List.assoc_opt name Instances.structures with
  | None -> invalid_arg (Printf.sprintf "crashlab: unknown structure %S" name)
  | Some str -> run_policies ?durable_only ~key:name str c
