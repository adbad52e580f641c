(* Self-benchmark of the simulator: simulated steps per wall-clock
   second, swept over thread counts and structures.

   Every figure panel's cost is (steps of simulation) x (wall time per
   step), and the second factor is pure harness overhead — the
   scheduler, the dirty-cell tracking, the effect-handler fiber switch.
   This bench pins that factor so scheduler regressions show up in the
   perf trajectory rather than silently inflating CI time. Steps/sec is
   the right metric (not ops/sec): it is what the scheduler rewrite
   changes, and it is comparable across structures whose per-operation
   step counts differ.

   Three panels:
   - [list]: Harris list under the nvt policy, 30% updates — the
     workhorse workload of the figure panels;
   - [hash]: hash table under the nvt policy, 30% updates — near-O(1)
     operations, so more of each step is harness;
   - [evict]: Harris list, write-only mix with the random-eviction
     adversary on — exercises the dirty-set tracking (the crashlab
     configuration).

   The sweep extends past the panels' 1–64 threads to 128 because the
   pre-rewrite scheduler cost O(threads) per step: the top of the sweep
   is where a regression back to linear scanning is unmissable. Each
   configuration reports the best of [reps] runs — the simulator is
   deterministic, so variation is machine noise and the minimum is the
   honest estimate. *)

module Machine = Nvt_sim.Machine
module Cost_model = Nvt_nvm.Cost_model
module I = Nvt_harness.Instances
module Workload = Nvt_workload.Workload
module Json = Nvt_harness.Json

type row = {
  panel : string;
  threads : int;
  steps : int;
  seconds : float;
  steps_per_sec : float;
}

type domain_row = {
  d_panel : string;
  d_domains : int;
  d_threads_per_domain : int;
  d_steps : int;  (* summed over the domains' machines *)
  d_seconds : float;  (* wall clock across the fork/join *)
  d_steps_per_sec : float;
}

type panel = {
  p_name : string;
  p_structure : string;  (* key in the Instances registry *)
  p_update_pct : int;
  p_eviction : float;  (* 0.0 = adversary off *)
}

let panels =
  [ { p_name = "list"; p_structure = "list"; p_update_pct = 30;
      p_eviction = 0.0 };
    { p_name = "hash"; p_structure = "hash"; p_update_pct = 30;
      p_eviction = 0.0 };
    { p_name = "evict"; p_structure = "list"; p_update_pct = 100;
      p_eviction = 0.05 } ]

let structure key =
  match List.assoc_opt key I.structures with
  | Some s -> s
  | None -> invalid_arg ("selfperf: unknown structure " ^ key)

let nvt_policy =
  match I.flavour "nvt" with
  | Some f -> f.I.policy
  | None -> invalid_arg "selfperf: nvt policy missing from registry"

(* One measured run: prefill, spawn, time Machine.run. Returns (steps,
   wall seconds). *)
let measure ~seed ~range ~total_ops (p : panel) ~threads =
  let module S = (val I.instantiate (structure p.p_structure) nvt_policy) in
  let eviction =
    if p.p_eviction > 0.0 then Machine.Random_eviction p.p_eviction
    else Machine.No_eviction
  in
  let m = Machine.create ~seed ~cost:Cost_model.nvram ~eviction ~jitter:2 () in
  let s = S.create () in
  List.iter
    (fun k -> if k < range then ignore (S.insert s ~key:k ~value:k))
    (Workload.prefill_keys ~range);
  Machine.persist_all m;
  let base = total_ops / threads in
  let rem = total_ops mod threads in
  let mix = Workload.updates ~pct:p.p_update_pct in
  for tid = 0 to threads - 1 do
    let per_thread = base + if tid < rem then 1 else 0 in
    let g = Workload.gen ~seed:((seed * 977) + tid) ~mix ~range in
    if per_thread > 0 then
      ignore
        (Machine.spawn m (fun () ->
             for _ = 1 to per_thread do
               match Workload.next g with
               | Workload.Insert k -> ignore (S.insert s ~key:k ~value:k)
               | Workload.Delete k -> ignore (S.delete s k)
               | Workload.Lookup k -> ignore (S.member s k)
             done))
  done;
  let t0 = Unix.gettimeofday () in
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> assert false);
  let dt = Unix.gettimeofday () -. t0 in
  (Machine.steps m, dt)

(* Domain-scaling series: D independent simulations (the parallel
   runner's shape — one machine per domain, no sharing) forked over a
   {!Nvt_sim.Domain_pool}, wall-clocked across the join. Work grows
   with D (each domain simulates its own full workload), so perfect
   scaling is a flat wall clock: steps/sec growing ~D-fold. On a
   machine with fewer cores than D the series degrades to flat
   steps/sec and D-fold wall time — the honest single-core outcome. *)
let measure_domains (p : panel) ~seed ~range ~total_ops ~domains
    ~threads_per_domain =
  let pool = Nvt_sim.Domain_pool.create domains in
  let steps = Array.make domains 0 in
  Fun.protect
    ~finally:(fun () -> Nvt_sim.Domain_pool.shutdown pool)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      Nvt_sim.Domain_pool.run pool (fun d ->
          let s, _ =
            measure ~seed:(seed + (101 * d)) ~range ~total_ops p
              ~threads:threads_per_domain
          in
          steps.(d) <- s);
      let dt = Unix.gettimeofday () -. t0 in
      (Array.fold_left ( + ) 0 steps, dt))

let run ?json_path ?(quick = false) ?(seed = 1) () =
  let thread_counts =
    if quick then [ 1; 8; 32; 64 ]
    else [ 1; 2; 4; 8; 16; 32; 48; 64; 96; 128 ]
  in
  let total_ops = if quick then 6_000 else 40_000 in
  let reps = if quick then 1 else 3 in
  let range = 256 in
  Printf.printf
    "simulator self-benchmark (%s): simulated steps per wall second\n\
     %-8s %8s %12s %10s %14s\n"
    (if quick then "quick" else "full")
    "panel" "threads" "steps" "seconds" "steps/sec";
  let rows =
    List.concat_map
      (fun p ->
        List.map
          (fun threads ->
            let best = ref None in
            for _ = 1 to reps do
              let steps, dt = measure ~seed ~range ~total_ops p ~threads in
              match !best with
              | Some (_, dt') when dt' <= dt -> ()
              | _ -> best := Some (steps, dt)
            done;
            let steps, seconds = Option.get !best in
            let steps_per_sec = float_of_int steps /. seconds in
            Printf.printf "%-8s %8d %12d %10.3f %14.3e\n%!" p.p_name threads
              steps seconds steps_per_sec;
            { panel = p.p_name; threads; steps; seconds; steps_per_sec })
          thread_counts)
      panels
  in
  let domain_counts = if quick then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ] in
  let threads_per_domain = 32 in
  let dpanel = List.hd panels in
  Printf.printf "%-8s %8s %12s %10s %14s\n" "panel" "domains" "steps"
    "seconds" "steps/sec";
  let domain_rows =
    List.map
      (fun domains ->
        let d_steps, d_seconds =
          measure_domains dpanel ~seed ~range ~total_ops ~domains
            ~threads_per_domain
        in
        let d_steps_per_sec = float_of_int d_steps /. d_seconds in
        Printf.printf "%-8s %8d %12d %10.3f %14.3e\n%!" dpanel.p_name domains
          d_steps d_seconds d_steps_per_sec;
        { d_panel = dpanel.p_name;
          d_domains = domains;
          d_threads_per_domain = threads_per_domain;
          d_steps;
          d_seconds;
          d_steps_per_sec })
      domain_counts
  in
  (match json_path with
  | None -> ()
  | Some path ->
    let covers (p : panel) =
      List.filter_map
        (fun r -> if r.panel = p.p_name then Some r.threads else None)
        rows
      = thread_counts
    in
    let problems =
      List.filter_map
        (fun (bad, problem) -> if bad then Some problem else None)
        [ ( not (List.for_all covers panels),
            "a panel does not cover the thread sweep" );
          ( List.exists (fun r -> r.steps <= 0 || r.seconds <= 0.) rows,
            "a thread row ran no steps or took no time" );
          ( List.exists
              (fun r -> r.d_steps <= 0 || r.d_seconds <= 0.)
              domain_rows,
            "a domain row ran no steps or took no time" );
          ( not (List.exists (fun r -> r.d_domains = 1) domain_rows),
            "the domain sweep has no domains=1 baseline" ) ]
    in
    if problems <> [] then begin
      List.iter (Printf.eprintf "selfperf: %s\n") problems;
      Printf.eprintf "selfperf: %s not written\n" path;
      exit 1
    end;
    let json =
      Json.Obj
        [ ("schema", Json.Str "nvtraverse-selfperf/2");
          ("quick", Json.Bool quick);
          ("seed", Json.Int seed);
          ("total_ops", Json.Int total_ops);
          ("range", Json.Int range);
          ("reps", Json.Int reps);
          ( "panels",
            Json.List
              (List.map
                 (fun (p : panel) ->
                   Json.Obj
                     [ ("panel", Json.Str p.p_name);
                       ("structure", Json.Str p.p_structure);
                       ("policy", Json.Str "nvt");
                       ("update_pct", Json.Int p.p_update_pct);
                       ("eviction", Json.Float p.p_eviction) ])
                 panels) );
          ( "rows",
            Json.List
              (List.map
                 (fun r ->
                   Json.Obj
                     [ ("panel", Json.Str r.panel);
                       ("threads", Json.Int r.threads);
                       ("steps", Json.Int r.steps);
                       ("seconds", Json.Float r.seconds);
                       ("steps_per_sec", Json.Float r.steps_per_sec) ])
                 rows) );
          ( "domain_rows",
            Json.List
              (List.map
                 (fun r ->
                   Json.Obj
                     [ ("panel", Json.Str r.d_panel);
                       ("domains", Json.Int r.d_domains);
                       ( "threads_per_domain",
                         Json.Int r.d_threads_per_domain );
                       ("steps", Json.Int r.d_steps);
                       ("seconds", Json.Float r.d_seconds);
                       ("steps_per_sec", Json.Float r.d_steps_per_sec) ])
                 domain_rows) ) ]
    in
    Json.write_file path json;
    Printf.printf "wrote %s\n%!" path)
