(* Benchmark harness entry point.

   bench/main.exe panels [IDS...] [--full] [--seed N]
                                   figure panels (default: all, quick)
   bench/main.exe experiments      service, recovery, optimizer and
                                   contender experiments with gates

   Running with no command is equivalent to `panels`. The benchmark
   suite under bench/suite is a separate program (bench/suite/run.sh). *)

open Cmdliner

let panel_ids =
  Arg.(value & pos_all string [] & info [] ~docv:"PANEL" ~doc:"Figure ids, e.g. 5a 6g.")

let full =
  Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale sweeps (slower).")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.")

let json =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Also write machine-readable results (BENCH_<command>.json; \
              see EXPERIMENTS.md for the schemas).")

let run_panels ids full seed json =
  let scale = if full then Nvt_harness.Panels.Full else Nvt_harness.Panels.Quick in
  Printf.printf
    "NVTraverse benchmark panels (%s scale). Simulated throughput; see \
     EXPERIMENTS.md for shape comparison against the paper.\n"
    (if full then "full" else "quick");
  let json_path = if json then Some "BENCH_panels.json" else None in
  match Nvt_harness.Panels.run ~seed ?json_path ~scale ids with
  | () -> ()
  | exception Invalid_argument msg ->
    prerr_endline msg;
    exit 2

let panels_cmd =
  Cmd.v (Cmd.info "panels" ~doc:"Regenerate the paper's figure panels")
    Term.(const run_panels $ panel_ids $ full $ seed $ json)

let quick =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Reduced sweep and op count (CI-sized).")

let mutation_report =
  Arg.(
    value
    & opt string "MUTATION_report.json"
    & info [ "report" ] ~docv:"FILE"
        ~doc:"Mutation report (nvtraverse-mutation/2, written by nvtsim \
              mutate) the optimizer's elision plans are derived from.")

let run_experiments quick seed json report =
  Experiments.run
    ?json_path:(if json then Some "BENCH_experiments.json" else None)
    ~quick ~seed ~report_path:report ()

let experiments_cmd =
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Service-level experiments: group commit, checkpointed \
             recovery, the persistence optimizer and the SOFT and \
             detectable contenders, with every gate evaluated once")
    Term.(const run_experiments $ quick $ seed $ json $ mutation_report)

let default = Term.(const run_panels $ panel_ids $ full $ seed $ json)

let () =
  let info =
    Cmd.info "nvtraverse-bench"
      ~doc:"Regenerate the NVTraverse paper's evaluation"
  in
  let cmd = Cmd.group ~default info [ panels_cmd; experiments_cmd ] in
  (* a parse error is a usage error, exit 2 like an unknown panel id *)
  exit
    (match Cmd.eval_value cmd with
    | Ok _ -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
