(* The benchmark suite's command line.

   main.exe suite --workload W [--seed N] [--seconds S] [--trace [0|1]] [-o FILE]
   main.exe compare A.json B.json

   Both read the manifest, BENCHMARK.json, from the working directory:
   it names the metrics of the closing JSON line and the bounds
   [compare] applies. See README.md. *)

open Cmdliner

let manifest = "BENCHMARK.json"

let suite_cmd =
  let workload =
    Arg.(
      required
      & opt (some (enum (List.map (fun n -> (n, n)) Suite.names))) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:
            ("Workload to run: " ^ String.concat ", " Suite.names
           ^ ". Each runs in its own process."))
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Input seed.") in
  let seconds =
    Arg.(
      value & opt float 15.
      & info [ "seconds" ]
          ~doc:"Measure reps until this many seconds have passed (at least 3 reps).")
  in
  let trace =
    Arg.(
      value
      & opt ~vopt:1 int 0
      & info [ "trace" ] ~docv:"0|1"
          ~doc:"Add differential legs, micro-timings and spans; report per-layer \
                metrics.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o" ] ~docv:"FILE"
          ~doc:"Record path (default BENCH_suite_<workload>.json).")
  in
  let run workload seed seconds trace out =
    let ok =
      Suite.run
        { Suite.workload; seed; seconds; trace = trace <> 0; out;
          manifest = Record.manifest manifest }
    in
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "suite" ~doc:"Run one workload and print its metrics")
    Term.(const run $ workload $ seed $ seconds $ trace $ out)

let compare_cmd =
  let file n doc = Arg.(required & pos n (some file) None & info [] ~docv:doc) in
  let run a b =
    let bad =
      Record.compare ~manifest:(Record.manifest manifest) (Record.load a)
        (Record.load b)
    in
    if bad > 0 then begin
      Printf.printf "%d regression(s)\n" bad;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare the end-to-end metrics of two records; exit 1 on a regression")
    Term.(const run $ file 0 "A.json" $ file 1 "B.json")

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "nvtraverse-suite" ~doc:"The NVTraverse benchmark suite")
          [ suite_cmd; compare_cmd ]))
