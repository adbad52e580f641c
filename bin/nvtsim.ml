(* nvtsim — a crash laboratory for durable data structures.

   [nvtsim run] (the default command) runs a seeded workload on a
   chosen structure and persistence policy over the simulated NVRAM
   machine, with optional crash injection, then reports throughput,
   instruction mix, and the durable-linearizability verdict. The
   structure/policy matrix is the registry in [Nvt_harness.Instances]
   (plus the OneFile PTM set, which brings its own persistence).
   [nvtsim serve] drives the sharded durable service front-end
   ([Nvt_service]) under an open-loop request stream with crash
   injection and an exactly-once oracle. Examples:

     nvtsim --structure list --policy volatile --crash 300
     nvtsim run --structure bst-nm --threads 8 --updates 50 --crash 200
     nvtsim run --structure hash --policy all --crash 250
     nvtsim serve --timeout 2000 --crash 2000 --crash 3000
     nvtsim serve --policy flit --shards 8 --skew 1.2 --timeout 0

   Exit status: 0 only for a fully clean run; 1 for any durability
   violation, corrupt read, failed recovery/invariant, exactly-once
   violation, a requested crash that never fired or a history whose
   linearizability search on one key needs more states than the
   checker's budget (the run checked less than it was asked to); 2 for
   any usage error, before anything
   runs. Each flag's range is part of its converter, so an unknown
   name, a malformed number and a value out of range are all parse
   errors that name the flag and the value; the few checks that span
   flags are [usage] calls. CI relies on this to distinguish a clean
   run from a printed violation. *)

open Cmdliner
module H = Nvt_harness
module I = Nvt_harness.Instances
module Machine = Nvt_sim.Machine
module Cost_model = Nvt_nvm.Cost_model

module type SET = Nvt_core.Set_intf.SET

(* A usage error that spans flags: reported, then exit 2. *)
let usage fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

(* [base] restricted to the values [ok] accepts, [expected] naming them.
   Each range is the one the run needs: a zero thread, op or request
   count passes vacuously, a negative checkpoint interval or commit
   timeout silently disables it, a percentage out of range saturates
   the op mix, a stall probability of 1 never lets the run finish, and
   a negative or non-finite skew silently draws uniform or single keys. *)
let bounded expected ok base =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when not (ok v) ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer base)

let at_least n =
  bounded (Printf.sprintf "an integer >= %d" n) (fun v -> v >= n) Arg.int

let percent =
  bounded "an integer in [0, 100]" (fun v -> v >= 0 && v <= 100) Arg.int

let probability =
  bounded "a number in [0, 1]" (fun p -> p >= 0.0 && p <= 1.0) Arg.float

let below_one =
  bounded "a number in [0, 1)" (fun p -> p >= 0.0 && p < 1.0) Arg.float

let finite_nonneg =
  bounded "a finite number >= 0" (fun x -> Float.is_finite x && x >= 0.0)
    Arg.float

(* An integer option whose least value is [least]. *)
let count ?(least = 1) ?docv names default doc =
  Arg.(value & opt (at_least least) default & info names ?docv ~doc)

let keyed l = Arg.enum (List.map (fun n -> (n, n)) l)
let structure_names = List.map fst I.structures
let flavour_keys = List.map (fun (f : I.flavour) -> f.key) I.flavours

let structures : (string * (string * (module SET)) list) list =
  I.table () @ [ ("onefile", [ ("nvt", (module I.Onefile_set)) ]) ]

let structure =
  let names = List.map fst structures in
  Arg.(
    value
    & opt (keyed names) "list"
    & info [ "structure"; "s" ]
        ~doc:(Printf.sprintf "Structure: %s." (String.concat ", " names)))

let policy_doc =
  String.concat "; "
    (List.map
       (fun (f : I.flavour) ->
         let (module Pol : I.POLICY) = f.policy in
         Printf.sprintf "$(b,%s) (%s)" f.key Pol.summary)
       I.flavours)

let policy =
  Arg.(
    value
    & opt (keyed (flavour_keys @ [ "all" ])) "nvt"
    & info [ "policy"; "p" ]
        ~doc:
          (Printf.sprintf
             "Persistence policy: %s; or $(b,all) to run every policy the \
              structure supports."
             policy_doc))

let threads = count [ "threads"; "t" ] 4 "Threads."
let ops = count [ "ops" ] 100 "Ops per thread."
let range = count [ "range" ] 64 "Key range."
let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Seed.")

let updates =
  Arg.(
    value & opt percent 20 & info [ "updates"; "u" ] ~doc:"Update percentage.")

let eviction =
  Arg.(
    value & opt probability 0.0
    & info [ "eviction" ]
        ~doc:"Random-eviction probability per step, in [0, 1].")
  |> Term.map (fun p ->
         if p > 0.0 then Machine.Random_eviction p else Machine.No_eviction)

let stall =
  Arg.(
    value & opt below_one 0.0
    & info [ "stall" ] ~doc:"Thread-stall probability per step, in [0, 1).")
  |> Term.map (fun p ->
         if p > 0.0 then Some { Machine.probability = p; max_units = 20_000 }
         else None)

let crashes =
  Arg.(
    value & opt_all (at_least 0) []
    & info [ "crash" ] ~docv:"STEPS"
        ~doc:"Crash this many steps into an era (repeatable; each crash \
              is followed by recovery and a fresh era).")

let cost =
  let dram = Arg.info [ "dram" ] ~doc:"Use the DRAM cost profile." in
  Arg.(value & vflag Cost_model.nvram [ (Cost_model.dram, dram) ])

let trace_cap =
  count ~least:0 [ "trace" ] 0 ~docv:"N"
    "Record the last $(docv) machine events (writes, flushes, fences, \
     evictions, crashes) and print them in the report."

let optimize_arg =
  Arg.(
    value
    & opt ~vopt:(Some "MUTATION_report.json") (some string) None
    & info [ "optimize" ] ~docv:"REPORT"
        ~doc:
          "Run under the proof-gated persistence optimizer: derive each \
           structure x policy elision plan from $(docv) (a committed \
           nvtraverse-mutation/2 report; plain $(b,--optimize) reads \
           $(b,MUTATION_report.json)) and enable deferred boundary \
           persistence. Only sites the report marks candidate-redundant \
           are ever elided.")

(* A missing, malformed, stale or inconsistent report is a usage error
   (exit 2), not a crash; it is checked before any plan is derived. *)
let load_report ?(code = 2) path =
  match H.Mutlab.load_report path with
  | Ok j -> j
  | Error msg ->
    Printf.eprintf "%s: %s\n" path msg;
    exit code

let pp_plan structure policy (p : Nvt_nvm.Optimizer.plan) =
  Printf.printf "optimizer:  plan for %s/%s: defer on%s\n" structure policy
    (match p.Nvt_nvm.Optimizer.elide with
    | [] -> ", nothing elided"
    | sites -> ", eliding " ^ String.concat ", " sites)

let pp_savings optimizer =
  let s = Nvt_nvm.Optimizer.counters_of optimizer in
  Printf.printf
    "optimizer:  %d flushes coalesced, %d deferred, %d elided; %d fences \
     elided\n"
    s.Nvt_nvm.Optimizer.coalesced_flushes s.deferred_flushes s.elided_flushes
    s.elided_fences

let pp_steps steps = String.concat ", " (List.map string_of_int steps)

(* The run's verdict, printed last: true iff clean. The counters are
   the machine's whole, the prefill and the closing invariant and size
   walks included; [trace] is the machine's before the size walk. *)
let report s_name p_name crash_steps (r : H.Crashlab.run) ~trace ~final_size
    =
  let h = r.recorded.history in
  let ops = Nvt_sim.History.length h in
  let stats = Machine.stats r.recorded.machine in
  Printf.printf "structure:  %s (%s)\n" s_name p_name;
  Printf.printf "operations: %d across %d era(s)\n" ops
    (Nvt_sim.History.era h + 1);
  Printf.printf "final size: %d keys\n" final_size;
  Printf.printf "makespan:   %d simulated ns (%.3f Mops/s)\n" r.makespan
    (1e3 *. float_of_int ops /. float_of_int r.makespan);
  Printf.printf "instructions: %s\n"
    (Format.asprintf "%a" Nvt_nvm.Stats.pp stats);
  (match Nvt_nvm.Stats.sites stats with
  | [] -> ()
  | sites ->
    print_endline "attribution:";
    List.iter
      (fun (name, { Nvt_nvm.Stats.s_flushes; s_fences; s_cas }) ->
        Printf.printf "  %-22s %5d flush  %5d fence  %5d cas\n" name s_flushes
          s_fences s_cas)
      sites);
  Printf.printf "crashes:    %d fired of %d requested, %d steps covered\n"
    r.crashes_fired r.crashes_requested r.steps;
  let unfired = r.crashes_requested - r.crashes_fired in
  if unfired > 0 then
    (* an era that finishes before its crash step clears the crash and
       the next era takes the next step, so the report knows how many
       never fired, not which *)
    Printf.printf
      "            UNFIRED: %d of the crashes requested (steps %s) came \
       after the end of their era and never fired\n"
      unfired (pp_steps crash_steps);
  let events, dropped = trace in
  if events <> [] then begin
    Printf.printf "trace:      last %d event(s), %d older dropped\n"
      (List.length events) dropped;
    List.iter (fun e -> Format.printf "  %a@." Machine.pp_event e) events
  end;
  match H.Crashlab.verdict r.recorded with
  | Linearizable ->
    print_endline "verdict:    durably linearizable";
    unfired = 0
  | Violation v ->
    Format.printf "verdict:    VIOLATION@.%a@."
      Nvt_sim.Linearizability.pp_violation v;
    false
  | Unchecked key ->
    (* the checker gave up: checked less than it was asked to *)
    Printf.printf
      "verdict:    UNCHECKED (key %d needs more than %d search states, \
       past the linearizability checker's budget)\n"
      key Nvt_sim.Linearizability.budget;
    false

let run s_name p_name threads ops range seed updates eviction stall crashes
    cost trace_cap optimize =
  let variants = List.assoc s_name structures in
  let chosen =
    if p_name = "all" then
      (* under crash injection, skip policies that do not claim
         durability — losing data there is the expected outcome *)
      List.filter
        (fun (k, _) ->
          crashes = []
          ||
          match I.flavour k with
          | Some f ->
            let (module Pol : I.POLICY) = f.policy in
            Pol.durable
          | None -> true)
        variants
    else
      match List.assoc_opt p_name variants with
      | Some set -> [ (p_name, set) ]
      | None ->
        usage "no policy %s for %s (available: %s)" p_name s_name
          (String.concat ", " (List.map fst variants @ [ "all" ]))
  in
  let opt_report = Option.map load_report optimize in
  let verdicts =
    List.map
      (fun (p_name, set) ->
        let plan =
          Option.map
            (fun j -> H.Mutlab.plan_of_report j ~structure:s_name ~policy:p_name)
            opt_report
        in
        Option.iter (pp_plan s_name p_name) plan;
        let spec =
          { (H.Crashlab.spec set) with
            threads;
            ops = threads * ops;
            range;
            mix = Nvt_workload.Workload.updates ~pct:updates;
            seed;
            cost;
            eviction;
            stall;
            plan;
            crash_steps = crashes;
            trace_capacity = trace_cap }
        in
        let clean =
          match
            let r = H.Crashlab.run spec in
            let m = r.recorded.machine in
            r.recorded.check_invariants ();
            let trace = (Machine.trace m, Machine.trace_dropped m) in
            (r, trace, r.recorded.size ())
          with
          | r, trace, final_size ->
            report s_name p_name crashes r ~trace ~final_size
          | exception Nvt_sim.Machine.Corrupt_read cid ->
            Printf.printf
              "structure:  %s (%s)\n\
               verdict:    CORRUPT MEMORY (cell %d read after crash without \
               a persistent value)\n"
              s_name p_name cid;
            false
          | exception Failure msg ->
            (* a structural invariant broke, or recovery failed *)
            Printf.printf "structure:  %s (%s)\nverdict:    FAILED: %s\n"
              s_name p_name msg;
            false
        in
        (* the driver's machine, even when the run raised *)
        if plan <> None then pp_savings (Machine.optimizer (Machine.get ()));
        clean)
      chosen
  in
  if List.exists not verdicts then exit 1

(* ------------------------------------------------------------------ *)
(* mutate: the persistence-site mutation battery                       *)
(* ------------------------------------------------------------------ *)

module Mutlab = H.Mutlab

let quick_flag =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:"Quick scale (the default): the battery CI runs per push.")

let deep_flag =
  Arg.(
    value & flag
    & info [ "deep" ]
        ~doc:"Deep scale: every-step crash points, wider window and \
              seed sweeps, all five structures (the nightly battery).")

let mut_structures =
  Arg.(
    value
    & opt_all (keyed structure_names) []
    & info [ "structure"; "s" ] ~docv:"NAME"
        ~doc:"Structure to mutate (repeatable; default: the scale's \
              structure set).")

let mut_policies =
  Arg.(
    value
    & opt_all (keyed flavour_keys) []
    & info [ "policy"; "p" ] ~docv:"NAME"
        ~doc:"Restrict to this policy (repeatable; default: every \
              registry flavour).")

let mut_domains =
  count [ "domains" ] 1 ~docv:"N"
    "Stripe the mutation batteries over $(docv) OCaml domains. The report \
     is byte-identical for every value: each battery is self-contained and \
     the output is index-ordered."

let mut_out =
  Arg.(
    value
    & opt string "MUTATION_report.json"
    & info [ "out"; "o" ] ~docv:"FILE"
        ~doc:"Where to write the nvtraverse-mutation/2 report.")

let mutate quick deep structures policies domains out optimize =
  if quick && deep then usage "--quick and --deep are mutually exclusive";
  let sc = if deep then Mutlab.deep else Mutlab.quick in
  let optimize = Option.map load_report optimize in
  (* the service batteries ride along only when no -s filter was
     given: -s selects structure batteries. Both kinds stripe over the
     same domains, and the multicore smoke job byte-compares the full
     quick battery at --domains 1 and 2. *)
  let service =
    if structures = [] then Nvt_service.Svclab.batteries ~policies ?optimize sc
    else []
  in
  let batteries =
    Mutlab.batteries ~structures ~policies ?optimize sc @ service
  in
  if batteries = [] then
    usage "no mutation battery: no -s %s structure supports a -p %s policy"
      (String.concat ", " structures) (String.concat ", " policies);
  let r = Mutlab.run ~domains sc batteries in
  Format.printf "%a" Mutlab.pp_report r;
  H.Json.write_file out (Mutlab.to_json r);
  Printf.printf "report:     %s\n" out;
  (* what was written must pass the check every reader applies *)
  ignore (load_report ~code:1 out);
  if not (Mutlab.gate_ok (Mutlab.gate_of r)) then exit 1

(* ------------------------------------------------------------------ *)
(* serve: the sharded durable service under open-loop load             *)
(* ------------------------------------------------------------------ *)

module Service = Nvt_service.Service
module Runner = Nvt_service.Runner

let svc_structure =
  Arg.(
    value
    & opt (keyed structure_names) "hash"
    & info [ "structure"; "s" ]
        ~doc:
          (Printf.sprintf "Shard structure: %s."
             (String.concat ", " structure_names)))

let svc_policy =
  Arg.(
    value
    & opt (keyed flavour_keys) "nvt"
    & info [ "policy"; "p" ] ~doc:("Persistence policy: " ^ policy_doc))

let shards = count [ "shards" ] 4 "Shard count."
(* an arrival stamp holds the client in 16 bits *)
let clients =
  let max = Nvt_service.Oracle.max_clients in
  Arg.(
    value
    & opt
        (bounded
           (Printf.sprintf "an integer in [1, %d]" max)
           (fun v -> v >= 1 && v <= max)
           Arg.int)
        16
    & info [ "clients" ]
        ~doc:(Printf.sprintf "Client sessions, at most %d." max))
let requests = count [ "requests"; "n" ] 1000 "Total requests."

let gap =
  count [ "gap" ] 600 "Mean Poisson inter-arrival gap in simulated time units."

let skew =
  Arg.(
    value & opt finite_nonneg 0.99
    & info [ "skew" ] ~doc:"Zipf key-skew parameter; 0 = uniform keys.")

let mode =
  count ~least:0 [ "timeout" ] 4000
    "Group-commit interval (simulated time units): a committer thread \
     commits every completion accumulated since the last boundary at each \
     multiple of this interval. 0 = per-op acknowledgement (each request \
     commits on its worker)."
  |> Term.map (fun timeout ->
         if timeout = 0 then Service.Per_op else Service.Group { timeout })

let svc_domains =
  count [ "domains" ] 1 ~docv:"N"
    "Stripe the shards over $(docv) OCaml domains (clamped to the shard \
     count), one simulated machine per domain, merged at virtual-time \
     barriers. Crash-free runs keep the same apply histories and verdict \
     for every value."

let ckpt =
  count ~least:0 [ "ckpt" ] 0 ~docv:"INTERVAL"
    "Checkpoint each shard every $(docv) simulated time units (snapshot + \
     committed-prefix log truncation); 0 disables checkpointing. Recovery \
     then replays only the delta since the last checkpoint."

let multi_pct =
  Arg.(
    value & opt percent 0
    & info [ "multi" ] ~docv:"PCT"
        ~doc:"Issue $(docv)% of requests as durable multi-puts: $(b,k) \
              same-shard keys applied and acknowledged atomically as one \
              ledger record under a single pair of commit fences.")

let multi_k =
  count [ "multi-k" ] 4 ~docv:"K"
    "Keys per multi-put (capped at the shard's key pool)."

let rmw_pct =
  Arg.(
    value & opt percent 0
    & info [ "rmw" ] ~docv:"PCT"
        ~doc:"Issue $(docv)% of requests as read-modify-writes (add a \
              delta to the key's current value, returning the old one) — \
              one request, one ledger record, one commit.")

let recovery_crashes =
  Arg.(
    value & opt_all (at_least 0) []
    & info [ "recovery-crash" ] ~docv:"STEPS"
        ~doc:"Crash again this many steps into a recovery pass \
              (repeatable; each threshold is consumed by one recovery, \
              which then restarts — the double-crash scenario).")

let detect_flag =
  Arg.(
    value & flag
    & info [ "detect" ]
        ~doc:"Detectable recovery: per-client completion descriptors \
              (flushed under the existing commit fences) replace \
              dedup-table log replay, and recovery answers \
              completed/not-applied status queries; the oracle holds \
              every acknowledgement against the status answer.")

let serve s_name p_name shards clients requests gap skew updates range seed
    mode crashes eviction cost domains ckpt recovery_crashes
    multi_pct multi_k rmw_pct detect optimize =
  if multi_pct + rmw_pct > 100 then
    usage "--multi plus --rmw must be at most 100 (got %d + %d)" multi_pct
      rmw_pct;
  if not (I.supports (Option.get (I.flavour p_name)) s_name) then
    usage "no policy %s for %s" p_name s_name;
  let plan =
    Option.map
      (fun path ->
        let p =
          Mutlab.plan_of_report (load_report path) ~structure:s_name
            ~policy:p_name
        in
        pp_plan s_name p_name p;
        p)
      optimize
  in
  let cfg =
    { Runner.default_config with
      structure = s_name;
      flavour = p_name;
      shards;
      clients;
      requests;
      mean_gap = gap;
      skew;
      update_pct = updates;
      key_range = range;
      mode;
      seed;
      crash_steps = crashes;
      cost;
      eviction;
      domains;
      checkpoint_interval = ckpt;
      recovery_crashes;
      plan;
      multi_pct;
      multi_k;
      rmw_pct;
      detect }
  in
  match Runner.run cfg with
  | r ->
    Format.printf "%a@." Runner.pp_report r;
    (* crashes are consumed in order and a run that finishes leaves the
       rest unconsumed, so the unfired ones are the tails of the lists *)
    let all_fired what steps fired =
      let left = List.filteri (fun i _ -> i >= fired) steps in
      if left <> [] then
        Printf.printf "unfired:    %s at step(s) %s never fired\n" what
          (pp_steps left);
      left = []
    in
    let eras_ok = all_fired "era crash(es)" crashes r.crashes_fired in
    let recoveries_ok =
      all_fired "recovery crash(es)" recovery_crashes r.recovery_crashes_fired
    in
    if r.violations <> [] || not (eras_ok && recoveries_ok) then exit 1
  | exception Nvt_sim.Machine.Corrupt_read cid ->
    Printf.printf
      "verdict:    CORRUPT MEMORY (cell %d read after crash without a \
       persistent value)\n"
      cid;
    exit 1
  | exception Failure msg ->
    Printf.printf "verdict:    FAILED: %s\n" msg;
    exit 1

let () =
  let run_term =
    Term.(
      const run $ structure $ policy $ threads $ ops $ range $ seed $ updates
      $ eviction $ stall $ crashes $ cost $ trace_cap $ optimize_arg)
  in
  let run_cmd =
    Cmd.v
      (Cmd.info "run"
         ~doc:"Seeded workload on one structure with crash injection")
      run_term
  in
  let mutate_cmd =
    Cmd.v
      (Cmd.info "mutate"
         ~doc:"Persistence-site mutation battery: suppress each named \
               flush/fence site in turn and prove a durability violation \
               (Section 4.3's necessity claim), flagging unkilled sites \
               as candidate-redundant")
      Term.(
        const mutate $ quick_flag $ deep_flag $ mut_structures $ mut_policies
        $ mut_domains $ mut_out $ optimize_arg)
  in
  let serve_cmd =
    Cmd.v
      (Cmd.info "serve"
         ~doc:"Sharded durable service under open-loop load with crash \
               injection and an exactly-once oracle")
      Term.(
        const serve $ svc_structure $ svc_policy $ shards $ clients $ requests
        $ gap $ skew $ updates $ range $ seed $ mode
        $ crashes $ eviction $ cost $ svc_domains $ ckpt $ recovery_crashes
        $ multi_pct $ multi_k $ rmw_pct $ detect_flag $ optimize_arg)
  in
  let cmd =
    Cmd.group ~default:run_term
      (Cmd.info "nvtsim"
         ~doc:"Crash laboratory for durable lock-free data structures")
      [ run_cmd; mutate_cmd; serve_cmd ]
  in
  (* a parse error is a usage error, exit 2 like every other one *)
  exit
    (match Cmd.eval_value cmd with
    | Ok _ -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
