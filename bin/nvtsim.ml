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
   violation, or a requested crash that never fired (the run checked
   less than it was asked to); 2 for usage errors (an unknown policy, a
   count below its least value, a crash step below 0, a percentage or
   probability out of range, a skew that is negative or not finite);
   124 for an unknown --structure, which Cmdliner's enum rejects. CI
   relies on this to distinguish a clean run from a printed
   violation. *)

open Cmdliner
module H = Nvt_harness
module I = Nvt_harness.Instances

module type SET = Nvt_core.Set_intf.SET

let structures : (string * (string * (module SET)) list) list =
  I.table () @ [ ("onefile", [ ("nvt", (module I.Onefile_set)) ]) ]

let structure =
  let names = List.map fst structures in
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) names)) "list"
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
    & opt string "nvt"
    & info [ "policy"; "p" ]
        ~doc:
          (Printf.sprintf
             "Persistence policy: %s; or $(b,all) to run every policy the \
              structure supports."
             policy_doc))

let threads = Arg.(value & opt int 4 & info [ "threads"; "t" ] ~doc:"Threads.")
let ops = Arg.(value & opt int 100 & info [ "ops" ] ~doc:"Ops per thread.")
let range = Arg.(value & opt int 64 & info [ "range" ] ~doc:"Key range.")
let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Seed.")

let updates =
  Arg.(value & opt int 20 & info [ "updates"; "u" ] ~doc:"Update percentage.")

let eviction =
  Arg.(
    value & opt float 0.0
    & info [ "eviction" ]
        ~doc:"Random-eviction probability per step, in [0, 1].")

let stall =
  Arg.(
    value & opt float 0.0
    & info [ "stall" ]
        ~doc:"Thread-stall probability per step, in [0, 1).")

let crashes =
  Arg.(
    value & opt_all int []
    & info [ "crash" ] ~docv:"STEPS"
        ~doc:"Crash this many steps into an era (repeatable; each crash \
              is followed by recovery and a fresh era).")

let dram =
  Arg.(value & flag & info [ "dram" ] ~doc:"Use the DRAM cost profile.")

let trace_cap =
  Arg.(
    value & opt int 0
    & info [ "trace" ] ~docv:"N"
        ~doc:"Record the last $(docv) machine events (writes, flushes, \
              fences, evictions, crashes) and print them in the report.")

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

let pp_savings () =
  let s = Nvt_nvm.Optimizer.counters () in
  Printf.printf
    "optimizer:  %d flushes coalesced, %d deferred, %d elided; %d fences \
     elided\n"
    s.Nvt_nvm.Optimizer.coalesced_flushes s.deferred_flushes s.elided_flushes
    s.elided_fences

(* A count below its least value is a usage error, caught before
   anything runs: zero threads, ops or requests would pass vacuously, a
   zero range, shard or client count would fail mid-run, a gap below 1
   is a negative arrival rate, and a negative checkpoint interval would
   silently disable checkpoints. *)
let require_at_least least counts =
  List.iter
    (fun (flag, n) ->
      if n < least then begin
        Printf.eprintf "--%s must be at least %d (got %d)\n" flag least n;
        exit 2
      end)
    counts

(* So is a percentage outside [0, 100], which the op mix would silently
   saturate. *)
let require_percent (flag, pct) =
  if pct < 0 || pct > 100 then begin
    Printf.eprintf "--%s must be in [0, 100] (got %d)\n" flag pct;
    exit 2
  end

(* A probability flag outside its range is a usage error too: at a
   stall probability of 1 or more every step stalls, so the run never
   finishes (or overflows the scheduler's clock), and an eviction
   probability outside [0, 1] silently means never or always. *)
let require_probability ?(below_one = false) (flag, p) =
  if not (p >= 0.0 && if below_one then p < 1.0 else p <= 1.0) then begin
    Printf.eprintf "--%s must be in [0, 1%s (got %g)\n" flag
      (if below_one then ")" else "]")
      p;
    exit 2
  end

(* So is a Zipf skew that is negative or not finite: a negative skew
   silently means uniform keys, and at nan or infinity every weight but
   one key's collapses, so the run draws a single key. *)
let require_skew skew =
  if not (Float.is_finite skew && skew >= 0.0) then begin
    Printf.eprintf "--skew must be a finite number >= 0 (got %g)\n" skew;
    exit 2
  end

let crash_flags flag steps = List.map (fun s -> (flag, s)) steps

let pp_steps steps = String.concat ", " (List.map string_of_int steps)

(* The run's verdict, printed last: true iff clean. *)
let report s_name p_name crash_steps (r : H.Crashlab.report) =
  let ops = List.length r.history in
  Printf.printf "structure:  %s (%s)\n" s_name p_name;
  Printf.printf "operations: %d across %d era(s)\n" ops r.eras;
  Printf.printf "final size: %d keys\n" r.final_size;
  Printf.printf "makespan:   %d simulated ns (%.3f Mops/s)\n" r.makespan
    (1e3 *. float_of_int ops /. float_of_int r.makespan);
  Printf.printf "instructions: %s\n"
    (Format.asprintf "%a" Nvt_nvm.Stats.pp r.stats);
  (match Nvt_nvm.Stats.sites r.stats with
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
  if r.trace <> [] then begin
    Printf.printf "trace:      last %d event(s), %d older dropped\n"
      (List.length r.trace) r.trace_dropped;
    List.iter
      (fun e ->
        Format.printf "  %a@." Nvt_sim.Machine.pp_event e)
      r.trace
  end;
  match r.linearizable with
  | Ok () ->
    print_endline "verdict:    durably linearizable";
    unfired = 0
  | Error v ->
    Format.printf "verdict:    VIOLATION@.%a@."
      Nvt_sim.Linearizability.pp_violation v;
    false

let run s_name p_name threads ops range seed updates eviction stall crashes
    dram trace_cap optimize =
  require_at_least 1
    [ ("threads", threads); ("ops", ops); ("range", range) ];
  require_at_least 0 (crash_flags "crash" crashes);
  require_percent ("updates", updates);
  require_probability ("eviction", eviction);
  require_probability ~below_one:true ("stall", stall);
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
        Printf.eprintf "no policy %s for %s (available: %s)\n" p_name s_name
          (String.concat ", " (List.map fst variants @ [ "all" ]));
        exit 2
  in
  let c =
    { H.Crashlab.seed;
      threads;
      ops_per_thread = ops;
      key_range = range;
      mix = Nvt_workload.Workload.updates ~pct:updates;
      cost =
        (if dram then Nvt_nvm.Cost_model.dram else Nvt_nvm.Cost_model.nvram);
      eviction =
        (if eviction > 0.0 then Nvt_sim.Machine.Random_eviction eviction
         else Nvt_sim.Machine.No_eviction);
      stall =
        (if stall > 0.0 then
           Some { Nvt_sim.Machine.probability = stall; max_units = 20_000 }
         else None);
      crash_steps = crashes;
      trace_capacity = trace_cap }
  in
  let opt_report = Option.map load_report optimize in
  let verdicts =
    List.map
      (fun (p_name, set) ->
        (* the crash lab's machine is created on this domain, so it
           captures the ambient optimizer context — install the plan
           there for the duration of the run and report the savings *)
        let with_plan fn =
          match opt_report with
          | None -> fn ()
          | Some j ->
            let plan =
              H.Mutlab.plan_of_report j ~structure:s_name ~policy:p_name
            in
            pp_plan s_name p_name plan;
            Nvt_nvm.Optimizer.set (Some plan);
            Fun.protect
              ~finally:(fun () -> Nvt_nvm.Optimizer.set None)
              (fun () ->
                let v = fn () in
                pp_savings ();
                v)
        in
        with_plan @@ fun () ->
        match H.Crashlab.run set c with
        | r -> report s_name p_name crashes r
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
          false)
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
    value & opt_all string []
    & info [ "structure"; "s" ] ~docv:"NAME"
        ~doc:"Structure to mutate (repeatable; default: the scale's \
              structure set).")

let mut_policies =
  Arg.(
    value & opt_all string []
    & info [ "policy"; "p" ] ~docv:"NAME"
        ~doc:"Restrict to this policy (repeatable; default: every \
              registry flavour).")

let mut_domains =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:"Stripe the mutation batteries over $(docv) OCaml \
              domains. The report is byte-identical for every value: each \
              battery is self-contained and the output is index-ordered.")

let mut_out =
  Arg.(
    value
    & opt string "MUTATION_report.json"
    & info [ "out"; "o" ] ~docv:"FILE"
        ~doc:"Where to write the nvtraverse-mutation/2 report.")

let mutate quick deep structures policies domains out optimize =
  if quick && deep then begin
    prerr_endline "--quick and --deep are mutually exclusive";
    exit 2
  end;
  let sc = if deep then Mutlab.deep else Mutlab.quick in
  List.iter
    (fun s ->
      if not (List.mem_assoc s I.structures) then begin
        Printf.eprintf "unknown structure %s (available: %s)\n" s
          (String.concat ", " (List.map fst I.structures));
        exit 2
      end)
    structures;
  List.iter
    (fun p ->
      if I.flavour p = None then begin
        Printf.eprintf "unknown policy %s (available: %s)\n" p
          (String.concat ", "
             (List.map (fun (f : I.flavour) -> f.key) I.flavours));
        exit 2
      end)
    policies;
  let optimize = Option.map load_report optimize in
  (* the service batteries ride along only when no -s filter was
     given: -s selects structure batteries. Both kinds stripe over the
     same domains, and the multicore smoke job byte-compares the full
     quick battery at --domains 1 and 2. *)
  let service =
    if structures = [] then Nvt_service.Svclab.batteries ~policies ?optimize sc
    else []
  in
  let r =
    Mutlab.run ~domains sc
      (Mutlab.batteries ~structures ~policies ?optimize sc @ service)
  in
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
  let names = List.map fst I.structures in
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) names)) "hash"
    & info [ "structure"; "s" ]
        ~doc:(Printf.sprintf "Shard structure: %s." (String.concat ", " names)))

let svc_policy =
  Arg.(
    value & opt string "nvt"
    & info [ "policy"; "p" ] ~doc:("Persistence policy: " ^ policy_doc))

let shards = Arg.(value & opt int 4 & info [ "shards" ] ~doc:"Shard count.")

let clients =
  Arg.(value & opt int 16 & info [ "clients" ] ~doc:"Client sessions.")

let requests =
  Arg.(value & opt int 1000 & info [ "requests"; "n" ] ~doc:"Total requests.")

let gap =
  Arg.(
    value & opt int 600
    & info [ "gap" ]
        ~doc:"Mean Poisson inter-arrival gap in simulated time units.")

let skew =
  Arg.(
    value & opt float 0.99
    & info [ "skew" ] ~doc:"Zipf key-skew parameter; 0 = uniform keys.")

let commit_timeout =
  Arg.(
    value & opt int 4000
    & info [ "timeout" ]
        ~doc:"Group-commit interval (simulated time units): a committer \
              thread commits every completion accumulated since the last \
              boundary at each multiple of this interval. 0 = per-op \
              acknowledgement (each request commits on its worker).")

let svc_domains =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:"Stripe the shards over $(docv) OCaml domains (clamped to the \
              shard count), one simulated machine per domain, merged at \
              virtual-time barriers. Crash-free runs keep the same apply \
              histories and verdict for every value.")

let ckpt =
  Arg.(
    value & opt int 0
    & info [ "ckpt" ] ~docv:"INTERVAL"
        ~doc:"Checkpoint each shard every $(docv) simulated time units \
              (snapshot + committed-prefix log truncation); 0 disables \
              checkpointing. Recovery then replays only the delta since \
              the last checkpoint.")

let multi_pct =
  Arg.(
    value & opt int 0
    & info [ "multi" ] ~docv:"PCT"
        ~doc:"Issue $(docv)% of requests as durable multi-puts: $(b,k) \
              same-shard keys applied and acknowledged atomically as one \
              ledger record under a single pair of commit fences.")

let multi_k =
  Arg.(
    value & opt int 4
    & info [ "multi-k" ] ~docv:"K"
        ~doc:"Keys per multi-put (capped at the shard's key pool).")

let rmw_pct =
  Arg.(
    value & opt int 0
    & info [ "rmw" ] ~docv:"PCT"
        ~doc:"Issue $(docv)% of requests as read-modify-writes (add a \
              delta to the key's current value, returning the old one) — \
              one request, one ledger record, one commit.")

let recovery_crashes =
  Arg.(
    value & opt_all int []
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
    timeout crashes eviction dram domains ckpt recovery_crashes
    multi_pct multi_k rmw_pct detect optimize =
  require_at_least 1
    [ ("shards", shards); ("clients", clients); ("requests", requests);
      ("range", range); ("domains", domains); ("gap", gap);
      ("multi-k", multi_k) ];
  require_at_least 0
    (("ckpt", ckpt)
     :: crash_flags "crash" crashes
     @ crash_flags "recovery-crash" recovery_crashes);
  List.iter require_percent
    [ ("updates", updates); ("multi", multi_pct); ("rmw", rmw_pct) ];
  if multi_pct + rmw_pct > 100 then begin
    Printf.eprintf "--multi plus --rmw must be at most 100 (got %d + %d)\n"
      multi_pct rmw_pct;
    exit 2
  end;
  require_probability ("eviction", eviction);
  require_skew skew;
  (match I.flavour p_name with
  | Some _ -> ()
  | None ->
    Printf.eprintf "unknown policy %s (available: %s)\n" p_name
      (String.concat ", " (List.map (fun (f : I.flavour) -> f.key) I.flavours));
    exit 2);
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
      mode =
        (if timeout <= 0 then Service.Per_op else Service.Group { timeout });
      seed;
      crash_steps = crashes;
      cost =
        (if dram then Nvt_nvm.Cost_model.dram else Nvt_nvm.Cost_model.nvram);
      eviction =
        (if eviction > 0.0 then Nvt_sim.Machine.Random_eviction eviction
         else Nvt_sim.Machine.No_eviction);
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
      $ eviction $ stall $ crashes $ dram $ trace_cap $ optimize_arg)
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
        $ gap $ skew $ updates $ range $ seed $ commit_timeout
        $ crashes $ eviction $ dram $ svc_domains $ ckpt $ recovery_crashes
        $ multi_pct $ multi_k $ rmw_pct $ detect_flag $ optimize_arg)
  in
  exit
    (Cmd.eval
       (Cmd.group ~default:run_term
          (Cmd.info "nvtsim"
             ~doc:"Crash laboratory for durable lock-free data structures")
          [ run_cmd; mutate_cmd; serve_cmd ]))
