(* The service-level experiments (EXPERIMENTS.md): group commit,
   recovery after a crash, the persistence optimizer and the SOFT and
   detectable contenders. One table of run specs, one record
   (BENCH_experiments.json, nvtraverse-experiments/1), one gate list.

   The set runs are single-threaded runs of the set-run driver
   ([Crashlab.run]) over the nvram profile, the one thread drawing from
   stream seed [seed * 977]. A spec that repeats runs once and its
   result is shared: the contenders' single-threaded runs are optimizer
   runs, and at quick scale the service per-op run is the
   optimizer-service base run.
   Every gate is a named predicate over the rows, evaluated once; a
   gate fails when a row it needs is missing. *)

module Machine = Nvt_sim.Machine
module History = Nvt_sim.History
module Stats = Nvt_nvm.Stats
module Optimizer = Nvt_nvm.Optimizer
module Workload = Nvt_workload.Workload
module Crashlab = Nvt_harness.Crashlab
module Mutlab = Nvt_harness.Mutlab
module I = Nvt_harness.Instances
module Json = Nvt_harness.Json
module Runner = Nvt_service.Runner
module Service = Nvt_service.Service

(* A set run: one driver spec over [flavour] on [structure]. *)
type set = { structure : string; flavour : I.flavour; spec : Crashlab.spec }

type run = Set of set | Svc of (unit -> Runner.report)

(* A run that two specs share runs once: [key] names it. *)
let memo key f =
  let tbl = Hashtbl.create 64 in
  fun x ->
    let k = key x in
    match Hashtbl.find_opt tbl k with
    | Some y -> y
    | None ->
      let y = f x in
      Hashtbl.add tbl k y;
      y

(* Keyed by every spec field [specs] varies: a spec holds the set
   module, which does not compare. *)
let series =
  memo
    (fun { structure; flavour; spec = s } ->
      (structure, flavour.key, s.plan, s.seed, s.ops, s.range))
    (fun s -> Crashlab.run s.spec)

let report = memo Fun.id Runner.run

(* A single-threaded run's history as (op tag, key, result) triples:
   a pure function of the spec, so comparing it with and without a plan
   isolates the optimizer. *)
let outcomes (r : Crashlab.run) =
  List.map
    (fun (e : History.event) ->
      ( (match e.op with Insert _ -> 0 | Delete _ -> 1 | Member _ -> 2),
        History.key_of e.op,
        Option.get e.result ))
    (History.events r.recorded.history)

(* The config's crash-free run for its step count, then the same run
   with one crash at 90% of those steps. *)
let crash_at_90pct c =
  report { c with Runner.crash_steps = [ (report c).steps * 9 / 10 ] }

(* ------------------------------------------------------------------ *)
(* The spec table                                                      *)
(* ------------------------------------------------------------------ *)

let recovery_cell n d i = Printf.sprintf "n=%d d=%d ckpt=%d" n d i

(* (experiment, config, run), in report order *)
let specs ~quick ~seed mutation =
  let plan structure policy =
    Mutlab.plan_of_report mutation ~structure ~policy
  in
  let set structure (f : I.flavour) opt =
    let ops = if quick then 1500 else 6000 in
    Set
      { structure;
        flavour = f;
        spec =
          { (Crashlab.spec (List.assoc f.key (List.assoc structure (I.table ()))))
            with
            threads = 1;
            ops = max 200 (int_of_float (float_of_int ops *. f.ops_scale));
            range = (if quick then 128 else 256);
            mix = Workload.updates ~pct:40;
            seed;
            stream_seed = Crashlab.thread_streams;
            plan = (if opt then Some (plan structure f.key) else None) } }
  in
  let label s key opt = s ^ "/" ^ key ^ if opt then "+opt" else "" in
  let contenders =
    [ ("nvt", false); ("nvt", true); ("soft", false); ("det", false) ]
  in
  let flavour key = Option.get (I.flavour key) in
  let svc =
    { Runner.default_config with
      seed;
      structure = "hash";
      flavour = "nvt";
      shards = 4;
      clients = 16;
      (* just under capacity: saturating the shards would measure queue
         growth, not the acknowledgement protocol *)
      mean_gap = 600;
      skew = 0.99;
      update_pct = 50;
      key_range = 512;
      mode = Service.Per_op;
      watchdog = 40_000_000;
      plan = Some Optimizer.no_opt }
  in
  let group timeout = Service.Group { timeout } in
  let serve c = Svc (fun () -> report c) in
  let service =
    List.map
      (fun mode ->
        ( "service",
          Service.mode_name mode,
          serve { svc with requests = (if quick then 600 else 4000); mode } ))
      (if quick then [ Service.Per_op; group 4000 ]
       else [ Service.Per_op; group 2000; group 4000; group 8000 ])
  in
  let recovery =
    let sizes =
      if quick then [ 250; 500; 1000 ] else [ 500; 1000; 2000; 4000 ]
    in
    let domains = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
    let intervals = if quick then [ 0; 4000 ] else [ 0; 2000; 8000 ] in
    (* per-op commit, so the committed log tracks the request count *)
    let cell n d i =
      { svc with
        clients = 8;
        requests = n;
        mean_gap = 300;
        skew = 0.;
        update_pct = 60;
        key_range = 256;
        domains = d;
        checkpoint_interval = i }
    in
    List.concat_map
      (fun n ->
        List.concat_map
          (fun d ->
            List.map
              (fun i ->
                ( "recovery",
                  recovery_cell n d i,
                  Svc (fun () -> crash_at_90pct (cell n d i)) ))
              intervals)
          domains)
      sizes
  in
  let optimizer =
    List.concat_map
      (fun s ->
        List.concat_map
          (fun (f : I.flavour) ->
            if I.supports f s then
              List.map
                (fun opt -> ("optimizer", label s f.key opt, set s f opt))
                [ false; true ]
            else [])
          I.flavours)
      [ "list"; "bst-nm"; "hash" ]
  in
  let optimizer_service =
    let c = { svc with requests = (if quick then 600 else 2000) } in
    List.concat_map
      (fun (l, cfg) ->
        [ ("optimizer-service", l, serve cfg);
          ( "optimizer-service",
            l ^ "+opt",
            serve { cfg with plan = Some (plan "hash" "nvt") } ) ])
      [ ("per_op", c);
        ("group8000", { c with mode = group 8000 });
        ("per_op+mput", { c with multi_pct = 30; multi_k = 8 }) ]
  in
  let contenders_set =
    List.concat_map
      (fun s ->
        List.map
          (fun (k, opt) -> ("contenders", label s k opt, set s (flavour k) opt))
          contenders)
      [ "hash"; "list" ]
  in
  let contenders_service =
    List.map
      (fun (k, opt) ->
        ( "contenders-service",
          (if opt then k ^ "+opt" else k),
          serve
            { svc with
              requests = (if quick then 500 else 1500);
              flavour = k;
              detect = k = "det";
              plan = Some (if opt then plan "hash" k else Optimizer.no_opt) } ))
      contenders
  in
  service @ recovery @ optimizer @ optimizer_service @ contenders_set
  @ contenders_service

(* ------------------------------------------------------------------ *)
(* Rows                                                                *)
(* ------------------------------------------------------------------ *)

type row = {
  experiment : string;
  config : string;
  metric : string;
  value : float;
  unit : string;
}

let per a b = float_of_int a /. float_of_int (max 1 b)
let flag b = if b then 1. else 0.

(* Order-chained, so equal digests certify equal sequences. *)
let digest h = List.fold_left (fun acc e -> Hashtbl.hash (acc, e)) 0 h

let set_metrics s =
  let x = series s and sp = s.spec in
  let (module P : I.POLICY) = s.flavour.policy in
  let n m v = (m, float_of_int v, "count") in
  let st = x.stats
  and c = Optimizer.counters_of (Machine.optimizer x.recorded.machine) in
  [ ("ops", float_of_int sp.ops, "op");
    n "range" sp.range;
    ("update_pct", float_of_int (Workload.update_pct sp.mix), "%");
    ("durable", flag P.durable, "flag");
    n "flushes" st.Stats.flushes;
    n "fences" st.Stats.fences;
    ("flushes_per_op", per st.Stats.flushes sp.ops, "1/op");
    ("fences_per_op", per st.Stats.fences sp.ops, "1/op");
    ("history_digest", float_of_int (digest (outcomes x)), "hash");
    n "coalesced_flushes" c.Optimizer.coalesced_flushes;
    n "deferred_flushes" c.Optimizer.deferred_flushes;
    n "elided_flushes" c.Optimizer.elided_flushes;
    n "elided_fences" c.Optimizer.elided_fences ]
  @
  match sp.plan with
  | None -> []
  | Some p ->
    let base = series { s with spec = { sp with plan = None } } in
    let reduction f =
      let b = f base.stats in
      if b = 0 then 0. else 1. -. per (f st) b
    in
    List.map (fun s -> ("elided." ^ s, 1., "flag")) p.Optimizer.elide
    @ [ ("identical_history", flag (outcomes x = outcomes base), "flag");
        ("flush_reduction", reduction (fun s -> s.Stats.flushes), "ratio");
        ("fence_reduction", reduction (fun s -> s.Stats.fences), "ratio") ]

(* Written keys: one per request plus the extra keys each multi-put
   carries, the denominator under which batched commits amortize. *)
let fences_per_key (r : Runner.report) =
  per r.stats.Stats.fences (r.acked + r.multi_keys - r.multi_puts)

let report_metrics (r : Runner.report) =
  let c = r.config and st = r.stats in
  let n m v = (m, float_of_int v, "count") in
  let vt m v = (m, float_of_int v, "vt") in
  [ n "requests" c.requests;
    n "domains" c.domains;
    vt "checkpoint_interval" c.checkpoint_interval;
    ("detect", flag c.detect, "flag");
    ("multi_pct", float_of_int c.multi_pct, "%");
    n "multi_k" c.multi_k;
    n "acked" r.acked;
    n "applies" r.applies;
    n "resent" r.resent;
    n "multi_puts" r.multi_puts;
    n "rmws" r.rmws;
    n "dedup_acks" r.dedup_acks;
    n "audit_acks" r.audit_acks;
    n "crashes_requested" r.crashes_requested;
    n "crashes_fired" r.crashes_fired;
    n "recovery_crashes_requested" r.recovery_crashes_requested;
    n "recovery_crashes_fired" r.recovery_crashes_fired;
    n "checkpoints" r.checkpoints;
    n "truncated" r.truncated;
    n "replayed" r.replayed;
    n "recovery_steps" r.recovery_steps;
    vt "recovery_time" r.recovery_time;
    n "eras" r.eras;
    n "steps" r.steps;
    vt "makespan" r.makespan;
    n "committed" r.committed;
    vt "latency_p50" r.latency.p50;
    vt "latency_p95" r.latency.p95;
    vt "latency_p99" r.latency.p99;
    vt "latency_max" r.latency.lmax;
    ("latency_mean", r.latency.mean, "vt");
    ("fences_per_op", Runner.fences_per_op r, "1/op");
    ("flushes_per_op", Runner.flushes_per_op r, "1/op");
    ("fences_per_key", fences_per_key r, "1/key");
    n "flushes" st.Stats.flushes;
    n "fences" st.Stats.fences;
    n "cas" st.Stats.cas;
    n "reads" st.Stats.reads;
    n "writes" st.Stats.writes;
    n "violations" (List.length r.violations) ]
  @ List.map (fun s -> ("crash_step", float_of_int s, "step")) c.crash_steps
  @ List.concat_map
      (fun (site, s) ->
        [ n ("site." ^ site ^ ".flushes") s.Stats.s_flushes;
          n ("site." ^ site ^ ".fences") s.Stats.s_fences;
          n ("site." ^ site ^ ".cas") s.Stats.s_cas ])
      (Stats.sites st)

let rows_of (experiment, config, run) =
  let metrics =
    match run with Set s -> set_metrics s | Svc r -> report_metrics (r ())
  in
  List.map
    (fun (metric, value, unit) -> { experiment; config; metric; value; unit })
    metrics

(* ------------------------------------------------------------------ *)
(* Gates                                                               *)
(* ------------------------------------------------------------------ *)

exception Missing of string

(* Each gate returns its failures; none means it holds. *)
let gates rows : (string * (unit -> string list)) list =
  let show c m v = Printf.sprintf "%s %s %g" c m v in
  let read = ref [] in
  (* every value a predicate reads is named in its failure *)
  let find e c m =
    match
      List.find_opt
        (fun r -> r.experiment = e && r.config = c && r.metric = m)
        rows
    with
    | Some r ->
      read := show c m r.value :: !read;
      r.value
    | None -> raise (Missing (Printf.sprintf "%s %s %s" e c m))
  in
  (* The rows of experiment [e] carrying metric [m] whose config passes
     [only], each failing when [bad config value]; none is a missing
     row, not a pass. *)
  let each ?(only = fun _ -> true) e m bad =
    match
      List.filter
        (fun r -> r.experiment = e && r.metric = m && only r.config)
        rows
    with
    | [] -> raise (Missing (Printf.sprintf "%s * %s" e m))
    | rs ->
      List.filter_map
        (fun r ->
          read := [];
          if bad r.config r.value then
            let self = show r.config m r.value in
            Some
              (String.concat ", "
                 (self
                 :: List.filter (( <> ) self) (List.sort_uniq compare !read)))
          else None)
        rs
  in
  let is_opt = String.ends_with ~suffix:"+opt" in
  let base c = String.sub c 0 (String.length c - 4) in
  let exactly_once e =
    (e ^ ".exactly_once", fun () -> each e "violations" (fun _ v -> v > 0.))
  in
  (* every request acknowledged and committed; crash-free runs commit
     each exactly once, crashed ones may commit a re-sent one again *)
  let all_acked e =
    ( e ^ ".all_acked",
      fun () ->
        each e "committed" (fun c k ->
            let n = find e c "requests" in
            find e c "acked" <> n || k < n
            || (find e c "crashes_fired" = 0. && k <> n)) )
  in
  let never_increases e =
    ( e ^ ".opt_never_increases",
      fun () ->
        each ~only:is_opt e "flushes" (fun c f ->
            f > find e (base c) "flushes"
            || find e c "fences" > find e (base c) "fences") )
  in
  let recovery_cell_of c i =
    let get m = int_of_float (find "recovery" c m) in
    recovery_cell (get "requests") (get "domains") i
  in
  let checkpointed c = find "recovery" c "checkpoint_interval" > 0. in
  let sizes =
    List.filter_map
      (fun r ->
        if r.experiment = "recovery" && r.metric = "requests" then
          Some r.value
        else None)
      rows
  in
  let longest c = find "recovery" c "requests" = List.fold_left max 0. sizes in
  let mput = String.starts_with ~prefix:"per_op+mput" in
  [ exactly_once "service";
    all_acked "service";
    ( "service.group_saves_fences",
      fun () ->
        each ~only:(( <> ) "per_op") "service" "fences_per_op" (fun _ f ->
            f >= find "service" "per_op" "fences_per_op") );
    ( "service.latency_ordered",
      fun () ->
        each "service" "latency_p50" (fun c p50 ->
            let p m = find "service" c ("latency_" ^ m) in
            not (0. < p50 && p50 <= p "p95" && p "p95" <= p "p99"
                 && p "p99" <= p "max")) );
    ( "service.sites_sum_to_totals",
      fun () ->
        each "service" "flushes" (fun c _ ->
            List.exists
              (fun k ->
                find "service" c k
                <> List.fold_left
                     (fun acc r ->
                       if
                         r.experiment = "service" && r.config = c
                         && String.starts_with ~prefix:"site." r.metric
                         && String.ends_with ~suffix:("." ^ k) r.metric
                       then acc +. r.value
                       else acc)
                     0. rows)
              [ "flushes"; "fences"; "cas" ]) );
    exactly_once "recovery";
    all_acked "recovery";
    ( "recovery.one_crash_fired",
      fun () -> each "recovery" "crashes_fired" (fun _ k -> k <> 1.) );
    (* interval 0 takes no checkpoint and truncates nothing; every
       checkpointed cell commits one *)
    ( "recovery.checkpoints_follow_interval",
      fun () ->
        each "recovery" "checkpoints" (fun c k ->
            if checkpointed c then k = 0.
            else k > 0. || find "recovery" c "truncated" > 0.) );
    ( "recovery.replay_within_baseline",
      fun () ->
        each ~only:checkpointed "recovery" "replayed" (fun c k ->
            k > find "recovery" (recovery_cell_of c 0) "replayed") );
    (* the flatness claim's load-bearing edge *)
    ( "recovery.flat_at_longest_log",
      fun () ->
        each
          ~only:(fun c -> checkpointed c && longest c)
          "recovery" "replayed"
          (fun c k ->
            k *. 2. > find "recovery" (recovery_cell_of c 0) "replayed") );
    (* otherwise the gates above would gate nothing *)
    ( "recovery.baseline_grows_with_log",
      fun () ->
        let shortest = int_of_float (List.fold_left min infinity sizes) in
        each
          ~only:(fun c -> (not (checkpointed c)) && longest c)
          "recovery" "replayed"
          (fun c k ->
            let d = int_of_float (find "recovery" c "domains") in
            k <= find "recovery" (recovery_cell shortest d 0) "replayed") );
    ( "optimizer.identical_histories",
      fun () -> each "optimizer" "identical_history" (fun _ v -> v <> 1.) );
    never_increases "optimizer";
    ( "optimizer.volatile_zero_traffic",
      fun () ->
        each
          ~only:(fun c -> find "optimizer" c "durable" = 0.)
          "optimizer" "flushes"
          (fun c f ->
            f > 0.
            || find "optimizer" c "fences" > 0.
            || List.exists
                 (fun r ->
                   r.experiment = "optimizer" && r.config = c
                   && String.starts_with ~prefix:"elided." r.metric)
                 rows) );
    ( "optimizer.two_pairs_cut_15pct",
      fun () ->
        let cuts =
          each "optimizer" "flush_reduction" (fun c v ->
              v >= 0.15 && find "optimizer" c "durable" = 1.)
        in
        if List.length cuts >= 2 then []
        else [ Printf.sprintf "only [%s]" (String.concat "; " cuts) ] );
    exactly_once "optimizer-service";
    all_acked "optimizer-service";
    ( "optimizer-service.saves_fences",
      fun () ->
        each ~only:is_opt "optimizer-service" "fences_per_op" (fun c f ->
            f >= find "optimizer-service" (base c) "fences_per_op") );
    ( "optimizer-service.multiput_issued",
      fun () ->
        each ~only:mput "optimizer-service" "multi_puts" (fun _ k -> k = 0.) );
    ( "optimizer-service.multiput_amortizes",
      fun () ->
        each ~only:mput "optimizer-service" "fences_per_key" (fun _ f ->
            f >= find "optimizer-service" "per_op" "fences_per_op") );
    ( "contenders.soft_beats_nvt",
      fun () ->
        each
          ~only:(( = ) "hash/soft")
          "contenders" "flushes_per_op"
          (fun c f ->
            f >= find "contenders" "hash/nvt" "flushes_per_op"
            || find "contenders" c "fences_per_op"
               >= find "contenders" "hash/nvt" "fences_per_op") );
    never_increases "contenders";
    exactly_once "contenders-service";
    all_acked "contenders-service";
    ( "contenders-service.detect_iff_det",
      fun () ->
        each "contenders-service" "detect" (fun c d ->
            (d = 1.) <> (c = "det")) ) ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let pp_run (experiment, config, run) =
  Printf.printf "%-18s %-22s " experiment config;
  match run with
  | Set s ->
    let x = series s in
    Printf.printf "flush/op %7.3f  fence/op %7.3f\n%!"
      (per x.stats.Stats.flushes s.spec.ops)
      (per x.stats.Stats.fences s.spec.ops)
  | Svc r ->
    let r = r () in
    Printf.printf
      "fence/op %7.3f  flush/op %7.3f  p50 %6d  p99 %6d  replayed %4d  \
       rec time %6d  viols %d\n%!"
      (Runner.fences_per_op r) (Runner.flushes_per_op r) r.latency.p50
      r.latency.p99 r.replayed r.recovery_time (List.length r.violations);
    List.iter (fun v -> Printf.printf "    VIOLATION: %s\n" v) r.violations

let run ?json_path ~quick ~seed ~report_path () =
  let mutation =
    match Mutlab.load_report report_path with
    | Ok j -> j
    | Error msg ->
      Printf.eprintf "experiments: %s: %s\n" report_path msg;
      exit 2
  in
  Printf.printf "service-level experiments (%s, seed %d), plans from %s\n"
    (if quick then "quick" else "full")
    seed report_path;
  let specs = specs ~quick ~seed mutation in
  List.iter pp_run specs;
  let rows = List.concat_map rows_of specs in
  let verdicts =
    List.map
      (fun (name, check) ->
        let failures =
          try check () with Missing m -> [ "missing row " ^ m ]
        in
        Printf.printf "%-4s %s%s\n"
          (if failures = [] then "ok" else "FAIL")
          name
          (String.concat "" (List.map (( ^ ) "\n       ") failures));
        (name, failures))
      (gates rows)
  in
  (match json_path with
  | None -> ()
  | Some path ->
    let number v =
      if Float.is_integer v then Json.Int (int_of_float v) else Json.Float v
    in
    Json.write_file path
      (Json.Obj
         [ ("schema", Json.Str "nvtraverse-experiments/1");
           ("quick", Json.Bool quick);
           ("seed", Json.Int seed);
           ("report", Json.Str report_path);
           ( "rows",
             Json.List
               (List.map
                  (fun r ->
                    Json.Obj
                      [ ("experiment", Json.Str r.experiment);
                        ("config", Json.Str r.config);
                        ("metric", Json.Str r.metric);
                        ("value", number r.value);
                        ("unit", Json.Str r.unit) ])
                  rows) );
           ( "gates",
             Json.List
               (List.map
                  (fun (name, failures) ->
                    Json.Obj
                      [ ("name", Json.Str name);
                        ("ok", Json.Bool (failures = []));
                        ("detail", Json.Str (String.concat "; " failures)) ])
                  verdicts) ) ]);
    Printf.printf "wrote %s\n%!" path);
  if List.exists (fun (_, f) -> f <> []) verdicts then exit 1
