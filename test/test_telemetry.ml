(* The observability layer: per-site flush/fence/CAS attribution, the
   bounded machine event trace, the crashlab crash-coverage counters,
   and the JSON emitter behind [BENCH_*.json].

   The load-bearing invariant is conservation: every counted flush,
   fence and CAS is attributed to exactly one site, so the site table
   must sum to the aggregate counters — under every policy in the
   registry, or the attribution is lying about where the instructions
   go. *)

module I = Nvt_harness.Instances
module T = Nvt_harness.Throughput
module Json = Nvt_harness.Json
module Crashlab = Nvt_harness.Crashlab
module Stats = Nvt_nvm.Stats
module Machine = Nvt_sim.Machine
module Sim_mem = Nvt_sim.Memory
module Workload = Nvt_workload.Workload
module Runner = Nvt_service.Runner

let run_flavour (f : I.flavour) =
  let scale = if f.key = "izraelevitz" then 0.1 else f.ops_scale in
  T.run
    (I.instantiate_flavour f "list" (module Nvt_structures.Harris_list))
    ~cost:Nvt_nvm.Cost_model.nvram ~seed:5
    { T.threads = 4;
      range = 64;
      mix = Workload.updates ~pct:30;
      total_ops = int_of_float (800. *. scale) }

(* Per-site counts must sum exactly to the aggregate counters of the
   same run — for every registry policy, volatile included. *)
let sites_sum_to_aggregates () =
  List.iter
    (fun (f : I.flavour) ->
      let r = run_flavour f in
      let st = r.T.stats in
      let fl, fe, cas =
        List.fold_left
          (fun (fl, fe, cas) (_, s) ->
            (fl + s.Stats.s_flushes, fe + s.s_fences, cas + s.s_cas))
          (0, 0, 0) (Stats.sites st)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: site flushes sum to aggregate" f.key)
        st.Stats.flushes fl;
      Alcotest.(check int)
        (Printf.sprintf "%s: site fences sum to aggregate" f.key)
        st.Stats.fences fe;
      Alcotest.(check int)
        (Printf.sprintf "%s: site cas sum to aggregate" f.key)
        st.Stats.cas cas)
    I.flavours

(* Each durable policy's instrumentation must name where its flushes
   come from: at least three distinct non-[app] sites on an update-heavy
   run, with real traffic behind them. SOFT is the exception — the
   whole point of the algorithm is that it persists at exactly two
   sites (insert and delete), so its floor is two. *)
let durable_policies_name_their_sites () =
  List.iter
    (fun (f : I.flavour) ->
      let r = run_flavour f in
      let named =
        List.filter (fun (n, _) -> n <> Stats.app_site)
          (Stats.sites r.T.stats)
      in
      let floor = if f.key = "soft" then 2 else 3 in
      if List.length named < floor then
        Alcotest.failf "%s attributes to only %d named site(s): %s" f.key
          (List.length named)
          (String.concat ", " (List.map fst named));
      if r.T.stats.Stats.flushes = 0 then
        Alcotest.failf "%s: durable run issued no flushes" f.key)
    I.durable_flavours

(* The NVTraverse flavour may only use the engine/Protocol 2 site names
   documented in [Traversal.nvt_sites] (plus [app] for the algorithm's
   own accesses). A typo'd site string would silently fork a new row. *)
let nvt_sites_are_documented () =
  let documented = List.map fst Nvt_core.Traversal.nvt_sites in
  let f =
    match I.flavour "nvt" with Some f -> f | None -> assert false
  in
  let r = run_flavour f in
  List.iter
    (fun (name, _) ->
      if name <> Stats.app_site && not (List.mem name documented) then
        Alcotest.failf "undocumented nvt site %S (documented: %s)" name
          (String.concat ", " documented))
    (Stats.sites r.T.stats);
  (* and the engine's boundary sites actually fire on an update run *)
  List.iter
    (fun site ->
      if not (List.mem_assoc site (Stats.sites r.T.stats)) then
        Alcotest.failf "expected site %S absent from an update-heavy run"
          site)
    [ "nvt:make_persistent"; "nvt:return_fence" ]

(* ------------------------------------------------------------------ *)
(* Bounded event trace                                                 *)
(* ------------------------------------------------------------------ *)

let trace_is_bounded_and_attributed () =
  let m = Machine.create ~seed:3 () in
  Machine.set_trace m ~capacity:8;
  let l = Sim_mem.alloc 0 in
  ignore
    (Machine.spawn m (fun () ->
         for i = 1 to 10 do
           Sim_mem.write l i;
           Stats.set_site "test:flush";
           Sim_mem.flush l;
           Stats.set_site "test:fence";
           Sim_mem.fence ()
         done));
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> Alcotest.fail "unexpected crash");
  let tr = Machine.trace m in
  Alcotest.(check int) "ring keeps exactly its capacity" 8 (List.length tr);
  if Machine.trace_dropped m <= 0 then
    Alcotest.fail "30 events through an 8-slot ring must drop some";
  (* the tail is the most recent events, sites attached *)
  let has_flush =
    List.exists
      (function
        | Machine.Ev_flush { site; _ } -> site = "test:flush"
        | _ -> false)
      tr
  and has_fence =
    List.exists
      (function
        | Machine.Ev_fence { site; _ } -> site = "test:fence"
        | _ -> false)
      tr
  in
  if not (has_flush && has_fence) then
    Alcotest.fail "trace tail is missing attributed flush/fence events";
  (* steps must be non-decreasing oldest-to-newest *)
  let step_of = function
    | Machine.Ev_write { step; _ }
    | Machine.Ev_flush { step; _ }
    | Machine.Ev_fence { step; _ }
    | Machine.Ev_evict { step; _ }
    | Machine.Ev_crash { step; _ } -> step
  in
  ignore
    (List.fold_left
       (fun prev e ->
         let s = step_of e in
         if s < prev then Alcotest.fail "trace events out of order";
         s)
       (-1) tr)

let trace_records_the_crash () =
  let m = Machine.create ~seed:4 () in
  Machine.set_trace m ~capacity:32;
  let l = Sim_mem.alloc 0 in
  ignore
    (Machine.spawn m (fun () ->
         for i = 1 to 50 do
           Sim_mem.write l i
         done));
  Machine.set_crash_at_step m 5;
  (match Machine.run m with
  | Machine.Crashed_at _ -> ()
  | Machine.Completed -> Alcotest.fail "crash did not fire");
  if
    not
      (List.exists
         (function Machine.Ev_crash _ -> true | _ -> false)
         (Machine.trace m))
  then Alcotest.fail "crash missing from the event trace"

(* ------------------------------------------------------------------ *)
(* Crashlab crash coverage                                             *)
(* ------------------------------------------------------------------ *)

let nvt_list =
  lazy
    (match I.flavour "nvt" with
    | Some f -> I.instantiate (module Nvt_structures.Harris_list) f.policy
    | None -> assert false)

(* Regression: a crash step beyond the end of its era used to be
   silently ignored — the run reported success while testing strictly
   less than configured. It must now be visible in the report. *)
let unreachable_crash_is_reported () =
  let c =
    { Crashlab.default_config with
      threads = 2;
      ops_per_thread = 10;
      crash_steps = [ 10_000_000 ] }
  in
  let r = Crashlab.run (Lazy.force nvt_list) c in
  Alcotest.(check int) "requested" 1 r.Crashlab.crashes_requested;
  Alcotest.(check int) "fired" 0 r.Crashlab.crashes_fired;
  if r.Crashlab.steps <= 0 then Alcotest.fail "steps covered not recorded"

let reachable_crash_fires () =
  let c =
    { Crashlab.default_config with
      threads = 2;
      ops_per_thread = 30;
      crash_steps = [ 50 ];
      trace_capacity = 16 }
  in
  let r = Crashlab.run (Lazy.force nvt_list) c in
  Alcotest.(check int) "requested" 1 r.Crashlab.crashes_requested;
  Alcotest.(check int) "fired" 1 r.Crashlab.crashes_fired;
  Alcotest.(check int) "eras" 2 r.Crashlab.eras;
  if List.length r.Crashlab.trace > 16 then
    Alcotest.fail "crashlab trace exceeds its configured capacity"

(* ------------------------------------------------------------------ *)
(* Regression: site-tag leak across Corrupt_read                       *)
(* ------------------------------------------------------------------ *)

(* [cas] and [flush] used to call [check_corrupt] *before*
   [Stats.take_site], so a tagged access that raised [Corrupt_read]
   (e.g. nvt:make_persistent during crashlab recovery) left its tag
   pending, and the next counted access was attributed to the wrong
   site — breaking the per-site = aggregate conservation above. The
   raise path must consume the tag. *)
let corrupt_read_consumes_site_tag () =
  let m = Machine.create ~seed:7 () in
  (* allocated but never persisted: wiped to corrupt by the crash *)
  let c1 = Sim_mem.alloc 0 in
  let c2 = Sim_mem.alloc 0 in
  ignore (Machine.spawn m (fun () -> Sim_mem.write c1 1));
  Machine.set_crash_at_step m 0;
  (match Machine.run m with
  | Machine.Crashed_at _ -> ()
  | Machine.Completed -> Alcotest.fail "expected the configured crash");
  let before = Stats.copy (Machine.stats m) in
  Stats.set_site "test:leak";
  (match Sim_mem.flush c1 with
  | () -> Alcotest.fail "flush of a corrupt cell must raise"
  | exception Machine.Corrupt_read _ -> ());
  Stats.set_site "test:leak";
  (match Sim_mem.cas c2 ~expected:0 ~desired:1 with
  | _ -> Alcotest.fail "cas on a corrupt cell must raise"
  | exception Machine.Corrupt_read _ -> ());
  (* the next counted access must fall back to the default site *)
  Sim_mem.fence ();
  let d = Stats.diff ~after:(Machine.stats m) ~before in
  if List.mem_assoc "test:leak" (Stats.sites d) then
    Alcotest.fail
      "site tag survived Corrupt_read and mis-attributed a later access";
  match List.assoc_opt Stats.app_site (Stats.sites d) with
  | Some s when s.Stats.s_fences = 1 -> ()
  | _ ->
    Alcotest.fail "the fence after the raises must be attributed to [app]"

(* ------------------------------------------------------------------ *)
(* Golden per-site tables                                              *)
(* ------------------------------------------------------------------ *)

(* Every site name with its exact flush, fence and CAS counts: an
   interning, guard or attribution change that moves a single
   instruction to another site (or drops one) fails here, where the
   aggregate-only goldens of test_sched would not notice. *)
type row = string * int * int * int

let table st : row list =
  List.map
    (fun (n, (s : Stats.site)) -> (n, s.s_flushes, s.s_fences, s.s_cas))
    (Stats.sites st)

let list_structure = List.assoc "list" I.structures

let nvt_set key =
  match I.flavour "nvt" with
  | Some f -> I.instantiate_flavour f key (List.assoc key I.structures)
  | None -> assert false

let golden_hash : row list =
  [ ("app", 2048, 1024, 636);
    ("nvt:make_persistent", 668, 1434, 0);
    ("nvt:ensure_reachable", 1434, 0, 0);
    ("nvt:return_fence", 0, 1408, 0);
    ("nvt:crit_fence", 0, 636, 0);
    ("nvt:crit_update", 636, 0, 0);
    ("nvt:crit_flush", 570, 0, 0);
    ("nvt:crit_read", 171, 0, 0) ]

let golden_list : row list =
  [ ("nvt:make_persistent", 859, 436, 0);
    ("nvt:ensure_reachable", 436, 0, 0);
    ("nvt:return_fence", 0, 432, 0);
    ("app", 2, 1, 130);
    ("nvt:crit_fence", 0, 130, 0);
    ("nvt:crit_update", 130, 0, 0);
    ("nvt:crit_flush", 126, 0, 0);
    ("nvt:crit_read", 32, 0, 0) ]

let golden_service : row list =
  [ ("svc:ckpt_flush", 2315, 0, 0);
    ("nvt:make_persistent", 763, 1500, 0);
    ("nvt:ensure_reachable", 1500, 0, 0);
    ("nvt:return_fence", 0, 1500, 0);
    ("svc:ledger_flush", 1500, 0, 0);
    ("svc:commit_flush", 598, 0, 0);
    ("app", 0, 0, 531);
    ("nvt:crit_fence", 0, 531, 0);
    ("nvt:crit_update", 531, 0, 0);
    ("svc:commit_fence", 0, 433, 0);
    ("svc:ledger_fence", 0, 433, 0);
    ("svc:ckpt_commit_fence", 0, 427, 0);
    ("svc:ckpt_commit_flush", 427, 0, 0);
    ("svc:ckpt_fence", 0, 427, 0);
    ("nvt:crit_flush", 354, 0, 0);
    ("nvt:crit_read", 177, 0, 0) ]

(* Every registry flavour on a crashed list run: the izr, lp, flit,
   soft and det wrappers each reach the guard through their own code. *)
let golden_flavours : (string * row list) list =
  [ ("volatile", [ ("app", 0, 0, 69) ]);
    ("nvt",
     [ ("nvt:make_persistent", 357, 183, 0);
       ("nvt:ensure_reachable", 183, 0, 0);
       ("nvt:return_fence", 0, 183, 0);
       ("nvt:crit_flush", 92, 0, 0);
       ("app", 2, 1, 66);
       ("nvt:crit_fence", 0, 66, 0);
       ("nvt:crit_update", 66, 0, 0);
       ("nvt:crit_read", 10, 0, 0) ]);
    ("izraelevitz",
     [ ("izr:load", 6638, 6635, 0);
       ("izr:alloc", 92, 92, 0);
       ("izr:update", 63, 63, 0);
       ("app", 0, 0, 63) ]);
    ("lp",
     [ ("nvt:make_persistent", 0, 184, 0);
       ("nvt:return_fence", 0, 184, 0);
       ("lp:drain", 0, 169, 0);
       ("lp:flush", 169, 0, 0);
       ("lp:mark_clean", 0, 0, 169);
       ("app", 0, 1, 66);
       ("nvt:crit_fence", 0, 66, 0) ]);
    ("flit",
     [ ("flit:racy_read", 219, 219, 0);
       ("flit:alloc", 98, 98, 0);
       ("flit:write_back", 72, 72, 0);
       ("flit:install", 0, 0, 72);
       ("flit:decrement", 0, 0, 71) ]);
    ("soft",
     [ ("app", 0, 0, 226);
       ("soft:persist_insert", 57, 57, 0);
       ("soft:persist_delete", 17, 17, 0) ]);
    ("det",
     [ ("nvt:make_persistent", 359, 184, 0);
       ("det:announce", 95, 95, 0);
       ("det:complete", 92, 92, 0);
       ("nvt:ensure_reachable", 184, 0, 0);
       ("nvt:return_fence", 0, 183, 0);
       ("nvt:crit_flush", 92, 0, 0);
       ("app", 2, 1, 66);
       ("nvt:crit_fence", 0, 66, 0);
       ("nvt:crit_update", 66, 0, 0);
       ("nvt:crit_read", 10, 0, 0) ]) ]

let pp_rows rows =
  String.concat "; "
    (List.map (fun (n, f, e, c) -> Printf.sprintf "%s %d/%d/%d" n f e c) rows)

let check_table what expect got =
  if got <> expect then
    Alcotest.failf "%s site table diverged:\nexpected %s\ngot      %s" what
      (pp_rows expect) (pp_rows got)

let golden_site_tables () =
  let hash =
    Crashlab.run (nvt_set "hash")
      { Crashlab.default_config with
        threads = 64;
        ops_per_thread = 20;
        key_range = 256;
        mix = Workload.updates ~pct:50;
        eviction = Machine.Random_eviction 0.01 }
  in
  if hash.Crashlab.linearizable <> Ok () then Alcotest.fail "hash run failed";
  check_table "nvt hash" golden_hash (table hash.Crashlab.stats);
  let list =
    Crashlab.run (nvt_set "list")
      { Crashlab.default_config with mix = Workload.updates ~pct:30 }
  in
  check_table "nvt list" golden_list (table list.Crashlab.stats);
  let svc =
    Runner.run
      { Runner.default_config with
        requests = 1500;
        checkpoint_interval = 4000;
        plan = Some Nvt_nvm.Optimizer.no_opt }
  in
  if svc.Runner.violations <> [] || svc.Runner.checkpoints = 0 then
    Alcotest.fail "service run must check out and checkpoint";
  check_table "group-commit service" golden_service (table svc.Runner.stats);
  List.iter
    (fun (key, expect) ->
      match I.flavour key with
      | None -> Alcotest.failf "no flavour %s" key
      | Some f ->
        let r =
          Crashlab.run
            (I.instantiate_flavour f "list" list_structure)
            { Crashlab.default_config with
              threads = 3;
              ops_per_thread = 40;
              mix = Workload.updates ~pct:40;
              crash_steps = [ 1500 ] }
        in
        check_table (key ^ " list") expect (table r.Crashlab.stats))
    golden_flavours

(* ------------------------------------------------------------------ *)
(* Site registry                                                       *)
(* ------------------------------------------------------------------ *)

let interning_is_idempotent () =
  let a = Stats.intern "test:reg-a" in
  Alcotest.(check int) "same name, same id" a (Stats.intern "test:reg-a");
  Alcotest.(check string) "id names its site" "test:reg-a" (Stats.name a);
  Alcotest.(check int) "app is pre-registered" Stats.app
    (Stats.intern Stats.app_site);
  if Stats.intern "test:reg-b" = a then
    Alcotest.fail "two names share an id"

(* Two domains register the same fresh names in opposite orders, both
   released at once: each name must end up with exactly one id. *)
let interning_across_domains () =
  let names = List.init 32 (Printf.sprintf "test:dom-%02d") in
  let go = Atomic.make false in
  let spawn order =
    Domain.spawn (fun () ->
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        List.map (fun n -> (n, Stats.intern n)) order)
  in
  let d1 = spawn names and d2 = spawn (List.rev names) in
  Atomic.set go true;
  let ids1 = Domain.join d1 and ids2 = Domain.join d2 in
  List.iter
    (fun n ->
      let i1 = List.assoc n ids1 and i2 = List.assoc n ids2 in
      Alcotest.(check int) (n ^ ": one id on both domains") i1 i2;
      Alcotest.(check string) (n ^ ": id names it") n (Stats.name i1))
    names;
  let ids = List.sort_uniq compare (List.map snd ids1) in
  Alcotest.(check int) "distinct ids" (List.length names) (List.length ids)

(* Site arrays grow on demand, so two records taken at different times
   have different lengths; [diff] and [accumulate] must line them up by
   id, in either direction. *)
let arithmetic_across_lengths () =
  let a = Stats.intern "test:len-a" in
  let short = Stats.zero () in
  Stats.record_flush short ~site:a;
  Stats.record_flush short ~site:a;
  let b = Stats.intern "test:len-b-fresh" in
  let long = Stats.copy short in
  Stats.record_fence long ~site:b;
  Stats.record_cas long ~site:a ~ok:false;
  if Array.length long.by_site <= Array.length short.by_site then
    Alcotest.fail "setup: the later record must have the longer site array";
  let d = Stats.diff ~after:long ~before:short in
  check_table "diff, before shorter"
    [ ("test:len-a", 0, 0, 1); ("test:len-b-fresh", 0, 1, 0) ]
    (table d);
  let back = Stats.copy short in
  Stats.accumulate ~into:back d;
  check_table "accumulate into the shorter" (table long) (table back);
  Alcotest.(check int) "aggregates add up" long.flushes back.flushes;
  let wide = Stats.zero () in
  Stats.record_cas wide ~site:b ~ok:true;
  Stats.accumulate ~into:wide short;
  check_table "accumulate the shorter into the longer"
    [ ("test:len-a", 2, 0, 0); ("test:len-b-fresh", 0, 0, 1) ]
    (table wide);
  let zeros = Stats.diff ~after:wide ~before:wide in
  if Array.length zeros.by_site <= Array.length short.by_site then
    Alcotest.fail "setup: the zero record must have the longer site array";
  check_table "diff, before longer" (table short)
    (table (Stats.diff ~after:short ~before:zeros))

(* ------------------------------------------------------------------ *)
(* Tracing must not perturb                                            *)
(* ------------------------------------------------------------------ *)

(* The machine skips building events when no tracer is installed; with
   one installed it builds them and resolves site names. Neither may
   change what runs: a crashed crashlab run must produce the same
   history, site table and schedule length either way. *)
let tracing_does_not_perturb () =
  let run trace_capacity =
    Crashlab.run (nvt_set "hash")
      { Crashlab.default_config with
        threads = 8;
        ops_per_thread = 40;
        mix = Workload.updates ~pct:50;
        eviction = Machine.Random_eviction 0.01;
        crash_steps = [ 900 ];
        trace_capacity }
  in
  let plain = run 0 and traced = run 64 in
  Alcotest.(check int) "crash fired" 1 traced.Crashlab.crashes_fired;
  if traced.Crashlab.trace = [] || plain.Crashlab.trace <> [] then
    Alcotest.fail "only the traced run records events";
  if plain.Crashlab.history <> traced.Crashlab.history then
    Alcotest.fail "tracing changed the history";
  check_table "traced vs untraced" (table plain.Crashlab.stats)
    (table traced.Crashlab.stats);
  Alcotest.(check int) "same steps" plain.Crashlab.steps traced.Crashlab.steps;
  Alcotest.(check int) "same makespan" plain.Crashlab.makespan
    traced.Crashlab.makespan

(* ------------------------------------------------------------------ *)
(* Regression: throughput op budget                                    *)
(* ------------------------------------------------------------------ *)

(* A set that counts every operation invoked on it; correctness of the
   contents is irrelevant here, only the invocation count. *)
let counted = ref 0

module Counting_set = struct
  type t = (int * int) list Sim_mem.loc

  let create () = Sim_mem.alloc []

  let insert t ~key ~value =
    incr counted;
    let l = Sim_mem.read t in
    if List.mem_assoc key l then false
    else begin
      Sim_mem.write t ((key, value) :: l);
      true
    end

  let delete t k =
    incr counted;
    let l = Sim_mem.read t in
    if List.mem_assoc k l then begin
      Sim_mem.write t (List.remove_assoc k l);
      true
    end
    else false

  let member t k =
    incr counted;
    List.mem_assoc k (Sim_mem.read t)

  let find t k = List.assoc_opt k (Sim_mem.read t)
  let recover _ = ()
  let to_list t = List.sort compare (Sim_mem.read t)
  let size t = List.length (Sim_mem.read t)
  let check_invariants _ = ()
end

(* [Throughput.run] used to compute [per_thread = max 1 (total_ops /
   threads)]: 1000 ops over 64 threads silently ran 960, and
   [total_ops < threads] ran *more* than requested. Exactly [total_ops]
   operations must run, and the reported [ops] must match. *)
let throughput_runs_exactly_total_ops () =
  List.iter
    (fun (total_ops, threads) ->
      let range = 64 in
      (* the prefill loop also calls [insert]; its call count is
         deterministic, so subtract it *)
      let prefill_calls =
        List.length
          (List.filter (fun k -> k < range) (Workload.prefill_keys ~range))
      in
      counted := 0;
      let r =
        T.run
          (module Counting_set)
          ~cost:Nvt_nvm.Cost_model.nvram ~seed:11
          { T.threads; range; mix = Workload.updates ~pct:30; total_ops }
      in
      Alcotest.(check int)
        (Printf.sprintf "executed ops (%d over %d threads)" total_ops threads)
        total_ops
        (!counted - prefill_calls);
      Alcotest.(check int)
        (Printf.sprintf "reported ops (%d over %d threads)" total_ops threads)
        total_ops r.T.ops)
    [ (1000, 64); (3, 8); (64, 64); (100, 7) ]

(* ------------------------------------------------------------------ *)
(* JSON emitter                                                        *)
(* ------------------------------------------------------------------ *)

let json_emitter () =
  let check what expected v =
    Alcotest.(check string) what expected (Json.to_string v)
  in
  check "escaping"
    {|{"s":"a\"b\\c\nd\u0001"}|}
    (Json.Obj [ ("s", Json.Str "a\"b\\c\nd\x01") ]);
  check "non-finite floats are null" {|[null,null,1.5]|}
    (Json.List [ Json.Float Float.nan; Json.Float Float.infinity;
                 Json.Float 1.5 ]);
  check "scalars and nesting"
    {|{"a":1,"b":true,"c":null,"d":[{"x":0.5}]}|}
    (Json.Obj
       [ ("a", Json.Int 1);
         ("b", Json.Bool true);
         ("c", Json.Null);
         ("d", Json.List [ Json.Obj [ ("x", Json.Float 0.5) ] ]) ]);
  (* the shared site-table emitter *)
  let st = Stats.zero () in
  Stats.record_flush st ~site:(Stats.intern "nvt:make_persistent");
  Stats.record_fence st ~site:(Stats.intern "nvt:return_fence");
  check "site table"
    {|[{"site":"nvt:make_persistent","flushes":1,"fences":0,"cas":0},{"site":"nvt:return_fence","flushes":0,"fences":1,"cas":0}]|}
    (Json.sites st)

(* Figure 5a is the paper's headline comparison: it must plot the
   volatile original, NVTraverse, Izraelevitz and FliT at every scale,
   and every series needs sweep points. *)
let panel_5a_plots_the_comparison () =
  List.iter
    (fun scale ->
      match
        List.find_opt
          (fun (p : Nvt_harness.Panels.panel) -> p.id = "5a")
          (Nvt_harness.Panels.panels scale)
      with
      | None -> Alcotest.fail "no panel 5a"
      | Some p ->
        let plotted =
          List.filter_map (fun (s : I.series) -> s.policy) p.series
        in
        List.iter
          (fun want ->
            if not (List.mem want plotted) then
              Alcotest.failf "panel 5a has no %s series" want)
          [ "volatile"; "nvt"; "izraelevitz"; "flit" ];
        (match p.sweep with
        | Threads [] | Range [] | Updates [] ->
          Alcotest.fail "panel 5a sweeps no points"
        | _ -> ()))
    [ Nvt_harness.Panels.Quick; Nvt_harness.Panels.Full ]

let suite =
  [ Alcotest.test_case "sites sum to aggregates (all policies)" `Quick
      sites_sum_to_aggregates;
    Alcotest.test_case "durable policies name >= 3 sites" `Quick
      durable_policies_name_their_sites;
    Alcotest.test_case "nvt sites match the documented registry" `Quick
      nvt_sites_are_documented;
    Alcotest.test_case "event trace is bounded and attributed" `Quick
      trace_is_bounded_and_attributed;
    Alcotest.test_case "event trace records the crash" `Quick
      trace_records_the_crash;
    Alcotest.test_case "unreachable crash step is reported" `Quick
      unreachable_crash_is_reported;
    Alcotest.test_case "reachable crash fires and is counted" `Quick
      reachable_crash_fires;
    Alcotest.test_case "corrupt read consumes the pending site tag" `Quick
      corrupt_read_consumes_site_tag;
    Alcotest.test_case "golden per-site tables" `Quick golden_site_tables;
    Alcotest.test_case "site interning is idempotent" `Quick
      interning_is_idempotent;
    Alcotest.test_case "domains intern one id per name" `Quick
      interning_across_domains;
    Alcotest.test_case "diff and accumulate across array lengths" `Quick
      arithmetic_across_lengths;
    Alcotest.test_case "tracing does not perturb a crashed run" `Quick
      tracing_does_not_perturb;
    Alcotest.test_case "throughput runs exactly total_ops" `Quick
      throughput_runs_exactly_total_ops;
    Alcotest.test_case "json emitter" `Quick json_emitter;
    Alcotest.test_case "panel 5a plots the four-way comparison" `Quick
      panel_5a_plots_the_comparison ]
