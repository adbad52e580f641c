(* The persistence optimizer and this PR's flush-accounting fixes.

   Four concerns share the suite:
   - engine accounting: the traversal/critical boundary deduplicates
     same-line flushes (pinned counts for a node-revisiting traversal —
     the double-flush regression), and the empty-drain rule skips the
     boundary fence only on a clean first attempt;
   - simulator fidelity: a flush of a *clean* line and a cache eviction
     both invalidate the line, so the next read pays the miss (the
     eviction half is the regression this PR fixed);
   - optimizer semantics: a golden flushes/fences table per structure x
     policy (the volatile control erases to zero), a qcheck property
     that optimized and unoptimized runs produce identical operation
     histories, and a crash-sweep battery with the optimizer enabled;
   - the durable multi-put/RMW service ops under the exactly-once
     oracle, crashed and checkpointed.

   Elision lists used here mirror the committed mutation report's
   allowlisted candidate-redundant verdicts (nvt:crit_read under nvt;
   the critical/return fences under lp); the substantive durability
   proof for shipped plans is `nvtsim mutate --optimize` in CI, not
   this suite. *)

open Support
module Optimizer = Nvm.Optimizer
module Stats = Nvm.Stats
module Runner = Nvt_service.Runner
module Service = Nvt_service.Service

let nvt_plan = { Optimizer.defer = true; elide = [ "nvt:crit_read" ] }

let lp_plan =
  { Optimizer.defer = true;
    elide = [ "nvt:crit_fence"; "nvt:return_fence" ] }

(* defer-only: sound for every policy without any proof obligation *)
let defer_plan = { Optimizer.no_opt with defer = true }

let plan_for policy =
  match policy with
  | "nvt" -> nvt_plan
  | "lp" -> lp_plan
  | _ -> defer_plan

(* ------------------------------------------------------------------ *)
(* Engine accounting: boundary dedup and the empty-drain fence rule    *)
(* ------------------------------------------------------------------ *)

(* A toy operation driven straight through the engine functor: the
   boundary names the same cell as both reach parents and twice in the
   persist set — the shape a node-revisiting traversal (e.g. a parent
   that is also a returned node's field) produces — and marks each
   entry a duplicate by physical equality with the earlier ones, as the
   structures' boundaries do. One flush per distinct line must be
   issued; before the dedup fix this charged five flushes instead of
   two. *)
let boundary_dedup () =
  (* dedup is counted even with no plan installed; reset the ambient
     counters so earlier suites' coalescing doesn't leak in *)
  Optimizer.set None;
  let m = Machine.create () in
  let (module Pol : I.POLICY) = (Option.get (I.flavour "nvt")).policy in
  let module A = Pol.Apply (Sim_mem) in
  let module E = Nvt_core.Engine.Make (A.Mem) (A.P) in
  let c = A.Mem.alloc 0 and d = A.Mem.alloc 1 in
  let before = Stats.copy (Machine.stats m) in
  let v =
    E.operation
      ~find_entry:(fun () -> ())
      ~traverse:(fun () () -> ())
      ~boundary:(fun () ~clean ->
        (* reach [r1; r2], then persist [p1; p2; p3] *)
        let r1 = c and r2 = c and p1 = c and p2 = d and p3 = c in
        let issued = E.reach ~dup:false r1 in
        let issued = issued + E.reach ~dup:(r2 == r1) r2 in
        let reached l = l == r1 || l == r2 in
        let issued = issued + E.persist ~dup:(reached p1) p1 in
        let issued = issued + E.persist ~dup:(reached p2 || p2 == p1) p2 in
        let issued =
          issued + E.persist ~dup:(reached p3 || p3 == p1 || p3 == p2) p3
        in
        E.end_boundary ~clean ~mentions:5 ~issued)
      ~critical:(fun () () -> E.Finish 7)
      ()
  in
  Alcotest.(check int) "operation result" 7 v;
  let diff = Stats.diff ~after:(Machine.stats m) ~before in
  Alcotest.(check int) "one flush per distinct line" 2 diff.Stats.flushes;
  Alcotest.(check int) "boundary + return fence" 2 diff.Stats.fences;
  Alcotest.(check int) "three same-line duplicates coalesced" 3
    (Optimizer.counters ()).Optimizer.coalesced_flushes

(* Empty-drain rule: with deferral on, a boundary that issued no
   flushes skips its fence — but only on a clean first attempt; a
   restarted attempt may carry unfenced Protocol 2 flushes from the
   aborted critical section, so its boundary fence stays. *)
let empty_drain_fence () =
  let check ~plan ~restarts ~want_fences ~want_elided name =
    let m = Machine.create () in
    Optimizer.set plan;
    Fun.protect ~finally:(fun () -> Optimizer.set None) @@ fun () ->
    let (module Pol : I.POLICY) = (Option.get (I.flavour "nvt")).policy in
    let module A = Pol.Apply (Sim_mem) in
    let module E = Nvt_core.Engine.Make (A.Mem) (A.P) in
    let before = Stats.copy (Machine.stats m) in
    let left = ref restarts in
    ignore
      (E.operation
         ~find_entry:(fun () -> ())
         ~traverse:(fun () () -> ())
         ~boundary:(fun () ~clean ->
           E.end_boundary ~clean ~mentions:0 ~issued:0)
         ~critical:(fun () () ->
           if !left > 0 then begin
             decr left;
             E.Restart
           end
           else E.Finish 0)
         ());
    let diff = Stats.diff ~after:(Machine.stats m) ~before in
    Alcotest.(check int) (name ^ ": fences") want_fences diff.Stats.fences;
    Alcotest.(check int)
      (name ^ ": elided fences")
      want_elided
      (Optimizer.counters ()).Optimizer.elided_fences
  in
  (* no plan: both boundary fences and the return fence are issued *)
  check ~plan:None ~restarts:0 ~want_fences:2 ~want_elided:0 "no plan";
  (* deferred, clean: the empty boundary fence is skipped *)
  check ~plan:(Some defer_plan) ~restarts:0 ~want_fences:1 ~want_elided:1
    "deferred clean";
  (* deferred, one restart: the first (clean) boundary is skipped, the
     restarted attempt's boundary fence is not *)
  check ~plan:(Some defer_plan) ~restarts:1 ~want_fences:2 ~want_elided:1
    "deferred restart"

(* ------------------------------------------------------------------ *)
(* Simulator fidelity: invalidation on flush and on eviction           *)
(* ------------------------------------------------------------------ *)

let cost = Nvt_nvm.Cost_model.nvram

(* Flushing a CLEAN line writes nothing back, but still removes the
   line from the cache: the next read must pay the miss. *)
let clean_flush_invalidates () =
  let m = Machine.create () in
  let c = Machine.alloc 0 in
  Machine.write c 1;
  Machine.flush c;
  Machine.fence ();
  (* setup-mode flush: the line is now clean (persisted = volatile) *)
  let hit = ref 0 and miss = ref 0 and recached = ref 0 in
  ignore
    (Machine.spawn m (fun () ->
         ignore (Machine.read c);
         let t0 = Machine.now m in
         ignore (Machine.read c);
         let t1 = Machine.now m in
         hit := t1 - t0;
         Machine.flush c;
         let t2 = Machine.now m in
         ignore (Machine.read c);
         let t3 = Machine.now m in
         miss := t3 - t2;
         ignore (Machine.read c);
         recached := Machine.now m - t3));
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> assert false);
  Alcotest.(check int) "cached re-read pays the hit" cost.read_hit !hit;
  Alcotest.(check int) "read after a clean-line flush pays the miss"
    cost.read_miss !miss;
  Alcotest.(check int) "the missing read re-caches the line" cost.read_hit
    !recached

(* An eviction also removes the line from the cache — the regression
   this PR fixed: [maybe_evict] persisted the line but left it marked
   cached, so post-eviction reads were charged hits. *)
let eviction_invalidates () =
  let m = Machine.create ~eviction:(Machine.Random_eviction 1.0) () in
  let c = Machine.alloc 0 in
  let miss = ref 0 in
  ignore
    (Machine.spawn m (fun () ->
         Machine.write c 9;
         (* the write dirtied the sole cell; at probability 1.0 the very
            next scheduling step evicts it *)
         Machine.fence ();
         let t0 = Machine.now m in
         ignore (Machine.read c);
         miss := Machine.now m - t0));
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> assert false);
  Alcotest.(check int) "read after eviction pays the miss" cost.read_miss
    !miss

(* ------------------------------------------------------------------ *)
(* Golden flushes/fences table per structure x policy                  *)
(* ------------------------------------------------------------------ *)

type opres = R of bool | F of int option

(* One fixed single-threaded workload (deterministic in the seed), its
   flush/fence totals and its full operation history. *)
let run_once (module S : SET) ~plan =
  Optimizer.set plan;
  Fun.protect ~finally:(fun () -> Optimizer.set None) @@ fun () ->
  let m = Machine.create ~seed:7 () in
  let s = S.create () in
  List.iter (fun k -> ignore (S.insert s ~key:k ~value:k)) [ 2; 5; 11; 17 ];
  Machine.persist_all m;
  let before = Stats.copy (Machine.stats m) in
  let hist = ref [] in
  ignore
    (Machine.spawn m (fun () ->
         let rng = Random.State.make [| 7; 42 |] in
         for _ = 1 to 250 do
           let k = Random.State.int rng 32 in
           let r =
             match Random.State.int rng 5 with
             | 0 | 1 -> R (S.insert s ~key:k ~value:(k * 3))
             | 2 -> R (S.delete s k)
             | 3 -> R (S.member s k)
             | _ -> F (S.find s k)
           in
           hist := (k, r) :: !hist
         done));
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> assert false);
  let diff = Stats.diff ~after:(Machine.stats m) ~before in
  ((diff.Stats.flushes, diff.Stats.fences), List.rev !hist)

(* The golden table: totals for the fixed workload above, base and
   optimized, every structure x policy in the registry. Regenerate by
   running this test and copying the table it prints on mismatch —
   these numbers are the accounting contract, so any engine or policy
   change that moves them must be deliberate. *)
let golden =
  [ ("list", "volatile", (0, 0), (0, 0));
    ("list", "nvt", (945, 601), (917, 601));
    ("list", "izraelevitz", (5351, 5351), (5351, 5351));
    ("list", "lp", (191, 792), (191, 441));
    ("list", "flit", (191, 191), (191, 191));
    ("list", "soft", (73, 73), (73, 73));
    ("list", "det", (1263, 919), (1263, 919));
    ("hash", "volatile", (0, 0), (0, 0));
    ("hash", "nvt", (603, 601), (575, 601));
    ("hash", "izraelevitz", (1005, 1005), (1005, 1005));
    ("hash", "lp", (191, 792), (191, 441));
    ("hash", "flit", (191, 191), (191, 191));
    ("hash", "soft", (73, 73), (73, 73));
    ("hash", "det", (921, 919), (921, 919));
    ("bst-ellen", "volatile", (0, 0), (0, 0));
    ("bst-ellen", "nvt", (2128, 747), (2008, 747));
    ("bst-ellen", "izraelevitz", (6202, 6202), (6202, 6202));
    ("bst-ellen", "lp", (517, 1264), (517, 767));
    ("bst-ellen", "flit", (517, 517), (517, 517));
    ("bst-nm", "volatile", (0, 0), (0, 0));
    ("bst-nm", "nvt", (1393, 629), (1309, 629));
    ("bst-nm", "izraelevitz", (4102, 4102), (4102, 4102));
    ("bst-nm", "lp", (309, 938), (309, 559));
    ("bst-nm", "flit", (309, 309), (309, 309));
    ("skiplist", "volatile", (0, 0), (0, 0));
    ("skiplist", "nvt", (945, 601), (917, 601));
    ("skiplist", "izraelevitz", (9894, 9894), (9894, 9894));
    ("skiplist", "lp", (191, 792), (191, 441));
    ("skiplist", "flit", (415, 415), (415, 415)) ]

let golden_table () =
  let measured =
    List.concat_map
      (fun (skey, (module Str : I.STRUCTURE)) ->
        List.filter_map
          (fun (f : I.flavour) ->
            if not (I.supports f skey) then None
            else begin
              let set = I.instantiate_flavour f skey (module Str) in
              let base, h0 = run_once set ~plan:None in
              let opt, h1 = run_once set ~plan:(Some (plan_for f.key)) in
              if h0 <> h1 then
                Alcotest.failf "%s/%s: optimized history diverges" skey f.key;
              Some (skey, f.key, base, opt)
            end)
          I.flavours)
      I.structures
  in
  if measured <> golden then begin
    let pp (s, p, (bf, bn), (of_, on)) =
      Printf.sprintf "    (%S, %S, (%d, %d), (%d, %d));" s p bf bn of_ on
    in
    Alcotest.failf
      "golden flush/fence table drifted; measured:\n%s"
      (String.concat "\n" (List.map pp measured))
  end;
  (* the structural claims behind the numbers, independent of the pins *)
  List.iter
    (fun (s, p, (bf, bn), (of_, on)) ->
      let durable =
        match I.flavour p with
        | Some f ->
          let (module Pol : I.POLICY) = f.policy in
          Pol.durable
        | None -> false
      in
      if not durable then (
        if (bf, bn, of_, on) <> (0, 0, 0, 0) then
          Alcotest.failf "%s/%s: volatile control has persistence traffic" s
            p)
      else begin
        if of_ > bf || on > bn then
          Alcotest.failf "%s/%s: the optimizer increased traffic" s p;
        if p = "nvt" && of_ >= bf then
          Alcotest.failf "%s/%s: crit_read elision + dedup saved nothing" s p;
        if p = "lp" && on >= bn then
          Alcotest.failf "%s/%s: fence elision saved nothing" s p
      end)
    golden

(* ------------------------------------------------------------------ *)
(* Property: optimization never changes an operation history           *)
(* ------------------------------------------------------------------ *)

let history_preserved =
  QCheck.Test.make ~count:40
    ~name:"optimized runs produce identical histories (any seed/mix)"
    QCheck.(
      triple (int_bound 1000) (int_bound 3)
        (make ~print:Print.(list (pair int int))
           Gen.(list_size (int_bound 120) (pair (int_bound 24) (int_bound 4)))))
    (fun (seed, which, ops) ->
      let skey = List.nth [ "list"; "hash"; "bst-nm"; "skiplist" ] which in
      let str = List.assoc skey I.structures in
      let run policy plan =
        let (module S : SET) =
          I.instantiate str
            (Option.get (I.flavour policy)).I.policy
        in
        Optimizer.set plan;
        Fun.protect ~finally:(fun () -> Optimizer.set None) @@ fun () ->
        let _m = Machine.create ~seed () in
        let s = S.create () in
        List.map
          (fun (k, op) ->
            match op with
            | 0 | 1 -> R (S.insert s ~key:k ~value:k)
            | 2 -> R (S.delete s k)
            | 3 -> R (S.member s k)
            | _ -> F (S.find s k))
          ops
        @ [ F (Some (List.length (S.to_list s))) ]
      in
      run "nvt" None = run "nvt" (Some nvt_plan)
      && run "lp" None = run "lp" (Some lp_plan))

(* ------------------------------------------------------------------ *)
(* Crash-sweep battery with the optimizer enabled                      *)
(* ------------------------------------------------------------------ *)

let optimized_crash_sweep () =
  List.iter
    (fun (skey, policy) ->
      let str = List.assoc skey I.structures in
      let set = I.instantiate str (Option.get (I.flavour policy)).I.policy in
      Optimizer.set (Some (plan_for policy));
      Fun.protect ~finally:(fun () -> Optimizer.set None) @@ fun () ->
      List.iter
        (fun eviction ->
          for seed = 0 to 7 do
            let r =
              run_workload set ~seed ~threads:4 ~ops:40 ~key_range:8
                ~prefill:4 ~eviction
                ~crash_at_step:(100 + (67 * seed))
                ()
            in
            Alcotest.(check bool) "crashed" true r.crashed;
            check_linearizable
              ~what:
                (Printf.sprintf "%s/%s optimized crash seed %d" skey policy
                   seed)
              r
          done)
        [ Machine.No_eviction; Machine.Random_eviction 0.05 ])
    [ ("list", "nvt"); ("hash", "nvt"); ("list", "lp"); ("bst-nm", "lp") ]

(* ------------------------------------------------------------------ *)
(* Durable multi-put / RMW under the service oracle                    *)
(* ------------------------------------------------------------------ *)

let svc_base =
  { Runner.default_config with
    shards = 3;
    clients = 8;
    requests = 120;
    mean_gap = 100;
    key_range = 64;
    update_pct = 60;
    multi_pct = 25;
    multi_k = 5;
    rmw_pct = 15;
    watchdog = 1_000_000 }

let check_clean name (r : Runner.report) =
  (match r.violations with
  | [] -> ()
  | vs ->
    Alcotest.failf "%s: %d violations:@.  %s" name (List.length vs)
      (String.concat "\n  " vs));
  Alcotest.(check int) (name ^ ": all acked") r.config.requests r.acked;
  if r.multi_puts = 0 then Alcotest.failf "%s: no multi-puts issued" name;
  if r.rmws = 0 then Alcotest.failf "%s: no RMWs issued" name

(* Crash matrix: mixed scalar/multi-put/RMW traffic must stay
   exactly-once across structures, ack modes, crash placements, and
   checkpointed recovery — with and without an optimizer plan. *)
let multi_put_crash_matrix () =
  List.iter
    (fun structure ->
      List.iter
        (fun mode ->
          for seed = 0 to 2 do
            let cfg =
              { svc_base with
                structure;
                mode;
                seed = seed + 1;
                crash_steps = [ 900 + (211 * seed); 800 ] }
            in
            let r = Runner.run cfg in
            check_clean
              (Printf.sprintf "%s/%s seed %d" structure
                 (Service.mode_name mode) seed)
              r;
            Alcotest.(check int)
              "both crashes fired" 2 r.crashes_fired
          done)
        [ Service.Per_op; Service.Group { timeout = 1500 } ])
    [ "hash"; "list" ]

let multi_put_optimized_and_checkpointed () =
  let cfg =
    { svc_base with
      flavour = "nvt";
      plan = Some nvt_plan;
      checkpoint_interval = 1200;
      crash_steps = [ 900 ];
      recovery_crashes = [ 60 ] }
  in
  let r = Runner.run cfg in
  check_clean "optimized+ckpt multi-put" r;
  Alcotest.(check int) "crash fired" 1 r.crashes_fired;
  if r.checkpoints = 0 then Alcotest.fail "no checkpoints committed"

(* The request-level semantics of the new ops, no crash: a multi-put is
   one atomic batch of fresh-key puts acknowledged as one request; an
   RMW returns the pre-image and leaves the incremented value. *)
let multi_put_semantics () =
  let m = Machine.create () in
  let t =
    Service.create
      ~structure:(List.assoc "hash" I.structures)
      ~flavour:(Option.get (I.flavour "nvt"))
      ~shards:2 ~mode:Service.Per_op ()
  in
  let acks = Hashtbl.create 8 in
  Service.set_on_ack t (fun (req : Service.request) res ~dedup:_ ->
      Hashtbl.replace acks req.seq res);
  (* two keys on the same shard *)
  let k1 = 0 in
  let k2 =
    let same k = Service.global_shard ~shards:2 k = Service.global_shard ~shards:2 k1 in
    let rec find k = if same k && k <> k1 then k else find (k + 1) in
    find 1
  in
  Service.start t m;
  List.iteri
    (fun seq op -> Service.submit t { Service.client = 0; seq; op })
    [ Service.Multi_put [ (k1, 10); (k2, 20) ];
      Service.Rmw (k1, 5);
      Service.Get k1;
      Service.Multi_put [ (k1, 1); (k2, 2) ] ];
  Service.request_stop t;
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> assert false);
  let res seq =
    match Hashtbl.find_opt acks seq with
    | Some r -> r
    | None -> Alcotest.failf "request %d never acknowledged" seq
  in
  (match res 0 with
  | Service.Done true -> ()
  | _ -> Alcotest.fail "multi-put of fresh keys must report all-fresh");
  (match res 1 with
  | Service.Value (Some 10) -> ()
  | _ -> Alcotest.fail "rmw must return the pre-image");
  (match res 2 with
  | Service.Value (Some 15) -> ()
  | _ -> Alcotest.fail "rmw must leave the incremented value");
  (match res 3 with
  | Service.Done false -> ()
  | _ -> Alcotest.fail "multi-put onto existing keys must report not-fresh");
  Alcotest.(check (list (pair int int)))
    "final contents"
    (List.sort compare [ (k1, 15); (k2, 20) ])
    (List.sort compare (Service.contents t))

let suite =
  [ Alcotest.test_case "boundary flushes are deduplicated per line" `Quick
      boundary_dedup;
    Alcotest.test_case "empty-drain boundaries skip their fence" `Quick
      empty_drain_fence;
    Alcotest.test_case "clean-line flush invalidates the cache line" `Quick
      clean_flush_invalidates;
    Alcotest.test_case "eviction invalidates the cache line" `Quick
      eviction_invalidates;
    Alcotest.test_case "golden flush/fence table" `Quick golden_table;
    QCheck_alcotest.to_alcotest history_preserved;
    Alcotest.test_case "crash sweep with the optimizer enabled" `Quick
      optimized_crash_sweep;
    Alcotest.test_case "multi-put/rmw crash matrix" `Quick
      multi_put_crash_matrix;
    Alcotest.test_case "multi-put under optimizer + checkpointed recovery"
      `Quick multi_put_optimized_and_checkpointed;
    Alcotest.test_case "multi-put and rmw semantics" `Quick
      multi_put_semantics ]
