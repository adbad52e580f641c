(* The sharded durable service: exactly-once acknowledgement under
   adversarial crashes, deduplicated re-send answers, the group-commit
   fence saving, and a volatile negative control.

   Every [Runner.run] already carries its own oracle (acked exactly
   once, no application after acknowledgement, final state = committed
   replay, audit re-sends answered from the ledger); the tests assert
   its verdict across structures x policies x crash placements. *)

module Machine = Nvt_sim.Machine
module Service = Nvt_service.Service
module Runner = Nvt_service.Runner
module Stats = Nvt_nvm.Stats

let base =
  { Runner.default_config with
    shards = 3;
    clients = 8;
    requests = 120;
    mean_gap = 100;
    key_range = 64;
    update_pct = 60;
    watchdog = 1_000_000 }

let check_clean name (r : Runner.report) =
  (match r.violations with
  | [] -> ()
  | vs ->
    Alcotest.failf "%s: %d violations:@.  %s" name (List.length vs)
      (String.concat "\n  " vs));
  Alcotest.(check int) (name ^ ": all acked") r.config.requests r.acked

(* Crash-free sanity across both modes and a skew sweep. *)
let crash_free () =
  List.iter
    (fun mode ->
      List.iter
        (fun skew ->
          let r = Runner.run { base with mode; skew; flavour = "nvt" } in
          check_clean
            (Printf.sprintf "nvt/%s skew=%.2f" (Service.mode_name mode) skew)
            r;
          Alcotest.(check int)
            "no resends without crashes" 0 r.resent)
        [ 0.0; 0.99 ])
    [ Service.Per_op; Service.Group { timeout = 1500 } ]

(* The acceptance matrix: >= 2 structures x >= 2 policies, seeded
   multi-crash runs in both acknowledgement modes. *)
let crash_matrix () =
  List.iter
    (fun structure ->
      List.iter
        (fun flavour ->
          List.iter
            (fun mode ->
              for seed = 0 to 2 do
                let cfg =
                  { base with
                    structure;
                    flavour;
                    mode;
                    seed = seed + 1;
                    (* the second era's work shrinks with the first
                       crash landing late; 800 keeps the second crash
                       inside the shortest era across the matrix *)
                    crash_steps = [ 900 + (211 * seed); 800 ] }
                in
                let r = Runner.run cfg in
                check_clean
                  (Printf.sprintf "%s/%s/%s seed %d" structure flavour
                     (Service.mode_name mode) seed)
                  r;
                if r.crashes_fired < 2 then
                  Alcotest.failf "%s/%s seed %d: only %d/2 crashes fired"
                    structure flavour seed r.crashes_fired;
                if r.resent = 0 then
                  Alcotest.failf
                    "%s/%s seed %d: crashes fired but nothing was re-sent \
                     (crashes landed outside the active window)"
                    structure flavour seed
              done)
            [ Service.Per_op; Service.Group { timeout = 1500 } ])
        [ "nvt"; "flit" ])
    [ "hash"; "list" ]

(* Dense single-crash placement sweep on one configuration: early
   points land in the first commits, the stride walks the crash across
   ledger flushes, both fences, index writes and ack delivery. *)
let crash_point_sweep () =
  let step = ref 40 in
  let fired_points = ref 0 in
  let past_end = ref false in
  while not !past_end && !step < 10_000 do
    let cfg =
      { base with
        flavour = "nvt";
        mode = Service.Group { timeout = 1500 };
        crash_steps = [ !step ] }
    in
    let r = Runner.run cfg in
    check_clean (Printf.sprintf "sweep crash@%d" !step) r;
    (* once the crash step passes the crash-free run length it stops
       firing: the sweep is over *)
    if r.crashes_fired = 1 then incr fired_points else past_end := true;
    step := !step + 97
  done;
  if !fired_points < 20 then
    Alcotest.failf "sweep covered only %d crash points" !fired_points

(* Crashes under the eviction adversary: cells can persist behind the
   program's back at any step, which must never fake a commit (the
   index is only written after the entries' fence). *)
let crash_with_eviction () =
  for seed = 0 to 2 do
    let cfg =
      { base with
        flavour = "flit";
        seed = 10 + seed;
        eviction = Machine.Random_eviction 0.05;
        crash_steps = [ 700 + (173 * seed) ] }
    in
    let r = Runner.run cfg in
    check_clean (Printf.sprintf "eviction seed %d" seed) r
  done

(* Group commit must save fences: same workload, same seed, strictly
   fewer fences than per-op acknowledgement, attributable to the
   svc:commit_fence/svc:ledger_fence sites. *)
let group_saves_fences () =
  let run mode = Runner.run { base with flavour = "nvt"; mode; requests = 300 } in
  let per_op = run Service.Per_op in
  let group = run (Service.Group { timeout = 2000 }) in
  check_clean "per_op" per_op;
  check_clean "group" group;
  let fences (r : Runner.report) = r.stats.Stats.fences in
  if fences group >= fences per_op then
    Alcotest.failf "group commit saved nothing: %d fences vs %d per-op"
      (fences group) (fences per_op);
  let site_fences (r : Runner.report) name =
    match List.assoc_opt name (Stats.sites r.stats) with
    | Some s -> s.Stats.s_fences
    | None -> 0
  in
  List.iter
    (fun site ->
      let g = site_fences group site and p = site_fences per_op site in
      if g >= p then
        Alcotest.failf "%s: %d fences under group, %d under per-op" site g p)
    [ "svc:ledger_fence"; "svc:commit_fence" ]

(* A batch of B service ops commits under 2 fences instead of 2B: with
   a large batch the svc fence count must collapse to near the number
   of batches. *)
let group_fence_count_scales () =
  let r =
    Runner.run
      { base with
        flavour = "nvt";
        requests = 200;
        mode = Service.Group { timeout = 50_000 } }
  in
  check_clean "large batch" r;
  let svc_fences =
    List.fold_left
      (fun acc (name, s) ->
        if String.length name >= 4 && String.sub name 0 4 = "svc:" then
          acc + s.Stats.s_fences
        else acc)
      0
      (Stats.sites r.stats)
  in
  (* 200 requests / batch 32 -> at most ~30 commit batches even with
     ragged tails; 2 fences each, far below per-op's 400 *)
  if svc_fences > 120 then
    Alcotest.failf "batch=32 used %d svc fences for 200 requests" svc_fences

(* The volatile policy is the negative control: its shard stores lose
   durability, so a crash must surface as a corrupt read or an oracle
   violation — the service layer alone cannot grant exactly-once. *)
let volatile_control () =
  let failures = ref 0 in
  for seed = 0 to 4 do
    let cfg =
      { base with
        flavour = "volatile";
        seed = 20 + seed;
        update_pct = 80;
        crash_steps = [ 800 + (131 * seed) ] }
    in
    match Runner.run cfg with
    | exception Machine.Corrupt_read _ -> incr failures
    | r -> if r.violations <> [] then incr failures
  done;
  if !failures = 0 then
    Alcotest.fail
      "volatile service survived every crash; the oracle is not detecting \
       lost acknowledged state"

(* Detectable recovery at the service layer: descriptor-based dedup
   rebuild under crashes and checkpoints (slot reuse is what the stale
   descriptor nulling defends), with the runner's op_status oracle
   armed — every acknowledged request must answer [Completed] at every
   recovered quiescent point. *)
let detect_exactly_once () =
  for seed = 0 to 2 do
    let cfg =
      { base with
        structure = "hash";
        flavour = "nvt";
        detect = true;
        mode = Service.Group { timeout = 1500 };
        checkpoint_interval = 1500;
        seed = seed + 1;
        crash_steps = [ 900 + (211 * seed); 800 ] }
    in
    let r = Runner.run cfg in
    check_clean (Printf.sprintf "detect seed %d" seed) r;
    if r.crashes_fired < 2 then
      Alcotest.failf "detect seed %d: only %d/2 crashes fired" seed
        r.crashes_fired;
    (* descriptors actually carried the recovery: the flush site is live *)
    match List.assoc_opt "svc:desc_flush" (Stats.sites r.stats) with
    | Some s when s.Stats.s_flushes > 0 -> ()
    | _ -> Alcotest.failf "detect seed %d: svc:desc_flush never fired" seed
  done;
  (* the det policy combo: store-level descriptors and service-level
     descriptors in the same run *)
  let r =
    Runner.run
      { base with
        flavour = "det";
        detect = true;
        seed = 7;
        crash_steps = [ 700; 700 ] }
  in
  check_clean "det policy + detect recovery" r

(* The status query itself, at the service surface: in detect mode an
   unseen (client, seq) soundly answers [Not_applied]; without detect
   the dedup table cannot distinguish never-committed from merely
   unseen, so the same query answers [Unknown]; and a durably committed
   entry answers [Completed] with its recorded result after recovery. *)
let detect_status_query () =
  let _m = Machine.create ~seed:1 () in
  let fl =
    match Nvt_harness.Instances.flavour "nvt" with
    | Some f -> f
    | None -> assert false
  in
  let mk detect =
    Service.create ~detect
      ~structure:(module Nvt_structures.Harris_list)
      ~flavour:fl ~shards:1 ~mode:Service.Per_op ()
  in
  let sd = mk true and sn = mk false in
  Alcotest.(check bool) "detect_enabled" true (Service.detect_enabled sd);
  Alcotest.(check bool) "not detect_enabled" false (Service.detect_enabled sn);
  let name (st, _) = Nvt_nvm.Detectable.status_name st in
  Alcotest.(check string)
    "detect: unseen request is not-applied" "not-applied"
    (name (Service.op_status sd ~client:7 ~seq:0));
  Alcotest.(check string)
    "no detect: unseen request is unknown" "unknown"
    (name (Service.op_status sn ~client:7 ~seq:0));
  Service.inject_committed sd
    [ { Service.e_client = 3; e_seq = 0; e_op = Service.Put (1, 1);
        e_res = Service.Done true } ];
  Service.recover sd;
  (match Service.op_status sd ~client:3 ~seq:0 with
  | Nvt_nvm.Detectable.Completed, Some (Service.Done true) -> ()
  | st, _ ->
    Alcotest.failf "committed request answers %s, not completed"
      (Nvt_nvm.Detectable.status_name st));
  (* a later seq for the same client supersedes: still not-applied *)
  Alcotest.(check string)
    "detect: next seq not yet applied" "not-applied"
    (name (Service.op_status sd ~client:3 ~seq:1))

(* Latency sanity: percentiles are ordered and positive; open-loop
   latencies include queueing so p99 >= p50 > 0. *)
let latency_sane () =
  let r =
    Runner.run
      { base with flavour = "nvt"; mode = Service.Per_op; requests = 200 }
  in
  check_clean "latency run" r;
  let l = r.latency in
  if not (l.p50 > 0 && l.p50 <= l.p95 && l.p95 <= l.p99 && l.p99 <= l.lmax)
  then
    Alcotest.failf "percentiles out of order: p50=%d p95=%d p99=%d max=%d"
      l.p50 l.p95 l.p99 l.lmax

let suite =
  [ Alcotest.test_case "crash-free, both modes" `Quick crash_free;
    Alcotest.test_case "exactly-once matrix (2 structures x 2 policies)"
      `Quick crash_matrix;
    Alcotest.test_case "crash placement sweep" `Quick crash_point_sweep;
    Alcotest.test_case "crashes under eviction" `Quick crash_with_eviction;
    Alcotest.test_case "group commit saves fences" `Quick group_saves_fences;
    Alcotest.test_case "group fence count scales with batch" `Quick
      group_fence_count_scales;
    Alcotest.test_case "volatile negative control" `Quick volatile_control;
    Alcotest.test_case "detectable recovery: exactly-once under crashes"
      `Quick detect_exactly_once;
    Alcotest.test_case "detectable recovery: status query" `Quick
      detect_status_query;
    Alcotest.test_case "latency percentiles" `Quick latency_sane ]
