(* The sharded durable service: exactly-once acknowledgement under
   adversarial crashes, deduplicated re-send answers, the group-commit
   fence saving, and a volatile negative control.

   Every [Runner.run] already carries its own oracle (acked exactly
   once, no application after acknowledgement, final state = committed
   replay, audit re-sends answered from the ledger); the tests assert
   its verdict across structures x policies x crash placements. *)

module Machine = Nvt_sim.Machine
module Sim_mem = Nvt_sim.Memory
module Service = Nvt_service.Service
module Runner = Nvt_service.Runner
module Oracle = Nvt_service.Oracle
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
  let m = Machine.create ~seed:1 () in
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
  Service.spawn_recovery sd m;
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> Alcotest.fail "recovery crashed");
  (match Service.op_status sd ~client:3 ~seq:0 with
  | Nvt_nvm.Detectable.Completed, Some (Service.Done true) -> ()
  | st, _ ->
    Alcotest.failf "committed request answers %s, not completed"
      (Nvt_nvm.Detectable.status_name st));
  (* a later seq for the same client supersedes: still not-applied *)
  Alcotest.(check string)
    "detect: next seq not yet applied" "not-applied"
    (name (Service.op_status sd ~client:3 ~seq:1))

(* [request_stop] right after [submit] must still drain: every submitted
   request is applied, committed and acknowledged before the threads
   exit. The group committer once exited at the first boundary with
   nothing pending, while the workers were still applying — the
   requests reached the store but were never committed or acked. *)
let stop_drains_group_commit () =
  List.iter
    (fun (timeout, n) ->
      let m = Machine.create ~seed:1 () in
      Machine.set_current m;
      let structure = List.assoc "hash" Nvt_harness.Instances.structures in
      let flavour =
        match Nvt_harness.Instances.flavour "nvt" with
        | Some f -> f
        | None -> assert false
      in
      let svc =
        Service.create ~structure ~flavour ~shards:2
          ~mode:(Service.Group { timeout }) ()
      in
      Machine.persist_all m;
      let acked = ref 0 in
      Service.set_on_ack svc (fun _ _ ~dedup:_ -> incr acked);
      Service.start svc m;
      for i = 0 to n - 1 do
        Service.submit svc
          { Service.client = i; seq = 0; op = Service.Put (i, i) }
      done;
      Service.request_stop svc;
      (match Machine.run m with
      | Machine.Completed -> ()
      | Machine.Crashed_at _ -> assert false);
      let name = Printf.sprintf "group%d, %d puts" timeout n in
      Alcotest.(check int) (name ^ ": in the store") n
        (List.length (Service.contents svc));
      Alcotest.(check int) (name ^ ": committed") n
        (Service.committed_total svc);
      Alcotest.(check int) (name ^ ": acked") n !acked)
    [ (100, 10); (1000, 200) ]

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

(* Golden runner reports, recorded before the runner was split into an
   arrival schedule, an oracle and one barrier driver: the exact
   [pp_report] text (trailing blanks and newline trimmed) and an MD5 of the
   per-shard apply histories of six runs — group commit with
   checkpoints, per-op commit on two domains with three era crashes and
   a recovery crash, the det policy with detectable recovery under
   crashes, the same with checkpoint truncation (whose group
   checkpoints force-commit entries the committer has not reached, so
   descriptors are written outside the boundary commit), per-op commit
   with checkpoints, multi-puts, read-modify-writes and a recovery
   crash, and the volatile negative control with its violation. The
   two checkpointed crash runs were recorded before the service was
   split into a ledger, a descriptor store and a committer choice. A
   change to the runner or the service that is meant to preserve
   behaviour must leave all six byte-identical. *)
let golden_reports =
  [
    ( "group-ckpt",
      (fun () ->
        { base with
          mode = Service.Group { timeout = 1500 };
          checkpoint_interval = 1500 }),
      "48744c66eb886a6177f71e9efb6ea8b4",
      {|service hash/nvt shards=3 domains=1 clients=8 mode=group1500 dist=zipf(0.99)
  acked 120/120  applies 120  resent 0  dedup 0  audit 8
  crashes 0/0  eras 1  steps 4319  makespan 93082
  checkpoints 52  truncated 120  recovery crashes 0/0
  latency p50 30912  p95 65289  p99 78018  max 80948  mean 31888.0
  fences/op 4.050  flushes/op 5.767  committed 120
  reads=399 writes=120 cas=56 cas_fail=0 flushes=692 fences=486 allocs=312
  sites:
    nvt:make_persistent      flushes=65     fences=120    cas=0
    svc:ckpt_flush           flushes=156    fences=0      cas=0
    nvt:ensure_reachable     flushes=120    fences=0      cas=0
    nvt:return_fence         flushes=0      fences=120    cas=0
    svc:ledger_flush         flushes=120    fences=0      cas=0
    svc:commit_flush         flushes=68     fences=0      cas=0
    app                      flushes=0      fences=0      cas=56
    nvt:crit_fence           flushes=0      fences=56     cas=0
    nvt:crit_update          flushes=56     fences=0      cas=0
    svc:ckpt_commit_fence    flushes=0      fences=52     cas=0
    svc:ckpt_commit_flush    flushes=52     fences=0      cas=0
    svc:ckpt_fence           flushes=0      fences=52     cas=0
    svc:commit_fence         flushes=0      fences=43     cas=0
    svc:ledger_fence         flushes=0      fences=43     cas=0
    nvt:crit_flush           flushes=36     fences=0      cas=0
    nvt:crit_read            flushes=19     fences=0      cas=0
  exactly-once: OK|} );
    ( "per-op-crashes",
      (fun () ->
        { base with
          mode = Service.Per_op;
          domains = 2;
          crash_steps = [ 900; 800; 700 ];
          recovery_crashes = [ 40 ] }),
      "54ea7cb4cda6f55c6ae1b6be9c4234ec",
      {|service hash/nvt shards=3 domains=2 clients=8 mode=per_op dist=zipf(0.99)
  acked 120/120  applies 121  resent 16  dedup 1  audit 8
  crashes 3/3  eras 4  steps 21864  makespan 102547
  checkpoints 0  truncated 0  recovery crashes 1/1
  recovery: replayed 246 entries in 19193 steps (40500 time units)
  latency p50 53391  p95 82171  p99 89819  max 91255  mean 44284.8
  fences/op 4.567  flushes/op 4.592  committed 120
  reads=19830 writes=121 cas=59 cas_fail=0 flushes=551 fences=548 allocs=161
  sites:
    nvt:make_persistent      flushes=65     fences=124    cas=0
    nvt:ensure_reachable     flushes=124    fences=0      cas=0
    nvt:return_fence         flushes=0      fences=122    cas=0
    svc:ledger_fence         flushes=0      fences=121    cas=0
    svc:ledger_flush         flushes=121    fences=0      cas=0
    svc:commit_fence         flushes=0      fences=120    cas=0
    svc:commit_flush         flushes=120    fences=0      cas=0
    app                      flushes=1      fences=1      cas=59
    nvt:crit_fence           flushes=0      fences=60     cas=0
    nvt:crit_update          flushes=59     fences=0      cas=0
    nvt:crit_flush           flushes=40     fences=0      cas=0
    nvt:crit_read            flushes=21     fences=0      cas=0
  exactly-once: OK|} );
    ( "det-detect",
      (fun () ->
        { base with flavour = "det"; detect = true; crash_steps = [ 700; 700 ] }),
      "fa4cceeac62ccc115f31ea664e4a902b",
      {|service hash/det shards=3 domains=1 clients=8 mode=group2000+detect dist=zipf(0.99)
  acked 120/120  applies 131  resent 16  dedup 0  audit 8
  crashes 2/2  eras 3  steps 17661  makespan 146047
  recovery: replayed 60 entries in 12908 steps (40000 time units)
  latency p50 73789  p95 111891  p99 129620  max 133550  mean 67311.6
  fences/op 5.025  flushes/op 7.108  committed 120
  reads=13335 writes=301 cas=63 cas_fail=0 flushes=853 fences=603 allocs=280
  sites:
    nvt:make_persistent      flushes=72     fences=138    cas=0
    det:announce             flushes=87     fences=87     cas=0
    det:complete             flushes=84     fences=84     cas=0
    nvt:ensure_reachable     flushes=138    fences=0      cas=0
    svc:desc_flush           flushes=136    fences=0      cas=0
    nvt:return_fence         flushes=0      fences=135    cas=0
    svc:ledger_flush         flushes=128    fences=0      cas=0
    svc:commit_flush         flushes=81     fences=0      cas=0
    app                      flushes=0      fences=0      cas=63
    nvt:crit_fence           flushes=0      fences=63     cas=0
    nvt:crit_update          flushes=63     fences=0      cas=0
    svc:ledger_fence         flushes=0      fences=46     cas=0
    svc:commit_fence         flushes=0      fences=44     cas=0
    nvt:crit_flush           flushes=43     fences=0      cas=0
    nvt:crit_read            flushes=21     fences=0      cas=0
    svc:desc_fence           flushes=0      fences=6      cas=0
  exactly-once: OK|} );
    ( "det-detect-ckpt",
      (fun () ->
        { base with
          flavour = "det";
          detect = true;
          mode = Service.Group { timeout = 1500 };
          checkpoint_interval = 1500;
          crash_steps = [ 700; 900 ] }),
      "9fb4eeb87d55bac0f0cf66fe7d308227",
      {|service hash/det shards=3 domains=1 clients=8 mode=group1500+detect dist=zipf(0.99)
  acked 120/120  applies 127  resent 16  dedup 5  audit 8
  crashes 2/2  eras 3  steps 18722  makespan 162081
  checkpoints 56  truncated 120  recovery crashes 0/0
  recovery: replayed 4 entries in 12850 steps (40500 time units)
  latency p50 86377  p95 134593  p99 147120  max 150050  mean 81596.8
  fences/op 6.033  flushes/op 9.233  committed 120
  reads=13274 writes=382 cas=72 cas_fail=0 flushes=1108 fences=724 allocs=444
  sites:
    nvt:make_persistent      flushes=71     fences=134    cas=0
    det:announce             flushes=85     fences=85     cas=0
    svc:ckpt_flush           flushes=168    fences=0      cas=0
    det:complete             flushes=83     fences=83     cas=0
    svc:desc_flush           flushes=166    fences=0      cas=0
    nvt:ensure_reachable     flushes=134    fences=0      cas=0
    nvt:return_fence         flushes=0      fences=133    cas=0
    svc:ledger_flush         flushes=125    fences=0      cas=0
    svc:commit_flush         flushes=76     fences=0      cas=0
    app                      flushes=0      fences=0      cas=72
    nvt:crit_fence           flushes=0      fences=72     cas=0
    nvt:crit_update          flushes=72     fences=0      cas=0
    svc:ckpt_commit_fence    flushes=0      fences=56     cas=0
    svc:ckpt_commit_flush    flushes=56     fences=0      cas=0
    svc:ckpt_fence           flushes=0      fences=56     cas=0
    svc:ledger_fence         flushes=0      fences=52     cas=0
    svc:commit_fence         flushes=0      fences=51     cas=0
    nvt:crit_flush           flushes=48     fences=0      cas=0
    nvt:crit_read            flushes=24     fences=0      cas=0
    svc:desc_fence           flushes=0      fences=2      cas=0
  exactly-once: OK|} );
    ( "per-op-ckpt-mixed",
      (fun () ->
        { base with
          mode = Service.Per_op;
          checkpoint_interval = 1500;
          crash_steps = [ 900; 800 ];
          recovery_crashes = [ 40 ];
          multi_pct = 10;
          rmw_pct = 10 }),
      "4bdf6d6fc1994fb03731d53725e39cff",
      {|service hash/nvt shards=3 domains=1 clients=8 mode=per_op dist=zipf(0.99)
  acked 120/120  applies 121  resent 16  dedup 2  audit 8
  mixed ops: 17 multi-put(4 keys)  13 rmw
  crashes 2/2  eras 3  steps 17672  makespan 149056
  checkpoints 101  truncated 120  recovery crashes 1/1
  recovery: replayed 2 entries in 12721 steps (36500 time units)
  latency p50 75526  p95 130637  p99 135786  max 137380  mean 70607.3
  fences/op 7.817  flushes/op 10.017  committed 120
  reads=13491 writes=221 cas=101 cas_fail=0 flushes=1202 fences=938 allocs=523
  sites:
    nvt:make_persistent      flushes=131    fences=197    cas=0
    svc:ckpt_flush           flushes=314    fences=0      cas=0
    nvt:ensure_reachable     flushes=197    fences=0      cas=0
    nvt:return_fence         flushes=0      fences=196    cas=0
    svc:ledger_fence         flushes=0      fences=121    cas=0
    svc:ledger_flush         flushes=121    fences=0      cas=0
    svc:commit_fence         flushes=0      fences=120    cas=0
    svc:commit_flush         flushes=120    fences=0      cas=0
    nvt:crit_fence           flushes=0      fences=102    cas=0
    app                      flushes=0      fences=0      cas=101
    nvt:crit_update          flushes=101    fences=0      cas=0
    svc:ckpt_commit_fence    flushes=0      fences=101    cas=0
    svc:ckpt_commit_flush    flushes=101    fences=0      cas=0
    svc:ckpt_fence           flushes=0      fences=101    cas=0
    nvt:crit_flush           flushes=88     fences=0      cas=0
    nvt:crit_read            flushes=29     fences=0      cas=0
  exactly-once: OK|} );
    ( "volatile",
      (fun () ->
        { base with
          flavour = "volatile";
          seed = 20;
          update_pct = 80;
          crash_steps = [ 800 ] }),
      "59495f2ae9512c3adc86fb1523d495a7",
      {|service hash/volatile shards=3 domains=1 clients=8 mode=group2000 dist=zipf(0.99)
  acked 120/120  applies 125  resent 8  dedup 0  audit 8
  crashes 1/1  eras 2  steps 6998  makespan 98064
  recovery: replayed 32 entries in 3177 steps (2000 time units)
  latency p50 26579  p95 66630  p99 81075  max 84938  mean 29757.0
  fences/op 0.467  flushes/op 1.533  committed 120
  reads=3614 writes=64 cas=83 cas_fail=0 flushes=184 fences=56 allocs=179
  sites:
    svc:ledger_flush         flushes=120    fences=0      cas=0
    app                      flushes=0      fences=0      cas=83
    svc:commit_flush         flushes=64     fences=0      cas=0
    svc:commit_fence         flushes=0      fences=28     cas=0
    svc:ledger_fence         flushes=0      fences=28     cas=0
  VIOLATIONS (1):
    state divergence: store has 29 pairs, committed-log replay has 27 (acknowledged work lost or uncommitted work acknowledged)|} ) ]

let trim_lines s =
  String.split_on_char '\n' s
  |> List.map (fun l ->
         let n = ref (String.length l) in
         while !n > 0 && l.[!n - 1] = ' ' do decr n done;
         String.sub l 0 !n)
  |> String.concat "\n"

let histories_digest (r : Runner.report) =
  let b = Buffer.create 256 in
  Array.iter
    (fun (h : Runner.history) -> Printf.bprintf b "%d:%x|" h.count h.digest)
    r.histories;
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_runner_reports () =
  List.iter
    (fun (name, cfg, digest, text) ->
      let r = Runner.run (cfg ()) in
      Alcotest.(check string)
        (name ^ ": report") text
        (String.trim (trim_lines (Format.asprintf "%a" Runner.pp_report r)));
      Alcotest.(check string)
        (name ^ ": histories digest") digest (histories_digest r))
    golden_reports

(* A seventh golden, recorded before the shard mirror became a sorted
   vector: group commit with checkpoints and two era crashes on the
   Natarajan BST, one of whose recoveries reinserts two keys into one
   shard. Recovery reconciles the store in the order of its replay
   table, and this run's report and histories change if those keys go
   back in another order (key order, or the table's order reversed). *)
let reconcile_order_golden () =
  let r =
    Runner.run
      { base with
        structure = "bst-nm";
        seed = 29;
        mode = Service.Group { timeout = 1500 };
        checkpoint_interval = 1500;
        crash_steps = [ 700; 900 ] }
  in
  Alcotest.(check string)
    "report"
    {|service bst-nm/nvt shards=3 domains=1 clients=8 mode=group1500 dist=zipf(0.99)
  acked 120/120  applies 126  resent 15  dedup 2  audit 8
  crashes 2/2  eras 3  steps 7691  makespan 118568
  checkpoints 66  truncated 120  recovery crashes 0/0
  recovery: replayed 2 entries in 1011 steps (6500 time units)
  latency p50 44037  p95 93686  p99 102457  max 104987  mean 47502.7
  fences/op 4.808  flushes/op 10.017  committed 120
  reads=2709 writes=151 cas=66 cas_fail=0 flushes=1202 fences=577 allocs=411
  sites:
    nvt:make_persistent      flushes=268    fences=134    cas=0
    nvt:ensure_reachable     flushes=268    fences=0      cas=0
    svc:ckpt_flush           flushes=196    fences=0      cas=0
    nvt:return_fence         flushes=0      fences=131    cas=0
    svc:ledger_flush         flushes=120    fences=0      cas=0
    nvt:crit_flush           flushes=86     fences=0      cas=0
    svc:commit_flush         flushes=83     fences=0      cas=0
    app                      flushes=2      fences=2      cas=66
    nvt:crit_fence           flushes=0      fences=68     cas=0
    nvt:crit_update          flushes=66     fences=0      cas=0
    svc:ckpt_commit_fence    flushes=0      fences=66     cas=0
    svc:ckpt_commit_flush    flushes=66     fences=0      cas=0
    svc:ckpt_fence           flushes=0      fences=66     cas=0
    svc:commit_fence         flushes=0      fences=55     cas=0
    svc:ledger_fence         flushes=0      fences=55     cas=0
    nvt:crit_read            flushes=47     fences=0      cas=0
  exactly-once: OK|}
    (String.trim (trim_lines (Format.asprintf "%a" Runner.pp_report r)));
  Alcotest.(check string) "histories digest"
    "a746ef12579d14cf9001ab5d2f50b189" (histories_digest r)

(* The report's header names the machines the run used: more domains
   than shards clamp to the shard count, and the header must say so. *)
let report_prints_effective_domains () =
  let r = Runner.run { base with requests = 24; domains = 8 } in
  check_clean "domains=8 over 3 shards" r;
  let header =
    List.hd (String.split_on_char '\n' (Format.asprintf "%a" Runner.pp_report r))
  in
  Alcotest.(check string)
    "header" "service hash/nvt shards=3 domains=3 clients=8 mode=group2000 \
              dist=zipf(0.99)"
    header

(* ---- idle quanta settled in place ---- *)

(* A run, with its machines' scheduler visits and steps summed. With
   [~hooked] every machine carries a no-op schedule hook, which makes
   it not quiet: each idle quantum is then its own scheduler visit, in
   the global step order, as before quiet machines settled them in
   place. *)
let run_counted ~hooked cfg =
  let machines = ref [] in
  let r =
    Runner.run_with cfg ~on_machine:(fun m ->
        if hooked then Machine.set_schedule_hook m (Some (fun _ _ -> ()));
        machines := m :: !machines)
  in
  let sum f = List.fold_left (fun n m -> n + f m) 0 !machines in
  (r, sum Machine.visits, sum Machine.steps)

(* Settling idle quanta in place must not move anything a run reports:
   the quiet run's report text and history digests equal the hooked
   run's, and the quiet run took fewer visits than steps. *)
let check_settled_exact name cfg =
  let r, visits, steps = run_counted ~hooked:false cfg in
  let r', visits', steps' = run_counted ~hooked:true cfg in
  check_clean name r;
  Alcotest.(check int) (name ^ ": steps") steps' steps;
  Alcotest.(check string)
    (name ^ ": report")
    (Format.asprintf "%a" Runner.pp_report r')
    (Format.asprintf "%a" Runner.pp_report r);
  Alcotest.(check string)
    (name ^ ": histories digest") (histories_digest r') (histories_digest r);
  Alcotest.(check int) (name ^ ": hooked visits = steps") steps' visits';
  if visits >= steps then
    Alcotest.failf "%s: %d visits for %d steps: no idle quantum settled" name
      visits steps;
  visits

(* The exact regression gate: an idle-heavy quiet run (gaps of 1500 vt
   against a 100 vt poll quantum) visits the scheduler 4 745 times for
   its 10 912 steps; the ceiling is about 10% above that. Before idle
   quanta were settled in place, visits equalled steps. *)
let idle_quanta_settle_in_place () =
  let visits =
    check_settled_exact "idle-heavy"
      { base with mean_gap = 1500; requests = 200 }
  in
  if visits > 5_220 then
    Alcotest.failf "idle-heavy: %d scheduler visits, ceiling 5220" visits

(* The same equivalence across the runner's paths: group commit,
   per-op commit with checkpoints, detectable recovery, multi-puts and
   read-modify-writes, era crashes with crashes during recovery, and
   one and three domains. *)
let settled_runs_match_hooked_runs () =
  List.iter
    (fun (name, cfg) -> ignore (check_settled_exact name cfg))
    [ ("group", base);
      ( "per-op+ckpt",
        { base with mode = Service.Per_op; checkpoint_interval = 1200 } );
      ("detect", { base with detect = true; crash_steps = [ 700 ] });
      ("multi+rmw", { base with multi_pct = 20; rmw_pct = 20 });
      ( "crashes+recovery-crashes",
        { base with crash_steps = [ 900; 800 ]; recovery_crashes = [ 40 ] } );
      ("domains=1", { base with shards = 6; domains = 1 });
      ("domains=3", { base with shards = 6; domains = 3 }) ]

(* A multi-put carries at most its shard's key pool: over one shard of
   eight keys every batch of twenty is cut to those eight, and the
   report counts and prints the keys the batches carried, not
   [multi_k]. *)
let multi_put_keys_capped () =
  let r =
    Runner.run
      { base with
        shards = 1;
        key_range = 8;
        multi_k = 20;
        multi_pct = 50;
        requests = 40 }
  in
  check_clean "multi_k=20 over 8 keys" r;
  if r.multi_puts = 0 then Alcotest.fail "no multi-puts issued";
  Alcotest.(check int) "keys carried" (8 * r.multi_puts) r.multi_keys;
  let mixed =
    String.split_on_char '\n' (Format.asprintf "%a" Runner.pp_report r)
    |> List.filter (String.starts_with ~prefix:"  mixed ops:")
  in
  Alcotest.(check (list string))
    "mixed-ops line"
    [ Printf.sprintf "  mixed ops: %d multi-put(8 keys)  0 rmw" r.multi_puts ]
    mixed

(* ---- the oracle's checks, fed by hand: no machine ---- *)

(* A clean three-request stream on one shard — client 0 puts key 1 and
   later deletes the prefilled key 2, client 1 reads key 1 between them
   — then one seeded bug per row: each row's scenario must raise its
   check's messages, in the row's order, and the clean stream none at
   all. *)
type step =
  | Apply of Service.request
  | Commit of Service.request * int  (* slot on shard 0 *)
  | Ack of Service.request * Service.result * bool  (* dedup *)

type scenario = {
  steps : step list;  (* main phase, in merge order *)
  log : Service.entry list;  (* shard 0's retained committed log *)
  status : Nvt_nvm.Detectable.status;  (* every request's detect status *)
  invariant : string option;
  contents : (int * int) list;  (* the store's final contents *)
  audit : Service.request -> Service.result -> step list;
      (* the answer to one audit re-send, given the recorded result *)
}

let req client seq op = { Service.client; seq; op }

(* The arrival schedule of [reqs], request [i] arriving at time [i].
   The schedule holds no seq: a request's seq is its rank among its
   client's arrivals, so each [reqs] seq must be that rank. *)
let arrivals (reqs : Service.request array) =
  let next = Hashtbl.create 16 in
  Array.iter
    (fun (r : Service.request) ->
      let sq = Option.value (Hashtbl.find_opt next r.client) ~default:0 in
      if r.seq <> sq then
        invalid_arg
          (Printf.sprintf "arrivals: client=%d seq=%d is its arrival %d"
             r.client r.seq sq);
      Hashtbl.replace next r.client (sq + 1))
    reqs;
  { Oracle.a_op = Array.map (fun (r : Service.request) -> r.op) reqs;
    a_stamp =
      Array.mapi
        (fun i (r : Service.request) -> Oracle.stamp ~client:r.client ~time:i)
        reqs }
let r0 = req 0 0 (Service.Put (1, 10))
let r1 = req 1 0 (Service.Get 1)
let r2 = req 0 1 (Service.Del 2)

let results =
  [ (r0, Service.Done true);
    (r1, Service.Value (Some 10));
    (r2, Service.Done true) ]

let entry ((r : Service.request), res) =
  { Service.e_client = r.client; e_seq = r.seq; e_op = r.op; e_res = res }

let clean =
  { steps =
      List.concat
        (List.mapi
           (fun slot (r, res) ->
             [ Apply r; Commit (r, slot); Ack (r, res, false) ])
           results);
    log = List.map entry results;
    status = Nvt_nvm.Detectable.Completed;
    invariant = None;
    contents = [ (1, 10) ];
    audit = (fun r res -> [ Ack (r, res, true) ]) }

let play sc =
  let o =
    Oracle.create ~clients:2 ~crashes:true
      (arrivals (Array.of_list (List.map fst results)))
  in
  let step time = function
    | Apply r -> Oracle.apply o r
    | Commit (r, slot) -> Oracle.commit o r ~shard:0 ~slot
    | Ack (r, res, dedup) -> ignore (Oracle.ack o r res ~dedup ~time)
  in
  List.iteri (fun i s -> step (10 + i) s) sc.steps;
  let durable =
    [| { Service.dv_base = 0; dv_pairs = []; dv_covered = [];
         dv_log = sc.log } |]
  in
  Oracle.check_recovered o durable
    ~status:(Some (fun ~client:_ ~seq:_ _ -> sc.status));
  Oracle.check_final o ~invariant:sc.invariant ~crash_free:true ~prefill:[ 2 ]
    ~durable ~contents:sc.contents;
  List.iter
    (fun (r : Service.request) ->
      List.iter (step 100) (sc.audit r (List.assoc r results)))
    (Oracle.start_audit o);
  (o, Oracle.violations o)

let replace_step a b = List.map (fun s -> if s = a then b else s)

let oracle_rows =
  [ ( "unknown request",
      { clean with steps = clean.steps @ [ Apply (req 5 0 (Service.Get 1)) ] },
      [ "unknown request client=5 seq=0" ] );
    ( "applied after ack",
      { clean with steps = clean.steps @ [ Apply r0 ] },
      [ "client=0 seq=0 applied after acknowledgement" ] );
    ( "acked twice",
      { clean with
        steps = clean.steps @ [ Ack (r0, Service.Done true, true) ] },
      [ "client=0 seq=0 acknowledged twice" ] );
    ( "acked with no observed commit",
      { clean with steps = List.filter (( <> ) (Commit (r0, 0))) clean.steps },
      [ "recovery: client=0 seq=0 acknowledged without an observed commit" ] );
    ( "ack slot past the recovered extent",
      { clean with log = List.filteri (fun i _ -> i < 2) clean.log },
      [ "recovery: client=0 seq=1 acknowledged at shard 0 slot 2 but the \
         recovered commit extent is 2" ] );
    ( "detect status not completed",
      { clean with status = Nvt_nvm.Detectable.Unknown },
      [ "detect: client=0 seq=0 acknowledged but status says unknown" ] );
    ( "structural invariant",
      { clean with invariant = Some "broken" },
      [ "invariant: broken" ] );
    ( "committed twice",
      { clean with log = clean.log @ [ entry (r0, Service.Done false) ] },
      [ "client=0 seq=0 committed 2 times" ] );
    ( "two pairs committed twice, in arrival order",
      { clean with
        log =
          clean.log
          @ [ entry (r2, Service.Done false);
              entry (r1, Service.Value (Some 10)) ] },
      [ "client=1 seq=0 committed 2 times"; "client=0 seq=1 committed 2 times" ]
    );
    ( "durable-log pair outside the schedule",
      { clean with
        log = clean.log @ [ entry (req 1 5 (Service.Get 1), Service.Value None) ]
      },
      [ "unknown request client=1 seq=5" ] );
    ( "acked but not committed",
      { clean with
        steps = replace_step (Commit (r2, 2)) (Commit (r2, 1)) clean.steps;
        log = List.filteri (fun i _ -> i < 2) clean.log },
      [ "client=0 seq=1 acknowledged but not committed" ] );
    ( "crash-free replay mismatch",
      { clean with
        log =
          List.map entry
            [ (r0, Service.Done true); (r1, Service.Value None);
              (r2, Service.Done true) ] },
      [ "crash-free replay: client=1 seq=0 get(1) -> some 10, log says \
         none" ] );
    ( "crash-free applied not once",
      { clean with steps = List.filter (( <> ) (Apply r1)) clean.steps },
      [ "crash-free: client=1 seq=0 applied 0 times" ] );
    ( "state divergence",
      { clean with contents = [ (1, 10); (2, 2) ] },
      [ "state divergence: store has 2 pairs, committed-log replay has 1" ] );
    ( "audit fresh ack",
      { clean with audit = (fun r res -> [ Ack (r, res, false) ]) },
      [ "audit: client=0 seq=1 fresh ack, expected dedup" ] );
    ( "audit wrong result",
      { clean with audit = (fun r _ -> [ Ack (r, Service.Done false, true) ]) },
      [ "audit: client=0 seq=1 answered false, recorded true" ] );
    ( "audit re-apply",
      { clean with audit = (fun r res -> [ Apply r; Ack (r, res, true) ]) },
      [ "audit: client=0 seq=1 re-applied after final ack" ] ) ]

let oracle_checks () =
  let o, vs = play clean in
  Alcotest.(check (list string)) "clean stream" [] vs;
  Alcotest.(check (list int))
    "clean counts" [ 3; 3; 0; 2 ]
    [ Oracle.acked o; Oracle.applies o; Oracle.dedup_acks o;
      Oracle.audit_acks o ];
  Alcotest.(check bool) "audit settled" true (Oracle.settled o);
  (* each expected message prefixes a violation, later ones later *)
  let rec in_order expect vs =
    match (expect, vs) with
    | [], _ -> true
    | _, [] -> false
    | e :: es, v :: vs ->
      in_order (if String.starts_with ~prefix:e v then es else expect) vs
  in
  List.iter
    (fun (name, sc, expect) ->
      let _, vs = play sc in
      if not (in_order expect vs) then
        Alcotest.failf "%s: expected, in order:@.  %s@.among:@.  %s" name
          (String.concat "\n  " expect)
          (String.concat "\n  " vs))
    oracle_rows

(* The violation list keeps the first 32 messages and counts the rest
   in one closing entry instead of dropping them silently. *)
let oracle_violation_cap () =
  let o = Oracle.create ~clients:1 ~crashes:false (arrivals [||]) in
  for seq = 0 to 39 do
    Oracle.apply o (req 0 seq (Service.Get 1))
  done;
  let vs = Oracle.violations o in
  Alcotest.(check int) "32 kept + 1 summary" 33 (List.length vs);
  Alcotest.(check string)
    "first kept" "unknown request client=0 seq=0" (List.hd vs);
  Alcotest.(check string)
    "last kept" "unknown request client=0 seq=31" (List.nth vs 31);
  Alcotest.(check string)
    "summary" "… and 8 more violations" (List.nth vs 32)

(* A larger hand-fed stream for the recovered-point checks: 2 000
   requests round-robin over 4 shards from 16 clients, each committed at
   the next slot of its shard and acknowledged in arrival order — except
   the last 100, which commit past their shard's recovered extent but
   are never acknowledged, so they must not be reported. [bug] seeds
   three lost acknowledgements (shard 1's two highest acked slots and
   shard 3's highest fall outside the extent) and one acknowledgement
   with no observed commit (arrival 777: client 9 seq 48). *)
let wide_oracle ~bug =
  let rq i =
    req (i mod 16) (i / 16)
      (if i mod 3 = 0 then Service.Get i else Service.Put (i, i))
  in
  let o =
    Oracle.create ~clients:16 ~crashes:true (arrivals (Array.init 2000 rq))
  in
  for i = 0 to 1999 do
    let r = rq i in
    Oracle.apply o r;
    if not (bug && i = 777) then
      Oracle.commit o r ~shard:(i mod 4) ~slot:(i / 4);
    if i < 1900 then
      ignore (Oracle.ack o r (Service.Done true) ~dedup:false ~time:(i + 5))
  done;
  (* every shard's highest acknowledged slot is 474 *)
  let lost gs = if bug then match gs with 1 -> 2 | 3 -> 1 | _ -> 0 else 0 in
  let durable =
    Array.init 4 (fun gs ->
        { Service.dv_base = 475 - lost gs; dv_pairs = []; dv_covered = [];
          dv_log = [] })
  in
  (o, durable)

(* Status answers [Unknown] for [client] at seqs that [at] selects. *)
let unknown_for client at ~client:cl ~seq _ =
  if cl = client && at seq then Nvt_nvm.Detectable.Unknown
  else Nvt_nvm.Detectable.Completed

(* The full violation list, both passes: within each pass, in ascending
   arrival number (client 9 seq 48 is arrival 777, client 5 seq 118
   arrival 1893). *)
let wide_golden =
  [ "recovery: client=9 seq=48 acknowledged without an observed commit";
    "recovery: client=5 seq=118 acknowledged at shard 1 slot 473 but the \
     recovered commit extent is 473 — acknowledged work lost";
    "recovery: client=9 seq=118 acknowledged at shard 1 slot 474 but the \
     recovered commit extent is 473 — acknowledged work lost";
    "recovery: client=11 seq=118 acknowledged at shard 3 slot 474 but the \
     recovered commit extent is 474 — acknowledged work lost";
    "detect: client=5 seq=0 acknowledged but status says unknown";
    "detect: client=5 seq=20 acknowledged but status says unknown";
    "detect: client=5 seq=40 acknowledged but status says unknown";
    "detect: client=5 seq=60 acknowledged but status says unknown";
    "detect: client=5 seq=80 acknowledged but status says unknown";
    "detect: client=5 seq=100 acknowledged but status says unknown" ]

let oracle_wide_order () =
  let o, durable = wide_oracle ~bug:false in
  Oracle.check_recovered o durable
    ~status:(Some (unknown_for 5 (fun _ -> false)));
  Alcotest.(check (list string)) "clean" [] (Oracle.violations o);
  let o, durable = wide_oracle ~bug:true in
  Oracle.check_recovered o durable
    ~status:(Some (unknown_for 5 (fun seq -> seq mod 20 = 0)));
  Alcotest.(check (list string))
    "golden order" wide_golden (Oracle.violations o);
  (* only the last-acknowledged request (arrival 1899) answers
     [Unknown]; the unacknowledged 100 after it are never asked *)
  let o, durable = wide_oracle ~bug:false in
  Oracle.check_recovered o durable
    ~status:(Some (unknown_for 11 (fun seq -> seq >= 118)));
  Alcotest.(check (list string))
    "detect: last ack"
    [ "detect: client=11 seq=118 acknowledged but status says unknown" ]
    (Oracle.violations o)

(* A hand-fed stream for the final check's request pass: 2 000
   requests round-robin over 4 shards from 16 clients, each applied,
   committed at the next slot of its shard and acknowledged in arrival
   order, every commit retained in its shard's log. Puts write fresh
   keys and gets read absent ones, so the replay reproduces every
   result. [bug] drops the last three commits of clients 3 and 12 from
   the logs (acknowledged, and no later seq of theirs vouches for
   them), applies client 6 seq 40 and client 12 seq 124 twice, and never
   applies client 1 seq 7. *)
let final_oracle ~bug =
  let rq i =
    req (i mod 16) (i / 16)
      (if i mod 3 = 0 then Service.Get (10_000 + i) else Service.Put (i, i))
  in
  let res i = if i mod 3 = 0 then Service.Value None else Service.Done true in
  let o =
    Oracle.create ~clients:16 ~crashes:false (arrivals (Array.init 2000 rq))
  in
  let dropped (r : Service.request) =
    bug && (r.client = 3 || r.client = 12) && r.seq >= 122
  in
  let twice (r : Service.request) =
    bug && ((r.client = 6 && r.seq = 40) || (r.client = 12 && r.seq = 124))
  in
  let logs = Array.make 4 [] in
  for i = 0 to 1999 do
    let r = rq i in
    if not (bug && r.client = 1 && r.seq = 7) then Oracle.apply o r;
    if twice r then Oracle.apply o r;
    Oracle.commit o r ~shard:(i mod 4) ~slot:(i / 4);
    if not (dropped r) then
      logs.(i mod 4) <-
        { Service.e_client = r.client; e_seq = r.seq; e_op = r.op;
          e_res = res i }
        :: logs.(i mod 4);
    ignore (Oracle.ack o r (res i) ~dedup:false ~time:(i + 5))
  done;
  let durable =
    Array.map
      (fun log ->
        { Service.dv_base = 0; dv_pairs = []; dv_covered = [];
          dv_log = List.rev log })
      logs
  in
  let contents =
    Array.to_list logs |> List.concat
    |> List.filter_map (fun (e : Service.entry) ->
           match e.e_op with Service.Put (k, v) -> Some (k, v) | _ -> None)
  in
  Oracle.check_final o ~invariant:None ~crash_free:true ~prefill:[] ~durable
    ~contents;
  Oracle.violations o

(* In ascending arrival number (client c's seq s is arrival 16s + c),
   a request's unvouched acknowledgement before its apply count. *)
let final_golden =
  [ "crash-free: client=1 seq=7 applied 0 times";
    "crash-free: client=6 seq=40 applied 2 times";
    "client=3 seq=122 acknowledged but not committed";
    "client=12 seq=122 acknowledged but not committed";
    "client=3 seq=123 acknowledged but not committed";
    "client=12 seq=123 acknowledged but not committed";
    "client=3 seq=124 acknowledged but not committed";
    "client=12 seq=124 acknowledged but not committed";
    "crash-free: client=12 seq=124 applied 2 times" ]

let oracle_final_order () =
  Alcotest.(check (list string)) "clean" [] (final_oracle ~bug:false);
  Alcotest.(check (list string))
    "golden order" final_golden (final_oracle ~bug:true)

(* [create] rejects an arrival it could not index: the run would
   otherwise die at that request's first acknowledgement. A stamp holds
   a client in [0, 2^16) and an arrival time in [0, 2^46): [stamp]
   rejects anything else, and [create] a client beyond the run's count
   or more clients than a stamp can name. A seq is an arrival's rank
   among its client's arrivals, so no schedule holds a negative,
   missing or repeated one. *)
let oracle_rejects_bad_arrivals () =
  let arrival client seq = req client seq (Service.Get 1) in
  let raw_arrivals stamps =
    { Oracle.a_op = Array.map (fun _ -> Service.Get 1) stamps;
      a_stamp = stamps }
  in
  List.iter
    (fun (c, time) ->
      Alcotest.check_raises
        (Printf.sprintf "client=%d time=%d" c time)
        (Invalid_argument
           (Printf.sprintf
              "Oracle.create: arrival client=%d time=%d has a client outside \
               [0, 2)"
              c time))
        (fun () ->
          ignore
            (Oracle.create ~clients:2 ~crashes:false
               (raw_arrivals
                  [| Oracle.stamp ~client:0 ~time:0;
                     Oracle.stamp ~client:c ~time |]))))
    [ (5, 0); (2, 3); (65535, (1 lsl 46) - 1) ];
  List.iter
    (fun (c, time, why) ->
      Alcotest.check_raises
        (Printf.sprintf "stamp client=%d time=%d" c time)
        (Invalid_argument
           (Printf.sprintf "Oracle.stamp: client=%d time=%d %s" c time why))
        (fun () -> ignore (Oracle.stamp ~client:c ~time)))
    [ (-1, 0, "has a client outside [0, 65536)");
      (65536, 0, "has a client outside [0, 65536)");
      (1 lsl 20, 7, "has a client outside [0, 65536)");
      (0, -1, "has a time outside [0, 2^46)");
      (0, 1 lsl 46, "has a time outside [0, 2^46)");
      (65535, max_int, "has a time outside [0, 2^46)") ];
  (* the extremes a stamp holds come back out *)
  List.iter
    (fun (c, time) ->
      let st = Oracle.stamp ~client:c ~time in
      Alcotest.(check (pair int int))
        "unpacked" (c, time)
        (Oracle.client_of st, Oracle.time_of st))
    [ (0, 0); (65535, 0); (0, (1 lsl 46) - 1); (65535, (1 lsl 46) - 1) ];
  Alcotest.check_raises "a client at 2^16"
    (Invalid_argument "Oracle.create: 65537 clients, at most 65536")
    (fun () ->
      ignore (Oracle.create ~clients:65537 ~crashes:false (raw_arrivals [||])));
  ignore (Oracle.create ~clients:65536 ~crashes:false (raw_arrivals [||]));
  Alcotest.check_raises "columns of different lengths"
    (Invalid_argument "Oracle.create: arrival arrays of different lengths")
    (fun () ->
      let a = arrivals [| arrival 0 0; arrival 0 1 |] in
      ignore
        (Oracle.create ~clients:2 ~crashes:false { a with a_stamp = [| 0 |] }));
  (* in range but never scheduled: still an unknown request *)
  let o =
    Oracle.create ~clients:2 ~crashes:false
      (arrivals [| arrival 0 0; arrival 1 0 |])
  in
  Oracle.apply o (req 1 1 (Service.Get 1));
  Oracle.apply o (req 1 4 (Service.Get 1));
  Oracle.apply o (req 2 0 (Service.Get 1));
  Oracle.apply o (req 0 (-1) (Service.Get 1));
  Oracle.apply o (req 1 0 (Service.Get 1));
  Alcotest.(check (list string))
    "unknown requests"
    [ "unknown request client=1 seq=1"; "unknown request client=1 seq=4";
      "unknown request client=2 seq=0"; "unknown request client=0 seq=-1" ]
    (Oracle.violations o)

(* The oracle's per-request footprint: 4 000 hand-made arrivals from 16
   clients, each applied, committed and acknowledged, leave the oracle
   holding its schedule and its per-request state in flat arrays.
   [Obj.reachable_words] is deterministic, so each bound is the exact
   figure (30 763 and 26 763 words): the schedule's two columns and the
   op each arrival carries (2-3 words, built here one per request),
   plus each client's row of arrival numbers, the state word and, on a
   run that may crash, the commit position. Three schedule columns and
   four words of oracle state took 9.7; a record per arrival and one
   per request, with a boxed result and commit position, 27.4. *)
let footprint_words = 7.6908
let footprint_words_crash_free = 6.6908

let oracle_footprint ~crashes () =
  let n = 4000 in
  let rq i =
    req (i mod 16) (i / 16)
      (if i mod 3 = 0 then Service.Get i else Service.Put (i, i))
  in
  let o = Oracle.create ~clients:16 ~crashes (arrivals (Array.init n rq)) in
  for i = 0 to n - 1 do
    if Oracle.request o i <> rq i then
      Alcotest.failf "arrival %d comes back as another request" i
  done;
  for i = 0 to n - 1 do
    let r = rq i in
    Oracle.apply o r;
    Oracle.commit o r ~shard:(i mod 4) ~slot:(i / 4);
    let res =
      if i mod 3 = 0 then Service.Value (Some i) else Service.Done (i land 1 = 0)
    in
    ignore (Oracle.ack o r res ~dedup:false ~time:(i + 5 + (i mod 7)))
  done;
  Alcotest.(check int) "all acknowledged" n (Oracle.acked o);
  Alcotest.(check (list string)) "clean" [] (Oracle.violations o);
  (* the packed commit position rejects what it cannot hold, kept or
     not *)
  List.iter
    (fun (shard, slot) ->
      Alcotest.check_raises
        (Printf.sprintf "shard %d slot %d" shard slot)
        (Invalid_argument
           (Printf.sprintf "Oracle.commit: client=0 seq=0 at shard %d slot %d"
              shard slot))
        (fun () -> Oracle.commit o (rq 0) ~shard ~slot))
    [ (65536, 0); (-1, 0); (0, -1) ];
  if not crashes then
    Alcotest.check_raises "no recovered points without commit positions"
      (Invalid_argument
         "Oracle.check_recovered: the oracle keeps no commit positions")
      (fun () -> Oracle.check_recovered o [||] ~status:None);
  let bound = if crashes then footprint_words else footprint_words_crash_free in
  let words = Obj.reachable_words (Obj.repr o) in
  if float_of_int words > bound *. float_of_int n then
    Alcotest.failf "%d words for %d requests: %.4f per request, bound %.4f"
      words n
      (float_of_int words /. float_of_int n)
      bound;
  (* the latencies, compacted over the stamps in arrival order *)
  let lat = Oracle.latencies o in
  for i = 0 to n - 1 do
    if lat.(i) <> 5 + (i mod 7) then
      Alcotest.failf "latency %d is %d, expected %d" i lat.(i) (5 + (i mod 7))
  done

(* The state word, at its edges: eight clients send one get each of an
   absent key; client [i]'s is applied [i] times (from 3 on, the count
   lives outside the word) and acknowledged with the [i]th result
   below, the values at both ends of the word's range among them. The
   crash-free final check must report every count but 1 exactly, and
   the audit, answered [false] throughout, every recorded result but
   [false]. A value the word cannot hold is refused. *)
let oracle_state_word () =
  let top = (1 lsl 57) - 1 and bottom = -(1 lsl 57) in
  let results =
    Service.
      [| Done false; Done true; Value None; Value (Some 0); Value (Some (-1));
         Value (Some top); Value (Some bottom); Value (Some 12345) |]
  in
  let rq i = req i 0 (Service.Get (100 + i)) in
  let n = Array.length results in
  let o =
    Oracle.create ~clients:n ~crashes:false (arrivals (Array.init n rq))
  in
  let log = ref [] in
  for i = 0 to n - 1 do
    for _ = 1 to i do
      Oracle.apply o (rq i)
    done;
    Oracle.commit o (rq i) ~shard:0 ~slot:i;
    log :=
      { Service.e_client = i; e_seq = 0; e_op = (rq i).op;
        e_res = Service.Value None }
      :: !log;
    ignore (Oracle.ack o (rq i) results.(i) ~dedup:false ~time:i)
  done;
  Oracle.check_final o ~invariant:None ~crash_free:true ~prefill:[]
    ~durable:
      [| { Service.dv_base = 0; dv_pairs = []; dv_covered = [];
           dv_log = List.rev !log } |]
    ~contents:[];
  List.iter
    (fun r -> ignore (Oracle.ack o r (Service.Done false) ~dedup:true ~time:0))
    (Oracle.start_audit o);
  let pp r = Format.asprintf "%a" Service.pp_result r in
  let expected =
    List.filter_map
      (fun i ->
        if i = 1 then None
        else
          Some
            (Printf.sprintf "crash-free: client=%d seq=0 applied %d times" i i))
      (List.init n Fun.id)
    @ List.filter_map
        (fun i ->
          if i = 0 then None
          else
            Some
              (Printf.sprintf
                 "audit: client=%d seq=0 answered false, recorded %s" i
                 (pp results.(i))))
        (List.init n Fun.id)
  in
  Alcotest.(check (list string))
    "counts and results, exactly" (List.sort compare expected)
    (List.sort compare (Oracle.violations o));
  Alcotest.(check int) "applies" (n * (n - 1) / 2) (Oracle.applies o);
  List.iter
    (fun v ->
      let o = Oracle.create ~clients:1 ~crashes:false (arrivals [| rq 0 |]) in
      Alcotest.check_raises (Printf.sprintf "value %d" v)
        (Invalid_argument
           (Printf.sprintf
              "Oracle.ack: client=0 seq=0 result value %d outside [-2^57, \
               2^57)"
              v))
        (fun () ->
          ignore
            (Oracle.ack o (rq 0) (Service.Value (Some v)) ~dedup:false ~time:0)))
    [ top + 1; bottom - 1; max_int; min_int ];
  (* the latency takes the arrival time's place in the stamp, so it
     must fit there too *)
  List.iter
    (fun time ->
      let o = Oracle.create ~clients:1 ~crashes:false (arrivals [| rq 0 |]) in
      Alcotest.check_raises (Printf.sprintf "ack at %d" time)
        (Invalid_argument
           (Printf.sprintf
              "Oracle.ack: client=0 seq=0 latency %d outside [-2^46, 2^46)"
              time))
        (fun () ->
          ignore (Oracle.ack o (rq 0) (Service.Done true) ~dedup:false ~time)))
    [ 1 lsl 46; -(1 lsl 46) - 1; max_int ]

(* ---- the ledger's slot window, against a model ---- *)

module Ledger = Nvt_service.Ledger

(* Random appends (at the next slot, and sometimes below the dropped
   front, as after a crash that lost a commit a checkpoint had passed),
   tail truncations and front drops over one native-memory log: every
   read answers as a table of absolute slots says, an absent slot
   raises [Failure], and every drop and truncation reports the cells
   it retired, the count the working-set model reads. *)
let ledger_window_matches_model () =
  let reclaimed = ref 0 in
  let saved = !Nvt_nvm.Memory.on_reclaim in
  Nvt_nvm.Memory.on_reclaim := (fun n -> reclaimed := !reclaimed + n);
  Fun.protect ~finally:(fun () -> Nvt_nvm.Memory.on_reclaim := saved)
  @@ fun () ->
  for seed = 0 to 49 do
    let rng = Random.State.make [| seed; 0x1ed |] in
    let int n = Random.State.int rng n in
    let l = Ledger.create_log (module Nvt_nvm.Native) in
    let model = Hashtbl.create 64 in
    let next = ref 0 and stamp = ref 0 in
    let entry () =
      incr stamp;
      { Service.e_client = 0; e_seq = !stamp; e_op = Service.Get 0;
        e_res = Service.Done true }
    in
    (* drop the model's slots that [keep] rejects; their count *)
    let drop_model keep =
      let gone =
        Hashtbl.fold (fun s _ acc -> if keep s then acc else s :: acc) model []
      in
      List.iter (Hashtbl.remove model) gone;
      List.length gone
    in
    for step = 1 to 400 do
      let want = ref 0 in
      reclaimed := 0;
      (match int 10 with
      | 0 ->
        let from = max 0 (!next - int 8) in
        want := drop_model (fun s -> s < from);
        l.truncate from;
        next := from
      | 1 | 2 ->
        let upto = !next - int 100 + int 8 in
        want := drop_model (fun s -> s >= upto);
        l.drop_below upto
      | 3 ->
        let slot = max 0 (!next - 1 - int 6) in
        let e = entry () in
        Hashtbl.replace model slot e.e_seq;
        l.append_at slot e
      | _ ->
        let e = entry () in
        Hashtbl.replace model !next e.e_seq;
        l.append_at !next e;
        incr next);
      if !reclaimed <> !want then
        Alcotest.failf "seed %d step %d: %d cells reclaimed, model %d" seed
          step !reclaimed !want;
      for slot = 0 to !next + 2 do
        let got =
          match l.read slot with
          | e -> Some e.e_seq
          | exception Failure _ -> None
        in
        if got <> Hashtbl.find_opt model slot then
          Alcotest.failf "seed %d step %d: slot %d reads %s, model %s" seed
            step slot
            (match got with Some s -> string_of_int s | None -> "absent")
            (match Hashtbl.find_opt model slot with
            | Some s -> string_of_int s
            | None -> "absent")
      done
    done
  done

(* A checkpointed log keeps an array the size of its live window: 20 000
   appends, the front dropped every 100, leave a log of a few hundred
   words, not one word per slot ever logged. *)
let ledger_window_bounded () =
  let l = Ledger.create_log (module Nvt_nvm.Native) in
  for slot = 0 to 19_999 do
    l.append_at slot
      { Service.e_client = 0; e_seq = slot; e_op = Service.Get 0;
        e_res = Service.Done true };
    if slot mod 100 = 99 then l.drop_below (slot - 10)
  done;
  let words = Obj.reachable_words (Obj.repr l) in
  if words > 2000 then
    Alcotest.failf "a log with 20 000 slots, 11 live, holds %d words" words

(* ---- the commit order, recorded before the touched buffer ---- *)

(* The cell id of the one cell [f] writes or flushes. *)
let cid_of m f =
  Machine.set_trace m ~capacity:16;
  f ();
  match Machine.trace m with
  | (Machine.Ev_write { cid; _ } | Machine.Ev_flush { cid; _ }) :: _ -> cid
  | _ -> Alcotest.fail "no write or flush traced"

(* The trace since [Machine.set_trace], cells named by [names] (others
   n1, n2, ... in order of appearance). *)
let render m names =
  let fresh = ref 0 in
  let name cid =
    match Hashtbl.find_opt names cid with
    | Some s -> s
    | None ->
      incr fresh;
      let s = Printf.sprintf "n%d" !fresh in
      Hashtbl.replace names cid s;
      s
  in
  Machine.trace m
  |> List.map (function
       | Machine.Ev_write { cid; _ } -> "W " ^ name cid
       | Machine.Ev_flush { cid; site; _ } ->
         Printf.sprintf "F %s %s" (name cid) site
       | Machine.Ev_fence { site; _ } -> "fence " ^ site
       | Machine.Ev_evict _ | Machine.Ev_crash _ -> "?")
  |> String.concat "; "

let golden_entry =
  { Service.e_client = 0; e_seq = 0; e_op = Service.Get 0;
    e_res = Service.Done true }

let completion_at (si, slot) =
  { Service.seq = 0; shard = si; slot; res = Service.Done true }

(* A ledger over 8 logs, in setup mode. One batch touches shards 6, 2,
   5, 4 and 0 ([Hashtbl.hash] puts 2 and 6 in bucket 0 and 4 and 5 in
   bucket 7): its entries flush in batch order, each item persists
   (here: writes its marker cell p<i>), and the indexes go out in the
   order the per-batch [Hashtbl] iterated — bucket ascending, later
   touched first. Then a one-shard batch, a batch led by an item
   already committed, and a checkpoint's force-commit. Every line was
   recorded with the per-batch table; the last rows do the same on 70
   logs, past the table's first and second resize. *)
let commit_order_golden () =
  let m = Machine.create () in
  let logs = Array.init 8 (fun _ -> Ledger.create_log (module Sim_mem)) in
  let t = Ledger.create (module Sim_mem) logs in
  let markers = Array.init 16 (fun _ -> Sim_mem.alloc 0) in
  let names = Hashtbl.create 64 in
  Array.iteri
    (fun i (l : Ledger.log) ->
      Hashtbl.replace names
        (cid_of m (fun () -> l.write_index 0))
        (Printf.sprintf "i%d" i))
    logs;
  Array.iteri
    (fun i c ->
      Hashtbl.replace names
        (cid_of m (fun () -> Sim_mem.write c 0))
        (Printf.sprintf "p%d" i))
    markers;
  let append si =
    let l = logs.(si) in
    let slot = Ledger.append l golden_entry in
    Hashtbl.replace names
      (cid_of m (fun () -> l.flush slot))
      (Printf.sprintf "e%d.%d" si slot);
    (si, slot)
  in
  let commit items =
    let batch = Array.of_list (List.map completion_at items) in
    Machine.set_trace m ~capacity:256;
    Ledger.commit t batch (Array.length batch) ~persist:(fun i ->
        Sim_mem.write markers.(i) 1);
    render m names
  in
  let committed () =
    Array.to_list logs
    |> List.mapi (fun i (l : Ledger.log) ->
           Printf.sprintf "%d:%d" i l.committed)
    |> String.concat " "
  in
  let check what want got = Alcotest.(check string) what want got in
  check "spanning batch"
    "F e6.0 svc:ledger_flush; F e2.0 svc:ledger_flush; F e5.0 \
     svc:ledger_flush; F e4.0 svc:ledger_flush; F e0.0 svc:ledger_flush; F \
     e2.1 svc:ledger_flush; F e6.1 svc:ledger_flush; W p0; W p1; W p2; W \
     p3; W p4; W p5; W p6; fence svc:ledger_fence; W i2; F i2 \
     svc:commit_flush; W i6; F i6 svc:commit_flush; W i4; F i4 \
     svc:commit_flush; W i5; F i5 svc:commit_flush; W i0; F i0 \
     svc:commit_flush; fence svc:commit_fence"
    (commit (List.map append [ 6; 2; 5; 4; 0; 2; 6 ]));
  check "indexes after it" "0:1 1:0 2:2 3:0 4:1 5:1 6:2 7:0" (committed ());
  check "one-shard batch"
    "F e3.0 svc:ledger_flush; F e3.1 svc:ledger_flush; F e3.2 \
     svc:ledger_flush; W p0; W p1; W p2; fence svc:ledger_fence; W i3; F i3 \
     svc:commit_flush; fence svc:commit_fence"
    (commit (List.map append [ 3; 3; 3 ]));
  check "a committed item first"
    "F e6.0 svc:ledger_flush; F e1.0 svc:ledger_flush; F e7.0 \
     svc:ledger_flush; W p0; W p1; W p2; fence svc:ledger_fence; W i7; F i7 \
     svc:commit_flush; W i1; F i1 svc:commit_flush; fence svc:commit_fence"
    (commit ((6, 0) :: List.map append [ 1; 7 ]));
  ignore (List.map append [ 5; 5 ]);
  Machine.set_trace m ~capacity:256;
  let dropped =
    Ledger.checkpoint t 5
      ~persist:(fun slot -> Sim_mem.write markers.(8 + slot) 1)
      ~upto:logs.(5).next_slot ~pairs:[| [| 1; 2; 3; 4 |] |] ~dedup:[||]
  in
  check "checkpoint force-commit"
    "F e5.1 svc:ledger_flush; F e5.2 svc:ledger_flush; W p9; W p10; fence \
     svc:ledger_fence; W i5; F i5 svc:commit_flush; fence svc:commit_fence; \
     F n1 svc:ckpt_flush; fence svc:ckpt_fence; W n2; F n2 \
     svc:ckpt_commit_flush; fence svc:ckpt_commit_fence"
    (render m names);
  Alcotest.(check (list int)) "dropped, committed, base" [ 3; 3; 3 ]
    [ dropped; logs.(5).committed; logs.(5).base ];
  check "indexes at the end" "0:1 1:1 2:2 3:3 4:1 5:3 6:2 7:1" (committed ());
  (* 70 logs: batches touching 32, 33 and 65 of them, in the order
     (11 i + 3) mod 70; the index writes, by log *)
  let m = Machine.create () in
  let n = 70 in
  let logs = Array.init n (fun _ -> Ledger.create_log (module Sim_mem)) in
  let t = Ledger.create (module Sim_mem) logs in
  let names = Hashtbl.create 64 in
  Array.iteri
    (fun i (l : Ledger.log) ->
      Hashtbl.replace names (cid_of m (fun () -> l.write_index 0)) i)
    logs;
  List.iter
    (fun (k, want) ->
      let batch =
        Array.init k (fun i ->
            let si = ((11 * i) + 3) mod n in
            completion_at (si, Ledger.append logs.(si) golden_entry))
      in
      Machine.set_trace m ~capacity:1024;
      Ledger.commit t batch k ~persist:ignore;
      let got =
        List.filter_map
          (function
            | Machine.Ev_write { cid; _ } -> Some (Hashtbl.find names cid)
            | _ -> None)
          (Machine.trace m)
      in
      Alcotest.(check (list int)) (Printf.sprintf "%d shards" k) want got)
    [ ( 32,
        [ 20; 2; 6; 43; 36; 64; 21; 14; 35; 24; 69; 3; 13; 39; 46; 58; 31; 9;
          47; 65; 25; 53; 42; 61; 28; 10; 50; 17; 32; 54; 68; 57 ] );
      ( 33,
        [ 20; 2; 43; 35; 69; 13; 39; 46; 58; 31; 9; 42; 61; 10; 68; 57; 6; 36;
          64; 21; 14; 24; 3; 5; 47; 65; 25; 53; 28; 50; 17; 32; 54 ] );
      ( 65,
        [ 20; 2; 43; 35; 7; 66; 63; 13; 39; 46; 9; 11; 0; 26; 42; 10; 41; 68;
          57; 36; 33; 37; 64; 21; 16; 24; 3; 5; 44; 47; 23; 65; 1; 53; 28; 45;
          54; 22; 48; 8; 34; 69; 12; 58; 31; 56; 38; 61; 27; 15; 6; 59; 14; 60;
          30; 55; 4; 52; 67; 49; 25; 50; 17; 19; 32 ] ) ]

(* ---- the merge barrier and the latency summary, against models ---- *)

module Merge = Runner.Merge

(* The release as it was written on lists and event blocks: drain into
   (effective time, key, event) triples, append them to the deferred
   list, partition on the barrier, then [List.stable_sort]. *)
module Merge_model = struct
  type ev =
    | E_apply of Service.request * int  (* apply virtual time *)
    | E_commit of Service.request * int * int * int
        (* global shard, slot, commit virtual time *)
    | E_ack of Service.request * Service.result * bool * int
        (* result, dedup, ack virtual time *)

  (* What a release hands on of an event. *)
  type seen =
    | Applied of int * int
    | Committed of int * int * int * int
    | Acked of int * int * Service.result * bool * int

  let seen = function
    | E_apply (r, _) -> Applied (r.Service.client, r.seq)
    | E_commit (r, gs, slot, _) -> Committed (r.Service.client, r.seq, gs, slot)
    | E_ack (r, res, dedup, v) -> Acked (r.Service.client, r.seq, res, dedup, v)

  let handler f =
    { Merge.on_apply = (fun ~client ~seq -> f (Applied (client, seq)));
      on_commit =
        (fun ~client ~seq ~shard ~slot ->
          f (Committed (client, seq, shard, slot)));
      on_ack =
        (fun ~client ~seq ~tag ~value ~dedup ~time ->
          f (Acked (client, seq, Oracle.result_of ~tag ~value, dedup, time)))
    }

  type t = {
    evq : ev Queue.t array;
    mutable deferred : (int * (int * int * int) * ev) list;
    histories : (int * int) list array;
    shards : int;
    ack_interval : int option;
  }

  let create ~groups ~shards ~ack_interval =
    { evq = Array.init groups (fun _ -> Queue.create ());
      deferred = [];
      histories = Array.make shards [];
      shards;
      ack_interval }

  let effective m = function
    | E_apply (_, v) | E_commit (_, _, _, v) -> v
    | E_ack (_, _, dedup, v) -> (
      match m.ack_interval with
      | Some i when not dedup -> ((v / i) + 1) * i
      | _ -> v)

  let release m ~audit ~all t_bar f =
    let acc = ref [] in
    Array.iter
      (fun q ->
        Queue.iter
          (fun e ->
            let key =
              match e with
              | E_apply (req, _) ->
                if not audit then begin
                  let gs =
                    Service.global_shard ~shards:m.shards
                      (Service.key_of_op req.op)
                  in
                  m.histories.(gs) <- (req.client, req.seq) :: m.histories.(gs)
                end;
                (req.Service.client, req.seq, 0)
              | E_commit (req, _, _, _) -> (req.Service.client, req.seq, 1)
              | E_ack (req, _, _, _) -> (req.Service.client, req.seq, 2)
            in
            acc := (effective m e, key, e) :: !acc)
          q;
        Queue.clear q)
      m.evq;
    let pending = m.deferred @ List.rev !acc in
    let ready, later =
      if all then (pending, [])
      else List.partition (fun (eff, _, _) -> eff <= t_bar) pending
    in
    m.deferred <- later;
    List.stable_sort
      (fun (e1, (c1, s1, k1), _) (e2, (c2, s2, k2), _) ->
        let c = Int.compare e1 e2 in
        if c <> 0 then c
        else
          let c = Int.compare c1 c2 in
          if c <> 0 then c
          else
            let c = Int.compare s1 s2 in
            if c <> 0 then c else Int.compare k1 k2)
      ready
    |> List.iter (fun (_, _, e) -> f (seen e))
end

(* Random barrier sequences over both: few clients and seqs, and times
   on a coarse grid, so that equal keys are common; group acks
   (deferred to their interval boundary) and dedup acks; results of
   every tag, values that tell equal-key events apart; bursts that
   outgrow the columns' first 64 rows; audit barriers, and [~all]
   drains mid-run and at the end. Each barrier must release the same
   events in the same order, and the histories must agree. *)
let merge_matches_model () =
  for seed = 0 to 199 do
    let rng = Random.State.make [| seed; 0x3e6 |] in
    let int n = Random.State.int rng n in
    let groups = 1 + int 3 and shards = 1 + int 4 in
    let ack_interval = if int 2 = 0 then None else Some 1000 in
    let m = Merge.create ~groups ~shards ~ack_interval in
    let model = Merge_model.create ~groups ~shards ~ack_interval in
    let t_bar = ref 0 in
    for barrier = 1 to 40 do
      t_bar := !t_bar + 500;
      for _ = 1 to (if int 8 = 0 then 20 + int 100 else int 6) do
        let r = req (int 3) (int 3) (Service.Put (int 16, 0)) in
        let v = max 0 (!t_bar - 1000 + (100 * int 25)) in
        let g = int groups in
        let e =
          match int 3 with
          | 0 ->
            Merge.apply m g r ~time:v;
            Merge_model.E_apply (r, v)
          | 1 ->
            let shard = int shards and slot = int 9 in
            Merge.commit m g r ~shard ~slot ~time:v;
            E_commit (r, shard, slot, v)
          | _ ->
            let res =
              match int 5 with
              | 0 -> Service.Done false
              | 1 -> Service.Done true
              | 2 -> Service.Value None
              | 3 -> Service.Value (Some (int 5 - 2))
              | _ ->
                Service.Value (Some (if int 2 = 0 then min_int else max_int))
            in
            let dedup = int 3 = 0 in
            Merge.ack m g r res ~dedup ~time:v;
            E_ack (r, res, dedup, v)
        in
        Queue.push e model.evq.(g)
      done;
      let audit = int 6 = 0 and all = barrier = 40 || int 10 = 0 in
      let got = ref [] and want = ref [] in
      Merge.release m ~audit ~all !t_bar
        (Merge_model.handler (fun e -> got := e :: !got));
      Merge_model.release model ~audit ~all !t_bar (fun e ->
          want := e :: !want);
      if !got <> !want then
        Alcotest.failf "seed %d barrier %d: released %d events, model %d%s"
          seed barrier (List.length !got) (List.length !want)
          (if List.length !got = List.length !want then " (order differs)"
           else "")
    done;
    (* the merge keeps only a count and a digest per shard; the model
       keeps every apply, so fold its lists the same way *)
    let want =
      Array.map
        (fun h -> Runner.history_of (List.rev h))
        model.Merge_model.histories
    in
    if Merge.histories m <> want then
      Alcotest.failf "seed %d: histories differ" seed
  done;
  (* the digest sees order and which field a number is in *)
  let distinct l =
    List.length (List.sort_uniq compare (List.map Runner.history_of l))
    = List.length l
  in
  if
    not
      (distinct
         [ []; [ (0, 0) ]; [ (0, 1) ]; [ (1, 0) ]; [ (0, 0); (0, 0) ];
           [ (0, 1); (1, 0) ]; [ (1, 0); (0, 1) ]; [ (0, 1); (0, 2) ];
           [ (0, 2); (0, 1) ] ])
  then Alcotest.fail "history digests collide on small histories"

(* The latency summary as it was: sort, then index. *)
let summarize_by_sort lat =
  let lat = Array.copy lat in
  Array.sort Int.compare lat;
  let n = Array.length lat in
  let percentile p =
    if n = 0 then 0
    else
      lat.(min (n - 1)
             (max 0 (int_of_float (ceil (p *. float_of_int n)) - 1)))
  in
  { Runner.p50 = percentile 0.50;
    p95 = percentile 0.95;
    p99 = percentile 0.99;
    lmax = (if n = 0 then 0 else lat.(n - 1));
    mean =
      (if n = 0 then 0.0
       else float_of_int (Array.fold_left ( + ) 0 lat) /. float_of_int n) }

let summary_matches_sort () =
  let rng = Random.State.make [| 0x1a7 |] in
  let random n range = Array.init n (fun _ -> Random.State.int rng range) in
  let cases =
    [ [||]; [| 7 |]; [| 9; 3 |]; [| 3; 9 |]; [| 4; 4 |]; Array.make 1000 42;
      Array.init 300 (fun i -> i); Array.init 300 (fun i -> 300 - i) ]
    (* small ranges for duplicates; n past 100, so the maximum is not
       the 99th percentile *)
    @ List.init 200 (fun i ->
          random (1 + i) (if i mod 2 = 0 then 5 else 100_000))
    @ List.init 6 (fun i ->
          random 5000 (if i mod 2 = 0 then 50 else 1_000_000))
  in
  List.iteri
    (fun i lat ->
      let want = summarize_by_sort lat in
      let got = Runner.summarize (Array.copy lat) in
      if got <> want then
        Alcotest.failf
          "case %d (n=%d): p50 %d/%d p95 %d/%d p99 %d/%d max %d/%d mean \
           %g/%g"
          i (Array.length lat) got.p50 want.p50 got.p95 want.p95 got.p99
          want.p99 got.lmax want.lmax got.mean want.mean)
    cases

(* Model check of the shard mirror: seeded random sequences of puts,
   dels (of absent keys too), multi-puts (duplicate keys too), rmws and
   gets over keys that include negative and very large ones, with enough
   distinct keys to outgrow the initial capacity. After every operation
   the mirror must agree with a hash-table model written here,
   independently of the service's own replay: on the probed keys'
   values, on the size, and on the cut, which must be the model's pairs
   sorted by key. *)
let mirror_matches_table_model () =
  let module M = Service.Mirror in
  let by_fst ((a : int), _) (b, _) = Int.compare a b in
  let model_cut model =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
    |> List.sort by_fst |> Array.of_list
  in
  let model_apply model (op : Service.op) =
    let put (k, v) =
      if not (Hashtbl.mem model k) then Hashtbl.replace model k v
    in
    match op with
    | Service.Put (k, v) -> put (k, v)
    | Service.Del k -> Hashtbl.remove model k
    | Service.Get _ -> ()
    | Service.Multi_put kvs -> List.iter put kvs
    | Service.Rmw (k, d) ->
      Hashtbl.replace model k
        (match Hashtbl.find_opt model k with Some v -> v + d | None -> d)
  in
  let check_cut what mirror model =
    let want = model_cut model in
    if M.pairs mirror <> want then
      Alcotest.failf "%s: the pairs differ from the sorted model" what;
    let chunks = M.chunks mirror in
    if
      Array.exists
        (fun c ->
          Array.length c = 0
          || Array.length c > 2 * Nvt_service.Checkpoint.chunk)
        chunks
      || Array.concat (Array.to_list chunks)
         <> Array.concat
              (Array.to_list (Array.map (fun (k, v) -> [| k; v |]) want))
    then Alcotest.failf "%s: the chunked cut differs from the sorted model" what
  in
  let mirror = M.create () and model = Hashtbl.create 16 in
  check_cut "empty" mirror model;
  M.apply mirror (Service.Put (-7, 3));
  model_apply model (Service.Put (-7, 3));
  check_cut "one pair" mirror model;
  let specials = [| min_int; max_int; 1 lsl 40; -(1 lsl 40); 0 |] in
  let grew = ref false in
  for seed = 0 to 99 do
    let rng = Random.State.make [| seed; 0x6d17 |] in
    let key () =
      if Random.State.int rng 20 = 0 then
        specials.(Random.State.int rng (Array.length specials))
      else Random.State.int rng 300 - 100
    in
    let value () = Random.State.int rng 2001 - 1000 in
    let mirror = M.create () and model = Hashtbl.create 16 in
    for i = 1 to 300 do
      let op =
        match Random.State.int rng 10 with
        | 0 | 1 | 2 | 3 -> Service.Put (key (), value ())
        | 4 | 5 -> Service.Del (key ())
        | 6 ->
          let kvs =
            List.init (1 + Random.State.int rng 4) (fun _ -> (key (), value ()))
          in
          (* a repeated key: the later pair must lose *)
          Service.Multi_put
            (if Random.State.bool rng then
               kvs @ [ (fst (List.hd kvs), value ()) ]
             else kvs)
        | 7 | 8 -> Service.Rmw (key (), value ())
        | _ -> Service.Get (key ())
      in
      M.apply mirror op;
      model_apply model op;
      let what = Printf.sprintf "seed %d op %d" seed i in
      let probes =
        key () :: key ()
        :: (match op with
           | Service.Multi_put kvs -> List.map fst kvs
           | op -> [ Service.key_of_op op ])
      in
      List.iter
        (fun k ->
          if M.find mirror k <> Hashtbl.find_opt model k then
            Alcotest.failf "%s: key %d differs from the model" what k)
        probes;
      Alcotest.(check int) (what ^ ": size") (Hashtbl.length model)
        (M.length mirror);
      check_cut what mirror model
    done;
    if M.length mirror > 64 then grew := true
  done;
  if not !grew then Alcotest.fail "no sequence outgrew the initial capacity"

(* Random lookups, records ([process]'s unconditional replace) and
   merges (recovery's rebuild) over 300 clients, with seqs equal to,
   older and newer than the recorded one, on every shard, and an
   occasional reset, against a [Hashtbl] model: every lookup must
   agree, and so must every shard's cut at a random slot, which the
   model takes as the cut was taken from the hash table — a fold, then
   a sort on the client. *)
let dedup_matches_table_model () =
  let module D = Service.Dedup in
  let shards = 4 in
  let model_cut model ~shard ~upto =
    let a =
      Hashtbl.fold
        (fun client (c : Service.completion) acc ->
          if c.shard = shard && c.slot < upto then (client, c) :: acc else acc)
        model []
      |> Array.of_list
    in
    Array.sort (fun ((a : int), _) (b, _) -> Int.compare a b) a;
    a
  in
  let grew = ref false in
  for seed = 0 to 49 do
    let rng = Random.State.make [| seed; 0xdd0 |] in
    let int n = Random.State.int rng n in
    let d = D.create () and model = Hashtbl.create 16 in
    let clients = 1 + int 300 in
    for step = 1 to 600 do
      let client = int clients in
      let what = Printf.sprintf "seed %d step %d client %d" seed step client in
      let seq =
        match Hashtbl.find_opt model client with
        | Some (c : Service.completion) -> max 0 (c.seq + int 3 - 1)
        | None -> int 3
      in
      let c =
        { Service.seq; shard = int shards; slot = int 40;
          res = Service.Done (int 2 = 0) }
      in
      (match int 20 with
      | 0 ->
        D.reset d;
        Hashtbl.reset model
      | n when n < 10 ->
        D.replace d client c;
        Hashtbl.replace model client c
      | _ -> (
        D.merge d client c;
        match Hashtbl.find_opt model client with
        | Some (c0 : Service.completion) when c0.seq > c.seq -> ()
        | _ -> Hashtbl.replace model client c));
      let probe = int (clients + 2) - 1 in
      List.iter
        (fun cl ->
          let got = D.find d cl in
          match Hashtbl.find_opt model cl with
          | Some want when got == want -> ()
          | None when got == Service.no_completion -> ()
          | _ -> Alcotest.failf "%s: lookup of client %d differs" what cl)
        [ client; probe ];
      let upto = int 45 in
      for shard = 0 to shards - 1 do
        if D.cut d ~shard ~upto <> model_cut model ~shard ~upto then
          Alcotest.failf "%s: shard %d cut at %d differs" what shard upto
      done;
      if client >= 64 then grew := true
    done
  done;
  if not !grew then Alcotest.fail "no client outgrew the initial table"

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
    Alcotest.test_case "group commit: request_stop drains applied work"
      `Quick stop_drains_group_commit;
    Alcotest.test_case "latency percentiles" `Quick latency_sane;
    Alcotest.test_case "golden runner reports" `Quick golden_runner_reports;
    Alcotest.test_case "golden recovery reconcile order" `Quick
      reconcile_order_golden;
    Alcotest.test_case "the report prints the effective domain count" `Quick
      report_prints_effective_domains;
    Alcotest.test_case "idle quanta settle in place, exactly" `Quick
      idle_quanta_settle_in_place;
    Alcotest.test_case "settled runs = hooked runs across the runner's paths"
      `Quick settled_runs_match_hooked_runs;
    Alcotest.test_case "multi-puts report the keys they carry" `Quick
      multi_put_keys_capped;
    Alcotest.test_case "oracle: every check fires on its seeded bug" `Quick
      oracle_checks;
    Alcotest.test_case "oracle: violations past 32 are counted" `Quick
      oracle_violation_cap;
    Alcotest.test_case "oracle: recovered-point order over 2000 requests"
      `Quick oracle_wide_order;
    Alcotest.test_case "oracle: final request-pass order over 2000 requests"
      `Quick oracle_final_order;
    Alcotest.test_case "oracle: create rejects an unindexable arrival" `Quick
      oracle_rejects_bad_arrivals;
    Alcotest.test_case "oracle: per-request footprint in flat arrays" `Quick
      (oracle_footprint ~crashes:true);
    Alcotest.test_case "oracle: crash-free footprint keeps no commit positions"
      `Quick
      (oracle_footprint ~crashes:false);
    Alcotest.test_case "oracle: the state word keeps counts and results"
      `Quick oracle_state_word;
    Alcotest.test_case "ledger window = an absolute-slot model" `Quick
      ledger_window_matches_model;
    Alcotest.test_case "ledger window spans the live slots" `Quick
      ledger_window_bounded;
    Alcotest.test_case "ledger commit order = the per-batch table's" `Quick
      commit_order_golden;
    Alcotest.test_case "merge release = the list-and-sort model" `Quick
      merge_matches_model;
    Alcotest.test_case "dedup table = a hash-table model" `Quick
      dedup_matches_table_model;
    Alcotest.test_case "shard mirror = a hash-table model" `Quick
      mirror_matches_table_model;
    Alcotest.test_case "latency summary by selection = by sort" `Quick
      summary_matches_sort ]
