(* Domain-safety of the excised global state and the shard-per-domain
   runner's determinism contract.

   The simulator used to keep the current machine and the mutation
   suppression switch in process globals; these tests pin down the
   per-domain/per-machine behaviour the parallel runner depends on:
   suppression contexts never leak across domains or across machines
   interleaved on one domain, and a crash-free service run produces
   the same per-shard apply histories and oracle verdict whether its
   shards run on one domain or are striped over several. *)

module Machine = Nvt_sim.Machine
module Suppress = Nvt_nvm.Suppress
module Guard = Nvt_nvm.Guard
module Stats = Nvt_nvm.Stats
module Service = Nvt_service.Service
module Runner = Nvt_service.Runner

(* Two domains suppress different sites concurrently; each must see
   only its own suppression and its own skip counters. *)
let suppress_across_domains () =
  let ready = Atomic.make 0 in
  let spawn mine other =
    Domain.spawn (fun () ->
        Suppress.set (Some mine);
        Atomic.incr ready;
        while Atomic.get ready < 2 do
          Domain.cpu_relax ()
        done;
        let killed kind name = not (Guard.admit kind (Stats.intern name)) in
        let sees_mine = killed Flush mine in
        let sees_other = killed Flush other in
        let sees_other_fence = killed Fence other in
        (sees_mine, sees_other, sees_other_fence, Suppress.skipped ()))
  in
  let d1 = spawn "site:a" "site:b" in
  let d2 = spawn "site:b" "site:a" in
  let check name (mine, other, other_fence, skips) =
    Alcotest.(check bool) (name ^ ": own site suppressed") true mine;
    Alcotest.(check bool) (name ^ ": other site untouched") false other;
    Alcotest.(check bool) (name ^ ": other fence untouched") false other_fence;
    Alcotest.(check (pair int int)) (name ^ ": own skip counters") (1, 0) skips
  in
  check "domain 1" (Domain.join d1);
  check "domain 2" (Domain.join d2)

(* Two machines interleaved on one domain at virtual-time barriers,
   with a flush site suppressed on one of them only: the suppressed
   machine must skip all its flushes, the other none, even though
   [advance_to] keeps switching the ambient context between them. *)
let suppress_interleaved_machines () =
  let t_flush = Stats.intern "t:flush" in
  let mk site =
    let m = Machine.create ~suppress:(Suppress.create ()) () in
    Machine.set_current m;
    Suppress.set site;
    let c = Machine.alloc 0 in
    ignore
      (Machine.spawn m (fun () ->
           for i = 1 to 5 do
             Machine.write c i;
             if Guard.admit Flush t_flush then Machine.flush c;
             Machine.fence ()
           done));
    m
  in
  let m1 = mk (Some "t:flush") in
  let m2 = mk None in
  let rec drive t =
    let r1 = Machine.advance_to m1 ~time:t in
    let r2 = Machine.advance_to m2 ~time:t in
    if not (r1 = `Completed && r2 = `Completed) then drive (t + 100)
  in
  drive 100;
  Alcotest.(check int)
    "suppressed machine issued no flushes" 0
    (Machine.stats m1).Nvt_nvm.Stats.flushes;
  Alcotest.(check int)
    "other machine flushed every write" 5
    (Machine.stats m2).Nvt_nvm.Stats.flushes;
  Machine.set_current m1;
  Alcotest.(check (pair int int)) "suppressed machine counted its skips" (5, 0)
    (Suppress.skipped ());
  Machine.set_current m2;
  Alcotest.(check (pair int int)) "other machine counted none" (0, 0)
    (Suppress.skipped ())

(* ------------------------------------------------------------------ *)

(* "list" keeps the working set far below the cost model's cache
   capacity even with all six shards on one machine; "hash" allocates
   1024 buckets per shard, and above [capacity_lines] the per-machine
   working-set model converts read hits to misses probabilistically,
   which is genuine cache physics, not a merge bug — the determinism
   contract only covers workloads that fit each machine's cache. *)
let cfg ~mixed ~domains ~mode ~crash_steps =
  { Runner.default_config with
    structure = "list";
    flavour = "nvt";
    shards = 6;
    clients = 8;
    requests = 150;
    mean_gap = 100;
    skew = 0.0;
    key_range = 64;
    update_pct = 60;
    watchdog = 1_000_000;
    seed = 7;
    domains;
    mode;
    crash_steps;
    multi_pct = mixed;
    rmw_pct = mixed }

let check_clean name (r : Runner.report) =
  (match r.violations with
  | [] -> ()
  | vs ->
    Alcotest.failf "%s: %d violations:@.  %s" name (List.length vs)
      (String.concat "\n  " vs));
  Alcotest.(check int) (name ^ ": all acked") r.config.requests r.acked

(* Per global shard, the apply count and the digest of the apply
   order. *)
let histories (r : Runner.report) =
  Array.to_list
    (Array.map (fun (h : Runner.history) -> (h.count, h.digest)) r.histories)

(* [Runner.pp_report] after its header line, which names the domain
   count. *)
let report_body r =
  let s = Format.asprintf "%a" Runner.pp_report r in
  let i = String.index s '\n' + 1 in
  String.sub s i (String.length s - i)

let modes =
  [ ("per_op", Service.Per_op);
    ("group", Service.Group { timeout = 1500 }) ]

(* The determinism contract, crash-free leg: same seed, same per-shard
   apply histories, applies and commits for 1, 3 (even slices of 6
   shards) and 4 (ragged slices) domains, in both acknowledgement modes
   — with plain puts, deletes and gets, and with [mixed]% each of
   multi-puts and read-modify-writes. In per-op mode the whole report
   after its header line is the same; in group mode each slice runs its
   own group committer, so fences, steps and latencies still depend on
   the slicing (DESIGN.md §9). *)
let crash_free_histories ~mixed () =
  List.iter
    (fun (mname, mode) ->
      let r1 = Runner.run (cfg ~mixed ~domains:1 ~mode ~crash_steps:[]) in
      check_clean (mname ^ " domains=1") r1;
      if mixed > 0 && (r1.multi_puts = 0 || r1.rmws = 0) then
        Alcotest.failf "%s: %d multi-puts and %d rmws issued" mname
          r1.multi_puts r1.rmws;
      List.iter
        (fun domains ->
          let rn = Runner.run (cfg ~mixed ~domains ~mode ~crash_steps:[]) in
          check_clean (Printf.sprintf "%s domains=%d" mname domains) rn;
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s: per-shard apply histories, domains 1 = %d"
               mname domains)
            (histories r1) (histories rn);
          Alcotest.(check int)
            (Printf.sprintf "%s: applies, domains 1 = %d" mname domains)
            r1.applies rn.applies;
          Alcotest.(check int)
            (Printf.sprintf "%s: committed, domains 1 = %d" mname domains)
            r1.committed rn.committed;
          match mode with
          | Service.Per_op ->
            Alcotest.(check string)
              (Printf.sprintf "%s: report, domains 1 = %d" mname domains)
              (report_body r1) (report_body rn)
          | Service.Group _ -> ())
        [ 3; 4 ])
    modes

(* The crashed leg is verdict-stable only: each machine coin-flips its
   own pending write-backs, so histories may differ across domain
   counts, but exactly-once must hold and both crashes must fire. *)
let crashed_verdict_domain_independent () =
  List.iter
    (fun (mname, mode) ->
      List.iter
        (fun domains ->
          let r =
            Runner.run (cfg ~mixed:0 ~domains ~mode ~crash_steps:[ 900; 800 ])
          in
          check_clean (Printf.sprintf "%s domains=%d crashed" mname domains) r;
          Alcotest.(check int)
            (Printf.sprintf "%s domains=%d: crashes fired" mname domains)
            2 r.crashes_fired;
          if r.resent = 0 then
            Alcotest.failf "%s domains=%d: crashes fired but nothing re-sent"
              mname domains)
        [ 1; 3 ])
    modes

let suite =
  [ Alcotest.test_case "suppression is domain-local" `Quick
      suppress_across_domains;
    Alcotest.test_case "suppression follows interleaved machines" `Quick
      suppress_interleaved_machines;
    Alcotest.test_case "crash-free histories are domain-count independent"
      `Quick (crash_free_histories ~mixed:0);
    Alcotest.test_case
      "crash-free histories with multi-puts and rmws are domain-count \
       independent"
      `Quick (crash_free_histories ~mixed:10);
    Alcotest.test_case "crashed runs stay verdict-stable across domains"
      `Quick crashed_verdict_domain_independent ]
