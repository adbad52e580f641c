(* Recovery robustness: the recovery procedure itself can be interrupted
   by another power failure, and systems crash more than once. Recovery
   must therefore be restartable (a second recovery after a crash
   mid-recovery yields a correct structure) and durability must hold
   across sequences of crashes. *)

open Support

let check_verdict name seed (r : Crashlab.recorded) =
  r.check_invariants ();
  match Crashlab.verdict r with
  | Linearizable -> ()
  | Violation v -> Alcotest.failf "%s seed %d: %a" name seed Lin.pp_violation v
  | Unchecked key -> Alcotest.failf "%s seed %d: key %d unchecked" name seed key

(* Crash in the middle of [recover], then recover again. *)
let crash_during_recovery name set () =
  for seed = 0 to 9 do
    let m =
      Machine.create ~seed ~eviction:(Machine.Random_eviction 0.05) ()
    in
    let r = Crashlab.start set m ~prefill:[ 1; 2; 4; 5; 7 ] in
    (* era 0: update traffic, crashed mid-flight *)
    Crashlab.spawn_uniform r ~threads:4 ~ops:25 ~range:8 ~seed:(fun tid ->
        [| seed; tid; 3 |]);
    Machine.set_crash_at_step m (150 + (41 * seed));
    (match Machine.run m with
    | Machine.Crashed_at t -> History.mark_crash r.history ~time:t
    | Machine.Completed -> Alcotest.fail "expected a crash");
    (* recovery itself runs as a thread and is crashed partway... *)
    ignore (Machine.spawn m r.recover);
    Machine.set_crash_at_step m (Machine.steps m + 5 + (7 * seed));
    (match Machine.run m with
    | Machine.Crashed_at t -> History.mark_crash r.history ~time:t
    | Machine.Completed ->
      (* recovery was short enough to finish; that is fine too *)
      ());
    (* ...and run to completion the second time *)
    Machine.clear_crash m;
    r.recover ();
    r.check_invariants ();
    (* era: the structure must be fully functional *)
    Crashlab.spawn_uniform r ~threads:2 ~ops:15 ~range:8 ~seed:(fun tid ->
        [| seed; tid; 4 |]);
    (match Crashlab.era r with
    | Machine.Completed -> ()
    | Machine.Crashed_at _ -> assert false);
    check_verdict name seed r
  done

(* Several crash/recover/run cycles in sequence. *)
let multi_crash name set () =
  for seed = 0 to 4 do
    let m =
      Machine.create ~seed ~eviction:(Machine.Random_eviction 0.03) ()
    in
    let r = Crashlab.start set m ~prefill:[ 1; 4; 6 ] in
    for n = 3 downto 0 do
      Crashlab.spawn_uniform r ~threads:3 ~ops:20 ~range:8 ~seed:(fun tid ->
          [| seed; tid; History.era r.history |]);
      if n > 0 then Machine.set_crash_at_step m (Machine.steps m + 80 + (31 * n));
      match Crashlab.era r with
      | Machine.Crashed_at _ when n > 0 -> r.check_invariants ()
      | Machine.Crashed_at _ -> assert false
      | Machine.Completed ->
        (* the era drained before its crash point; just continue *)
        ()
    done;
    check_verdict name seed r
  done

(* ------------------------------------------------------------------ *)
(* Service-level recovery: checkpoints, double crashes, liveness and   *)
(* the ledger's cell accounting.                                       *)
(* ------------------------------------------------------------------ *)

module Svc = Nvt_service.Service
module Runner = Nvt_service.Runner

let svc_base =
  { Runner.default_config with
    shards = 3;
    clients = 8;
    requests = 120;
    mean_gap = 100;
    key_range = 64;
    update_pct = 60;
    watchdog = 1_000_000 }

(* Run the service's recovery to completion on [m]. *)
let svc_recover svc m =
  Svc.spawn_recovery svc m;
  match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> Alcotest.fail "service recovery crashed"

let svc_clean name (r : Runner.report) =
  match r.violations with
  | [] -> ()
  | vs ->
    Alcotest.failf "%s: %d violations:@.  %s" name (List.length vs)
      (String.concat "\n  " vs)

(* Regression: the era watchdog must arm even while a crash threshold
   is pending. A threshold far beyond the era's length used to leave
   the era unguarded — a stall would simulate until the threshold (here
   10^8 steps) instead of surfacing. With the watchdog below the era's
   step requirement the run must return promptly with a stall verdict,
   not run to the crash. *)
let watchdog_arms_under_pending_crash () =
  let r =
    Runner.run
      { svc_base with
        flavour = "nvt";
        crash_steps = [ 100_000_000 ];
        watchdog = 1_000 }
  in
  (match r.violations with
  | [ v ] when String.length v >= 8 && String.sub v 0 8 = "stalled:" -> ()
  | vs ->
    Alcotest.failf "expected exactly one stall verdict, got: %s"
      (String.concat " | " vs));
  Alcotest.(check int) "the oversized crash threshold never fired" 0
    r.crashes_fired;
  if r.steps > 50_000 then
    Alcotest.failf
      "watchdog run consumed %d steps — it kept simulating toward the \
       crash threshold instead of stalling out"
      r.steps

(* Regression: [ledger.truncate]/[drop_below] must retire the dropped
   slots' simulated-NVM cells. Churn one shard through repeated
   crash/recover cycles with checkpointing on: the committed log keeps
   growing in slots, but truncation retires everything behind the
   checkpoint, so the machine's live-cell count must stay flat. Before
   the fix every cycle leaked its log entries' cells (~1 cell each). *)
let checkpoint_truncation_bounds_live_cells () =
  let m = Machine.create ~seed:11 () in
  Machine.set_current m;
  let structure = List.assoc "hash" I.structures in
  let flavour =
    match I.flavour "nvt" with Some f -> f | None -> assert false
  in
  let svc =
    Svc.create ~checkpoint:2000 ~structure ~flavour ~shards:1
      ~mode:Svc.Per_op ()
  in
  Svc.prefill svc [ 1; 2; 3 ];
  Machine.persist_all m;
  let seq = ref 0 in
  let live = ref [] in
  for cycle = 1 to 8 do
    Svc.start svc m;
    for _ = 1 to 30 do
      incr seq;
      Svc.submit svc
        { Svc.client = 0; seq = !seq; op = Svc.Put (!seq mod 16, !seq) }
    done;
    Svc.request_stop svc;
    if cycle mod 2 = 1 then begin
      Machine.set_crash_at_step m (Machine.steps m + 400);
      match Machine.run m with
      | Machine.Crashed_at _ -> svc_recover svc m
      | Machine.Completed -> Machine.clear_crash m
    end
    else begin
      match Machine.run m with
      | Machine.Completed -> ()
      | Machine.Crashed_at _ -> assert false
    end;
    live := Machine.live_cells m :: !live
  done;
  if Svc.checkpoints_taken svc = 0 then
    Alcotest.fail "churn run committed no checkpoints — nothing gated";
  if Svc.truncated_slots svc = 0 then
    Alcotest.fail "checkpoints committed but no log slots were truncated";
  match List.rev !live with
  | _ :: early :: rest ->
    let last = List.nth rest (List.length rest - 1) in
    (* ~180 committed entries churn through after the measurement
       baseline; a truncation leak re-surfaces as ~1 cell per entry *)
    if last > early + 100 then
      Alcotest.failf
        "live cells grew %d -> %d across crash/recover churn — log \
         truncation is not retiring cells"
        early last
  | _ -> assert false

(* Regression: rebuilding the dedup table from the committed log must
   let the *last* committed record win on equal (client, seq) — a
   re-sent request can legitimately commit once per era, and only the
   final slot's result is the one recovery's re-send answer must
   carry. Forge both orders to pin the direction. *)
let dedup_rebuild_last_committed_wins () =
  List.iter
    (fun (first, second) ->
      let m = Machine.create ~seed:3 () in
      Machine.set_current m;
      let structure = List.assoc "hash" I.structures in
      let flavour =
        match I.flavour "nvt" with Some f -> f | None -> assert false
      in
      let svc =
        Svc.create ~structure ~flavour ~shards:1 ~mode:Svc.Per_op ()
      in
      Machine.persist_all m;
      Svc.inject_committed svc
        [ { Svc.e_client = 5; e_seq = 3; e_op = Svc.Put (1, 1); e_res = first };
          { Svc.e_client = 5; e_seq = 3; e_op = Svc.Put (1, 1); e_res = second }
        ];
      svc_recover svc m;
      let answer = ref None in
      Svc.set_on_ack svc (fun req res ~dedup ->
          if dedup && req.Svc.client = 5 && req.Svc.seq = 3 then
            answer := Some res);
      Svc.start svc m;
      Svc.submit svc { Svc.client = 5; seq = 3; op = Svc.Put (1, 1) };
      Svc.request_stop svc;
      (match Machine.run m with
      | Machine.Completed -> ()
      | Machine.Crashed_at _ -> assert false);
      match !answer with
      | Some res when res = second -> ()
      | Some res ->
        Alcotest.failf "re-send answered with %s, wanted the later %s"
          (Format.asprintf "%a" Svc.pp_result res)
          (Format.asprintf "%a" Svc.pp_result second)
      | None -> Alcotest.fail "re-send was not deduplicated at all")
    [ (Svc.Done true, Svc.Done false); (Svc.Done false, Svc.Done true) ]

(* The checkpoint cut sorts its mirror pairs by key alone and its dedup
   records by client alone, which is [compare]'s order only because
   both are unique. Pin that on a per-op checkpointed service with many
   clients over two shards, across crash/recover cycles: every shard's
   committed checkpoint must be strictly increasing in both. *)
let checkpoint_cuts_strictly_sorted () =
  let m = Machine.create ~seed:5 () in
  Machine.set_current m;
  let structure = List.assoc "hash" I.structures in
  let flavour =
    match I.flavour "nvt" with Some f -> f | None -> assert false
  in
  let svc =
    Svc.create ~checkpoint:600 ~structure ~flavour ~shards:2
      ~mode:Svc.Per_op ()
  in
  Svc.prefill svc [ 1; 2; 3; 40; 41 ];
  Machine.persist_all m;
  let rec increasing = function
    | a :: (b :: _ as tl) -> a < b && increasing tl
    | _ -> true
  in
  let checked = ref 0 in
  for cycle = 0 to 3 do
    Svc.start svc m;
    for i = 0 to 59 do
      let n = (60 * cycle) + i in
      let op =
        if n mod 5 = 0 then Svc.Del (n mod 48) else Svc.Put (n * 7 mod 48, n)
      in
      Svc.submit svc { Svc.client = n mod 12; seq = n / 12; op }
    done;
    Svc.request_stop svc;
    Machine.set_crash_at_step m (Machine.steps m + 900);
    (match Machine.run m with
    | Machine.Crashed_at _ -> svc_recover svc m
    | Machine.Completed ->
      Alcotest.failf "cycle %d: crash did not fire" cycle);
    Array.iteri
      (fun gs (d : Svc.durable) ->
        if d.dv_base > 0 then incr checked;
        if not (increasing (List.map fst d.dv_pairs)) then
          Alcotest.failf
            "cycle %d shard %d: checkpoint keys not strictly increasing"
            cycle gs;
        if not (increasing (List.map fst d.dv_covered)) then
          Alcotest.failf
            "cycle %d shard %d: checkpoint clients not strictly increasing"
            cycle gs)
      (Svc.durable_state svc)
  done;
  if !checked < 4 then
    Alcotest.failf "only %d shard checkpoints checked" !checked

(* Recovery must leave each shard's mirror at the committed replay, not
   at what the crashed era applied. Crash a group-commit service before
   its first commit boundary, with puts, dels and read-modify-writes
   applied but uncommitted; recover; then let gets, which change
   nothing, drive one checkpoint per shard. Every checkpoint must hold
   exactly the recovered store's contents. *)
let recovery_reloads_mirror () =
  let m = Machine.create ~seed:4 () in
  Machine.set_current m;
  let structure = List.assoc "hash" I.structures in
  let flavour =
    match I.flavour "nvt" with Some f -> f | None -> assert false
  in
  let svc =
    Svc.create ~checkpoint:100_000 ~structure ~flavour ~shards:2
      ~mode:(Svc.Group { timeout = 100_000 }) ()
  in
  Svc.prefill svc (List.init 12 (fun i -> 2 * i));
  Machine.persist_all m;
  Svc.start svc m;
  for n = 0 to 39 do
    let k = n * 7 mod 24 in
    let op =
      match n mod 3 with
      | 0 -> Svc.Rmw (k, n + 1)
      | 1 -> Svc.Put (k, n)
      | _ -> Svc.Del k
    in
    Svc.submit svc { Svc.client = n mod 8; seq = n / 8; op }
  done;
  Machine.set_crash_at_step m (Machine.steps m + 1500);
  (match Machine.run m with
  | Machine.Crashed_at _ -> svc_recover svc m
  | Machine.Completed -> Alcotest.fail "the crash did not fire");
  Alcotest.(check int) "nothing committed before the crash" 0
    (Svc.committed_total svc);
  Svc.start svc m;
  for n = 0 to 7 do
    Svc.submit svc { Svc.client = n; seq = 10; op = Svc.Get n }
  done;
  Svc.request_stop svc;
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> assert false);
  let durable = Svc.durable_state svc in
  Array.iteri
    (fun si (d : Svc.durable) ->
      if d.dv_base = 0 then Alcotest.failf "shard %d took no checkpoint" si)
    durable;
  let pairs =
    Array.to_list durable
    |> List.concat_map (fun (d : Svc.durable) -> d.dv_pairs)
    |> List.sort compare
  in
  let show l =
    String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%d=%d" k v) l)
  in
  Alcotest.(check string) "checkpoints = recovered store"
    (show (Svc.contents svc)) (show pairs)

(* Golden durable checkpoint contents, recorded before the shard mirror
   became a sorted vector: an MD5 over every shard's committed
   checkpoint (cut, pairs, dedup records) after each of four
   crash/recover cycles of a per-op checkpointed service fed puts, dels
   of absent and present keys, multi-puts with a duplicate key and
   read-modify-writes. A change to how the cut is taken must leave it
   byte-identical. *)
let checkpoint_contents_golden () =
  let m = Machine.create ~seed:11 () in
  Machine.set_current m;
  let structure = List.assoc "hash" I.structures in
  let flavour =
    match I.flavour "nvt" with Some f -> f | None -> assert false
  in
  let svc =
    Svc.create ~checkpoint:500 ~structure ~flavour ~shards:2
      ~mode:Svc.Per_op ()
  in
  Svc.prefill svc (List.init 20 (fun i -> 3 * i));
  Machine.persist_all m;
  let shard_of k = Svc.global_shard ~shards:2 k in
  let partner k =
    (* the next key on [k]'s shard, so a multi-put stays on one shard *)
    let rec go j = if shard_of j = shard_of k then j else go (j + 1) in
    go (k + 1)
  in
  let b = Buffer.create 4096 in
  let checkpointed = ref 0 in
  for cycle = 0 to 3 do
    Svc.start svc m;
    for i = 0 to 79 do
      let n = (80 * cycle) + i in
      let k = n * 13 mod 64 in
      let op =
        match n mod 6 with
        | 0 -> Svc.Del k
        | 1 -> Svc.Rmw (k, n)
        | 2 -> Svc.Multi_put [ (k, n); (partner k, n + 1); (k, n + 2) ]
        | _ -> Svc.Put (k, n)
      in
      Svc.submit svc { Svc.client = n mod 10; seq = n / 10; op }
    done;
    Svc.request_stop svc;
    Machine.set_crash_at_step m (Machine.steps m + 1100);
    (match Machine.run m with
    | Machine.Crashed_at _ -> svc_recover svc m
    | Machine.Completed ->
      Alcotest.failf "cycle %d: crash did not fire" cycle);
    Array.iteri
      (fun si (d : Svc.durable) ->
        if d.dv_base > 0 then incr checkpointed;
        Printf.bprintf b "c%d s%d base %d:" cycle si d.dv_base;
        List.iter (fun (k, v) -> Printf.bprintf b " %d=%d" k v) d.dv_pairs;
        Buffer.add_string b " |";
        List.iter
          (fun (client, (c : Svc.completion)) ->
            Printf.bprintf b " %d:%d@%d.%d=%s" client c.seq c.shard c.slot
              (Format.asprintf "%a" Svc.pp_result c.res))
          d.dv_covered;
        Buffer.add_char b '\n')
      (Svc.durable_state svc)
  done;
  if !checkpointed < 6 then
    Alcotest.failf "only %d shard checkpoints pinned" !checkpointed;
  Alcotest.(check string)
    "checkpoint contents digest" "f66e9fb994f08eb1b5cddc8ecf743bde"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* Crashes landing inside checkpoint sequences: >= 2 structures x >= 2
   policies, checkpointing on, merge barriers every 25 time units (less
   than one flush) so era thresholds can land between the svc:ckpt_*
   sites' individual accesses, two crash eras per run. The runner's
   exactly-once oracle is the verdict. *)
let crash_during_checkpoint_matrix () =
  List.iter
    (fun structure ->
      List.iter
        (fun flavour ->
          List.iter
            (fun mode ->
              for seed = 0 to 1 do
                let cfg =
                  { svc_base with
                    structure;
                    flavour;
                    mode;
                    seed = seed + 1;
                    checkpoint_interval = 1200;
                    merge_epoch = 25;
                    crash_steps = [ 700 + (211 * seed); 600 ] }
                in
                let r = Runner.run cfg in
                let name =
                  Printf.sprintf "ckpt %s/%s/%s seed %d" structure flavour
                    (Svc.mode_name mode) seed
                in
                svc_clean name r;
                Alcotest.(check int) (name ^ ": all acked") cfg.requests
                  r.acked;
                if r.crashes_fired < 2 then
                  Alcotest.failf "%s: only %d/2 crashes fired" name
                    r.crashes_fired;
                if r.checkpoints = 0 then
                  Alcotest.failf
                    "%s: no checkpoints committed — the crashes gated \
                     nothing checkpoint-shaped"
                    name
              done)
            [ Svc.Per_op; Svc.Group { timeout = 1000 } ])
        [ "nvt"; "flit" ])
    [ "hash"; "list" ]

(* Crashes landing inside recovery itself (double-crash eras): the era
   crash starts a recovery pass, the recovery thresholds crash it
   partway, and the restarted pass must still restore exactly-once
   state — with and without a checkpoint to restore. *)
let crash_during_recovery_matrix () =
  List.iter
    (fun structure ->
      List.iter
        (fun flavour ->
          List.iter
            (fun interval ->
              for seed = 0 to 1 do
                let cfg =
                  { svc_base with
                    structure;
                    flavour;
                    seed = seed + 1;
                    checkpoint_interval = interval;
                    crash_steps = [ 900 + (173 * seed) ];
                    recovery_crashes = [ 40; 150 ] }
                in
                let r = Runner.run cfg in
                let name =
                  Printf.sprintf "rec-crash %s/%s ckpt=%d seed %d" structure
                    flavour interval seed
                in
                svc_clean name r;
                Alcotest.(check int) (name ^ ": all acked") cfg.requests
                  r.acked;
                if r.crashes_fired <> 1 then
                  Alcotest.failf "%s: %d era crashes fired, wanted 1" name
                    r.crashes_fired;
                if r.recovery_crashes_fired = 0 then
                  Alcotest.failf
                    "%s: no recovery crash fired — thresholds missed the \
                     recovery pass entirely"
                    name
              done)
            [ 0; 1500 ])
        [ "nvt"; "flit" ])
    [ "hash"; "list" ]

(* PR 6's determinism contract must survive checkpointing: a crash-free
   checkpointed run produces the same per-shard apply histories and the
   same checkpoint/truncation counts whether its shards share one
   domain or are striped over several. *)
let checkpointed_histories_domain_independent () =
  let cfg domains =
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
      mode = Svc.Per_op;
      checkpoint_interval = 2000 }
  in
  let r1 = Runner.run (cfg 1) in
  svc_clean "ckpt domains=1" r1;
  if r1.checkpoints = 0 then
    Alcotest.fail "checkpointed determinism run took no checkpoints";
  List.iter
    (fun domains ->
      let rn = Runner.run (cfg domains) in
      svc_clean (Printf.sprintf "ckpt domains=%d" domains) rn;
      let histories (r : Runner.report) =
        Array.to_list
          (Array.map
             (fun (h : Runner.history) -> (h.count, h.digest))
             r.histories)
      in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "per-shard histories, domains 1 = %d" domains)
        (histories r1) (histories rn);
      Alcotest.(check int)
        (Printf.sprintf "checkpoints, domains 1 = %d" domains)
        r1.checkpoints rn.checkpoints;
      Alcotest.(check int)
        (Printf.sprintf "truncated slots, domains 1 = %d" domains)
        r1.truncated rn.truncated)
    [ 3 ]

(* Interrupted-recovery and repeated-crash robustness must hold for
   every durable policy, so the list runs once per registry entry. *)
let list_cases =
  List.concat_map
    (fun (f : I.flavour) ->
      let set =
        I.instantiate_flavour f "list" (module Nvt_structures.Harris_list)
      in
      [ Alcotest.test_case
          (Printf.sprintf "crash during recovery: list, %s" f.key)
          `Quick
          (crash_during_recovery ("list/" ^ f.key) set);
        Alcotest.test_case
          (Printf.sprintf "multiple crash eras: list, %s" f.key)
          `Quick
          (multi_crash ("list/" ^ f.key) set) ])
    I.durable_flavours

let suite =
  list_cases
  @ [ Alcotest.test_case "crash during recovery: ellen bst" `Quick
      (crash_during_recovery "ellen" (module Eb.Durable));
    Alcotest.test_case "crash during recovery: natarajan bst" `Quick
      (crash_during_recovery "natarajan" (module Nm.Durable));
    Alcotest.test_case "crash during recovery: skiplist" `Quick
      (crash_during_recovery "skiplist" (module Sl.Durable));
      Alcotest.test_case "crash during recovery: hash table" `Quick
        (crash_during_recovery "hash" (module Ht.Durable));
      Alcotest.test_case "multiple crash eras: skiplist" `Quick
        (multi_crash "skiplist" (module Sl.Durable));
      Alcotest.test_case "multiple crash eras: natarajan bst" `Quick
        (multi_crash "natarajan" (module Nm.Durable));
      Alcotest.test_case "service: watchdog arms under a pending crash"
        `Quick watchdog_arms_under_pending_crash;
      Alcotest.test_case "service: checkpoint truncation retires cells"
        `Quick checkpoint_truncation_bounds_live_cells;
      Alcotest.test_case "service: checkpoint cuts are strictly sorted"
        `Quick checkpoint_cuts_strictly_sorted;
      Alcotest.test_case "service: checkpoint contents golden" `Quick
        checkpoint_contents_golden;
      Alcotest.test_case "service: recovery reloads the shard mirror" `Quick
        recovery_reloads_mirror;
      Alcotest.test_case "service: dedup rebuild is last-committed-wins"
        `Quick dedup_rebuild_last_committed_wins;
      Alcotest.test_case
        "service: crash-during-checkpoint matrix (2 structures x 2 policies)"
        `Quick crash_during_checkpoint_matrix;
      Alcotest.test_case
        "service: crash-during-recovery matrix (double-crash eras)" `Quick
        crash_during_recovery_matrix;
      Alcotest.test_case
        "service: checkpointed histories are domain-count independent"
        `Quick checkpointed_histories_domain_independent ]
