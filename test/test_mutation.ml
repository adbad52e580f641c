(* The mutation laboratory's own regression (quick scale, Harris list):
   the Protocol 2 sites are classified necessary with kill evidence that
   replays (as does a service-site kill on svc:hash/nvt), the volatile
   flavour is a true negative control (no named persistence sites to
   mutate), and the report survives a round-trip through the harness's
   JSON emitter and parser — the same files CI validates as
   MUTATION_report.json. *)

module Mutlab = Nvt_harness.Mutlab
module Json = Nvt_harness.Json
module Suppress = Nvt_nvm.Suppress
module Svclab = Nvt_service.Svclab
module I = Nvt_harness.Instances
module Crashlab = Nvt_harness.Crashlab
module Machine = Nvt_sim.Machine
module History = Nvt_sim.History

let report =
  lazy
    (Mutlab.run Mutlab.quick
       (Mutlab.batteries ~structures:[ "list" ]
          ~policies:[ "volatile"; "nvt" ] Mutlab.quick))

let flavour policy =
  let r = Lazy.force report in
  match
    List.find_opt
      (fun (fr : Mutlab.flavour_report) -> fr.policy = policy)
      r.flavours
  with
  | Some fr -> fr
  | None -> Alcotest.failf "no %s flavour in the report" policy

let find_site (fr : Mutlab.flavour_report) site =
  match
    List.find_opt (fun (sr : Mutlab.site_report) -> sr.site = site) fr.sites
  with
  | Some sr -> sr
  | None ->
    Alcotest.failf "site %s not enumerated on %s x %s" site fr.structure
      fr.policy

let volatile_control () =
  let fr = flavour "volatile" in
  Alcotest.(check bool) "volatile flavour is not durable" false fr.durable;
  Alcotest.(check int) "nothing to mutate" 0 (List.length fr.sites)

(* Every p2 site the list reaches is accounted for: the ones whose loss
   the battery can expose are necessary, and the read-flush — which the
   battery proves self-covered here — carries its documented
   expectation rather than silently passing. *)
let p2_sites_killed () =
  let fr = flavour "nvt" in
  (match fr.control_failure with
  | Some (a, d) ->
    Alcotest.failf "intact control failed at %s: %s"
      (Format.asprintf "%a" Mutlab.pp_attack a)
      d
  | None -> ());
  List.iter
    (fun site ->
      let sr = find_site fr site in
      match sr.verdict with
      | Mutlab.Necessary _ -> ()
      | Mutlab.Unkilled _ | Mutlab.Unchecked _ ->
        Alcotest.failf "%s was not killed on the Harris list (%d runs)" site
          sr.runs)
    [ "nvt:crit_fence"; "nvt:crit_update"; "nvt:crit_flush";
      "nvt:ensure_reachable"; "nvt:make_persistent"; "nvt:return_fence" ];
  let sr = find_site fr "nvt:crit_read" in
  match sr.verdict with
  | Mutlab.Unkilled { expected = Some _ } -> ()
  | Mutlab.Unkilled { expected = None } ->
    Alcotest.fail
      "nvt:crit_read is unkilled but carries no documented expectation"
  | Mutlab.Necessary _ ->
    Alcotest.fail
      "nvt:crit_read was killed — remove its expected-unkilled entry"
  | Mutlab.Unchecked _ -> Alcotest.fail "nvt:crit_read was left unchecked"

(* Kill evidence must replay: re-running the recorded attack with the
   same site suppressed reproduces a violation, and running it against
   the intact workload does not. Each kind of evidence replays through
   the target that recorded it: every kill on the list, and one
   service-site kill on svc:hash/nvt. *)
let kills_replay () =
  let str = List.assoc "list" Nvt_harness.Instances.structures in
  let f = Option.get (Nvt_harness.Instances.flavour "nvt") in
  let list_target =
    Mutlab.structure_target
      (Nvt_harness.Instances.instantiate str f.policy)
      Mutlab.quick
  and svc_target =
    Svclab.target
      (Svclab.config ~structure:"hash" ~policy:"nvt" ~plan:None)
      Mutlab.quick
  in
  let replay = function
    | Mutlab.Structure a -> list_target.attack a
    | Mutlab.Svc_crash a -> svc_target.attack a
  in
  let svc_kill =
    let r =
      Mutlab.run Mutlab.quick
        (Svclab.batteries ~policies:[ "nvt" ] Mutlab.quick)
    in
    match r.flavours with
    | [ fr ] -> (
      match
        List.find_opt
          (fun (sr : Mutlab.site_report) ->
            match sr.verdict with
            | Mutlab.Necessary _ -> true
            | Mutlab.Unkilled _ | Mutlab.Unchecked _ -> false)
          fr.sites
      with
      | Some sr -> sr
      | None -> Alcotest.fail "no necessary site on svc:hash/nvt")
    | _ -> Alcotest.fail "expected the svc:hash/nvt row alone"
  in
  List.iter
    (fun (sr : Mutlab.site_report) ->
      match sr.verdict with
      | Mutlab.Unkilled _ | Mutlab.Unchecked _ -> ()
      | Mutlab.Necessary { attack; _ } ->
        (match replay attack with
        | Mutlab.Killed _ ->
          Alcotest.failf "recorded kill for %s fires without suppression"
            sr.site
        | Mutlab.Survived | Mutlab.Unchecked_key _ -> ());
        Suppress.set (Some sr.site);
        Fun.protect
          ~finally:(fun () -> Suppress.set None)
          (fun () ->
            match replay attack with
            | Mutlab.Killed _ -> ()
            | Mutlab.Survived | Mutlab.Unchecked_key _ ->
              Alcotest.failf "recorded kill for %s does not replay" sr.site))
    ((flavour "nvt").sites @ [ svc_kill ])

let json_round_trip () =
  let j = Mutlab.to_json (Lazy.force report) in
  let s = Json.to_string j in
  let s' = Json.to_string (Json.parse s) in
  Alcotest.(check string) "emit . parse . emit is the identity" s s';
  (* spot-check the parsed structure *)
  let parsed = Json.parse s in
  Alcotest.(check string) "schema tag" "nvtraverse-mutation/2"
    Json.(to_string_exn (member "schema" parsed));
  let flavours = Json.(to_list (member "flavours" parsed)) in
  Alcotest.(check int) "two flavours serialized" 2 (List.length flavours);
  (* /2's machine-readable candidate array: exactly the unkilled
     verdicts, each allowlisted entry carrying its reason — this is
     what the optimizer derives elision plans from *)
  let unkilled =
    List.concat_map
      (fun (fr : Mutlab.flavour_report) ->
        List.filter_map
          (fun (sr : Mutlab.site_report) ->
            match sr.verdict with
            | Mutlab.Unkilled _ -> Some (fr.policy, sr.site)
            | Mutlab.Necessary _ | Mutlab.Unchecked _ -> None)
          fr.sites)
      (Lazy.force report).flavours
  in
  let listed =
    Json.(to_list (member "candidate_redundant" parsed))
    |> List.map (fun e ->
           Json.
             ( to_string_exn (member "policy" e),
               to_string_exn (member "site" e) ))
  in
  Alcotest.(check (list (pair string string)))
    "candidate_redundant mirrors the unkilled verdicts"
    (List.sort compare unkilled) (List.sort compare listed);
  (* the derived elision plan for this structure x policy is exactly
     the candidate sites (no mutual-cover group applies to the list) *)
  let plan = Mutlab.plan_of_report parsed ~structure:"list" ~policy:"nvt" in
  Alcotest.(check bool) "derived plans defer" true plan.Nvt_nvm.Optimizer.defer;
  Alcotest.(check (list string))
    "derived elisions are the candidate sites"
    (List.filter_map
       (fun (p, s) -> if p = "nvt" then Some s else None)
       (List.sort compare unkilled))
    (List.sort compare plan.Nvt_nvm.Optimizer.elide)

(* Every reader checks a report before deriving a plan from it: each
   verdict must rest on an attack, candidate_redundant must be exactly
   the unkilled verdicts, and gate.ok what the verdicts imply. *)
let inconsistent_report_rejected () =
  let j = Mutlab.to_json (Lazy.force report) in
  let set key v = function
    | Json.Obj fields ->
      Json.Obj
        (List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) fields)
    | _ -> Alcotest.fail "not an object"
  in
  let replace key v = set key v j in
  (* the first site of every flavour claims a verdict from zero runs *)
  let unattacked =
    List.map
      (fun fr ->
        match Json.(to_list (member "sites" fr)) with
        | [] -> fr
        | sr :: rest ->
          set "sites" (Json.List (set "runs" (Json.Int 0) sr :: rest)) fr)
      Json.(to_list (member "flavours" j))
  in
  let candidates = Json.(to_list (member "candidate_redundant" j)) in
  if candidates = [] then Alcotest.fail "no candidate to drop";
  let added =
    Json.Obj
      [ ("structure", Json.Str "list"); ("policy", Json.Str "nvt");
        ("site", Json.Str "nvt:crit_fence"); ("expected", Json.Bool false) ]
  in
  let flipped =
    match Json.member "gate" j with
    | Json.Obj g ->
      Json.Obj
        (List.map
           (function
             | "ok", Json.Bool ok -> ("ok", Json.Bool (not ok)) | f -> f)
           g)
    | _ -> Alcotest.fail "gate is not an object"
  in
  ignore (Mutlab.report_candidates j);
  List.iter
    (fun (what, bad) ->
      match Mutlab.plan_of_report bad ~structure:"list" ~policy:"nvt" with
      | _ -> Alcotest.failf "%s: the report was accepted" what
      | exception Json.Parse_error _ -> ())
    [ ( "site added",
        replace "candidate_redundant" (Json.List (added :: candidates)) );
      ( "site dropped",
        replace "candidate_redundant" (Json.List (List.tl candidates)) );
      ("gate.ok flipped", replace "gate" flipped);
      ("verdict without an attack", replace "flavours" (Json.List unattacked)) ]

let gate_passes () =
  let g = Mutlab.gate_of (Lazy.force report) in
  Alcotest.(check bool) "gate ok" true (Mutlab.gate_ok g);
  Alcotest.(check int) "no control failures" 0
    (List.length g.control_failures)

(* A report that ran no flavour checked nothing: its gate fails. *)
let empty_gate_fails () =
  let g =
    Mutlab.gate_of { scale_name = "quick"; optimized = false; flavours = [] }
  in
  Alcotest.(check bool) "gate ok" false (Mutlab.gate_ok g)

(* A recorded volatile run whose history overflows the linearizability
   checker's window: the Harris list without persistence, 4 threads of
   100 ops on one key (50% updates), seed 3, crashed at step 1000 — the
   shape of the [nvtsim run --range 1] runs that print UNCHECKED. Before
   [judge] caught [Too_many_events], judging it raised out of the
   battery. *)
let overflowing_run () =
  let module W = Nvt_workload.Workload in
  let (module S : I.SET) =
    I.instantiate (List.assoc "list" I.structures)
      (Option.get (I.flavour "volatile")).I.policy
  in
  let m = Machine.create ~seed:3 () in
  let r = Crashlab.start (module S) m ~prefill:[ 0 ] in
  for tid = 0 to 3 do
    let g = W.gen ~seed:(3 + (31 * tid)) ~mix:(W.updates ~pct:50) ~range:1 in
    ignore
      (Machine.spawn m (fun () ->
           for _ = 1 to 100 do
             r.op
               (match W.next g with
               | W.Insert k -> History.Insert k
               | W.Delete k -> History.Delete k
               | W.Lookup k -> History.Member k)
           done))
  done;
  Machine.set_crash_at_step m 1000;
  r

let overflow_is_unchecked () =
  match Mutlab.judge (overflowing_run ()) with
  | `Unchecked key -> Alcotest.(check int) "the overflowing key" 0 key
  | `Ok | `No_crash _ | `Violation _ ->
    Alcotest.fail "the overflowing history got a verdict"

(* A battery whose one attack is that run: the intact control and every
   site end unchecked, neither killed nor unkilled, and the gate fails
   naming each site and the attack. The report stays consistent with
   itself, and a report with nothing unchecked carries no unchecked
   field at all. *)
let unchecked_fails_the_gate () =
  let str = List.assoc "list" I.structures in
  let f = Option.get (I.flavour "nvt") in
  let base = Mutlab.structure_target (I.instantiate str f.policy) Mutlab.quick in
  let attack = Mutlab.Crash { seed = 3; crash_step = 1000 } in
  let t =
    { base with
      attacks = Seq.return attack;
      attack = (fun _ -> Mutlab.finding (Mutlab.judge (overflowing_run ()))) }
  in
  let fr =
    Mutlab.flavour_report ~structure:"list" ~flavour:f ~plan:None
      ~evidence:(fun a -> Mutlab.Structure a)
      t
  in
  (match fr.control_unchecked with
  | Some (Mutlab.Structure a, 0) when a = attack -> ()
  | _ -> Alcotest.fail "the control's unchecked attack is not recorded");
  Alcotest.(check bool) "the control did not fail" true
    (fr.control_failure = None);
  if fr.sites = [] then Alcotest.fail "no site was classified";
  List.iter
    (fun (sr : Mutlab.site_report) ->
      match sr.verdict with
      | Mutlab.Unchecked { attack = Mutlab.Structure a; key = 0 }
        when a = attack -> ()
      | _ -> Alcotest.failf "%s: not unchecked by the attack" sr.site)
    fr.sites;
  let r = { Mutlab.scale_name = "quick"; optimized = false; flavours = [ fr ] } in
  let g = Mutlab.gate_of r in
  Alcotest.(check bool) "gate ok" false (Mutlab.gate_ok g);
  let named =
    List.map
      (fun (_, _, detail) -> List.hd (String.split_on_char ' ' detail))
      g.unchecked
  in
  Alcotest.(check (list string))
    "the control and every site are named" ("control"
    :: List.map (fun (sr : Mutlab.site_report) -> sr.site) fr.sites)
    named;
  List.iter
    (fun (_, _, detail) ->
      let needle = "crash(seed=3, step=1000)" in
      let n = String.length needle in
      let rec has i =
        i + n <= String.length detail
        && (String.sub detail i n = needle || has (i + 1))
      in
      if not (has 0) then Alcotest.failf "%s: attack not named" detail)
    g.unchecked;
  Alcotest.(check int) "no candidate from an unchecked site" 0
    (List.length (Mutlab.report_candidates (Mutlab.to_json r)));
  let quick = Json.to_string (Mutlab.to_json (Lazy.force report)) in
  Alcotest.(check bool) "a checked report has no unchecked field" false
    (List.exists
       (fun s -> s = "unchecked")
       (String.split_on_char '"' quick))

let suite =
  [ Alcotest.test_case "volatile flavour is a negative control" `Quick
      volatile_control;
    Alcotest.test_case "protocol 2 sites on the list are necessary" `Quick
      p2_sites_killed;
    Alcotest.test_case "kill evidence replays deterministically" `Quick
      kills_replay;
    Alcotest.test_case "report round-trips through the JSON layer" `Quick
      json_round_trip;
    Alcotest.test_case "a report disagreeing with its verdicts is rejected"
      `Quick inconsistent_report_rejected;
    Alcotest.test_case "quick gate passes" `Quick gate_passes;
    Alcotest.test_case "a report with no flavours fails the gate" `Quick
      empty_gate_fails;
    Alcotest.test_case "a checker overflow is neither a kill nor a survival"
      `Quick overflow_is_unchecked;
    Alcotest.test_case "an unchecked attack fails the gate" `Quick
      unchecked_fails_the_gate ]
