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
      | Mutlab.Unkilled _ ->
        Alcotest.failf "%s went unkilled on the Harris list (%d runs)" site
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
            | Mutlab.Unkilled _ -> false)
          fr.sites
      with
      | Some sr -> sr
      | None -> Alcotest.fail "no necessary site on svc:hash/nvt")
    | _ -> Alcotest.fail "expected the svc:hash/nvt row alone"
  in
  List.iter
    (fun (sr : Mutlab.site_report) ->
      match sr.verdict with
      | Mutlab.Unkilled _ -> ()
      | Mutlab.Necessary { attack; _ } ->
        (match replay attack with
        | Some _ ->
          Alcotest.failf "recorded kill for %s fires without suppression"
            sr.site
        | None -> ());
        Suppress.set (Some sr.site);
        Fun.protect
          ~finally:(fun () -> Suppress.set None)
          (fun () ->
            match replay attack with
            | Some _ -> ()
            | None ->
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
            | Mutlab.Necessary _ -> None)
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
      empty_gate_fails ]
