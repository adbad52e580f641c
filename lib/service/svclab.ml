(* The mutation battery for the service's own persistence sites.

   {!Mutlab} mutates the sites a persistence *policy* injects into a
   structure; the service layer adds its own — the commit protocol's
   ledger/index sites and the checkpointer's svc:ckpt_ sites — which
   only a whole-service run reaches. This module runs the same
   suppress-one-site-and-attack analysis over them, with {!Runner} as
   the adversarial workload: crash the service at swept aggregate-step
   thresholds (and, in the double-crash arm, again during the recovery
   pass) and demand that the runner's exactly-once oracle, the ledger's
   structural checks or recovery itself catches the mutation.

   It lives here rather than in [Nvt_harness.Mutlab] because the
   dependency points the other way: [nvt_service] is built on
   [nvt_harness]. The reports it produces are ordinary
   {!Mutlab.flavour_report}s (structure ["svc:" ^ name]), so
   [nvtsim mutate] appends them to the structure batteries' report and
   the nvtraverse-mutation/2 schema, gate and report check apply
   unchanged. *)

module Mutlab = Nvt_harness.Mutlab
module Stats = Nvt_nvm.Stats
module Suppress = Nvt_nvm.Suppress
module I = Nvt_harness.Instances

(* The fixed battery workload: small and hot, with checkpointing on so
   the svc:ckpt_ sites are reached several times per run, group
   persistence so the commit sites batch (the widest suppression
   windows), and the audit pass on so lost acknowledged state surfaces
   even when the crash point lands after the last commit. The watchdog
   is tight: a mutation that wedges recovery in a resend loop is a
   kill, not a hang. The combo under test and its optimizer plan travel
   in this config; every run below overrides only the seed and the
   crash thresholds. *)
let config ~structure ~policy ~plan =
  { Runner.default_config with
    structure;
    flavour = policy;
    plan;
    (* the det combo runs the service's own detectable recovery, so the
       svc:desc_ sites are exercised and the runner's op_status oracle
       is armed; the store-level det:announce/det:complete sites are
       the structure battery's targets, like every policy site *)
    detect = policy = "det";
    shards = 2;
    clients = 6;
    requests = 80;
    mean_gap = 150;
    skew = 0.;
    update_pct = 60;
    key_range = 32;
    mode = Service.Group { timeout = 1000 };
    checkpoint_interval = 1500;
    (* barriers every 25 virtual-time units — less than one flush (40)
       — so era-crash thresholds land *inside* commit and checkpoint
       sequences, where the fence sites' few-step windows live; the
       runner only fires crashes at barriers *)
    merge_epoch = 25;
    watchdog = 250_000 }

(* Run one attack against the combo [cfg] under whatever suppression
   is active (so a kill replays with [Suppress.set (Some site)] around
   this call, like {!Mutlab.run_attack}). [Some detail] is a durability
   violation: either the runner's oracle/watchdog reported one, or
   recovery died on a corrupt cell or a structural failure.

   A single-crash [Svc_crash] fires as a {e repeated} era threshold:
   the service crashes every [crash_step] aggregate steps, six times.
   Recovery and re-sends shift each era's phase against the commit and
   checkpoint boundaries, so one run samples several protocol windows —
   the fence sites' vulnerable window (a write-back issued but not yet
   fenced when the index write lands) is only a few steps wide per
   commit, far below the sweep's stride. A double-crash [Svc_crash]
   stays a single era so the recovery-pass threshold is exact. *)
let crash_repeats = 6

let attack (cfg : Runner.config) (a : Mutlab.attack) : string option =
  match a with
  | Mutlab.Svc_crash { seed; crash_step; recovery_step } -> (
    let cfg =
      { cfg with
        seed;
        crash_steps =
          (match recovery_step with
          | Some _ -> [ crash_step ]
          | None -> List.init crash_repeats (fun _ -> crash_step));
        recovery_crashes =
          (match recovery_step with Some s -> [ s ] | None -> []) }
    in
    match Runner.run cfg with
    | r -> ( match r.violations with [] -> None | v :: _ -> Some v)
    | exception Nvt_sim.Machine.Corrupt_read cid ->
      Some
        (Printf.sprintf "corrupt read of cell %d during service recovery" cid)
    | exception Failure msg -> Some ("service failure: " ^ msg))
  | _ -> invalid_arg "Svclab.attack: not a service attack"

(* One crash-free run: the probe. Returns (aggregate steps, stats). *)
let probe (cfg : Runner.config) ~seed =
  let r = Runner.run { cfg with seed } in
  (match r.violations with
  | [] -> ()
  | v :: _ -> failwith ("svclab probe run violated intact: " ^ v));
  (r.steps, r.stats)

(* The battery with early exit. The crash sweep re-probes per seed
   under the current suppression (suppressed flushes change the
   horizon) and strides crash thresholds across it; the double-crash
   arm then aims at mid-run and sweeps the second crash across the
   recovery pass. Deep scale's crash_points = 0 means "every step" for
   the structure battery; a service run is three orders of magnitude
   longer, so it caps at a denser stride instead. *)
let sweep cfg (sc : Mutlab.scale) :
    (Mutlab.attack * string) option * int =
  let points = if sc.crash_points = 0 then 96 else sc.crash_points in
  let runs = ref 0 in
  let kill = ref None in
  let try_ a =
    if !kill = None then begin
      incr runs;
      match attack cfg a with
      | Some d -> kill := Some (a, d)
      | None -> ()
    end
  in
  let mid = ref 1000 in
  for seed = 0 to sc.crash_seeds - 1 do
    if !kill = None then begin
      let steps, _ = probe cfg ~seed in
      if seed = 0 then mid := steps / 2;
      let stride = max 1 (steps / points) in
      let step = ref (1 + (11 * seed mod stride)) in
      while !kill = None && !step < steps do
        try_ (Mutlab.Svc_crash { seed; crash_step = !step; recovery_step = None });
        step := !step + stride
      done
    end
  done;
  for seed = 0 to min 2 sc.crash_seeds - 1 do
    List.iter
      (fun rs ->
        try_
          (Mutlab.Svc_crash
             { seed; crash_step = !mid; recovery_step = Some rs }))
      [ 30; 90; 180; 300 ]
  done;
  (!kill, !runs)

let svc_prefix = "svc:"

let is_svc_site name =
  String.length name > String.length svc_prefix
  && String.sub name 0 (String.length svc_prefix) = svc_prefix

(* Service sites of the probe's attribution table. The structure's and
   policy's own sites also appear there, but they are the structure
   battery's targets; mutating them under the service workload would
   only duplicate weaker versions of those verdicts. *)
let svc_sites (st : Stats.t) =
  Stats.sites st
  |> List.filter_map (fun (name, { Stats.s_flushes; s_fences; _ }) ->
         if is_svc_site name && s_flushes + s_fences > 0 then Some name
         else None)
  |> List.sort compare

let classify_site (sc : Mutlab.scale) (cfg : Runner.config) ~site ~flushes
    ~fences : Mutlab.site_report =
  Suppress.set (Some site);
  Fun.protect
    ~finally:(fun () -> Suppress.set None)
    (fun () ->
      (* measured instruction delta: one crash-free run under
         suppression before the battery *)
      ignore (probe cfg ~seed:0);
      let skipped_flushes, skipped_fences = Suppress.skipped () in
      let kill, runs = sweep cfg sc in
      let verdict =
        match kill with
        | Some (attack, detail) ->
          Mutlab.Necessary { attack; detail; runs_to_kill = runs }
        | None ->
          Mutlab.Unkilled
            { expected =
                Mutlab.expectation ~policy:cfg.flavour
                  ~structure:(svc_prefix ^ cfg.structure) ~site }
      in
      { Mutlab.site; flushes; fences; skipped_flushes; skipped_fences; runs;
        verdict })

let run_combo (sc : Mutlab.scale) ?plan ~structure ~policy () :
    Mutlab.flavour_report =
  let cfg = config ~structure ~policy ~plan in
  let fl =
    match I.flavour policy with
    | Some f -> f
    | None -> invalid_arg (Printf.sprintf "svclab: unknown policy %S" policy)
  in
  let (module Pol : I.POLICY) = fl.policy in
  let elided =
    match (plan : Nvt_nvm.Optimizer.plan option) with
    | Some p when Pol.durable -> p.elide
    | _ -> []
  in
  let probe_steps, probe_stats =
    let steps, st = probe cfg ~seed:0 in
    (steps, Stats.copy st)
  in
  (* a volatile policy has no sites to prove: its row records the probe *)
  let (control_failure, control_runs), sites =
    if not Pol.durable then ((None, 0), [])
    else begin
      let control = sweep cfg sc in
      let site_counts = Stats.sites probe_stats in
      ( control,
        List.map
          (fun site ->
            let { Stats.s_flushes; s_fences; _ } = List.assoc site site_counts in
            classify_site sc cfg ~site ~flushes:s_flushes ~fences:s_fences)
          (svc_sites probe_stats) )
    end
  in
  { Mutlab.structure = svc_prefix ^ structure;
    policy;
    durable = Pol.durable;
    probe_steps;
    probe_stats;
    control_runs;
    control_failure;
    sites;
    elided }

let run ?(policies = []) ?optimize (sc : Mutlab.scale) :
    Mutlab.flavour_report list =
  sc.service
  |> List.filter (fun (_, p) -> policies = [] || List.mem p policies)
  |> List.map (fun (structure, policy) ->
         (* elision plans key the service rows by their bare structure
            name: svc sites are commit-protocol sites, proven necessary,
            so derived plans only ever elide engine/policy sites that
            the store reaches through the service *)
         let plan =
           Option.map
             (fun j -> Mutlab.plan_of_report j ~structure ~policy)
             optimize
         in
         run_combo sc ?plan ~structure ~policy ())
