(* The service target of the mutation laboratory.

   {!Mutlab} mutates the sites a persistence *policy* injects into a
   structure; the service layer adds its own — the commit protocol's
   ledger/index sites and the checkpointer's svc:ckpt_ sites — which
   only a whole-service run reaches. This module supplies the
   {!Mutlab.target} that reaches them, with {!Runner} as the
   adversarial workload: crash the service at swept aggregate-step
   thresholds (and, in the double-crash arm, again during the recovery
   pass) and demand that the runner's exactly-once oracle, the ledger's
   structural checks or recovery itself catches the mutation.

   It lives here rather than in [Nvt_harness.Mutlab] because the
   dependency points the other way: [nvt_service] is built on
   [nvt_harness]. Its batteries are ordinary {!Mutlab.battery} values
   (report rows named ["svc:" ^ structure]), so [nvtsim mutate] runs
   them through {!Mutlab.run} with the structure batteries, and the
   nvtraverse-mutation/2 schema, gate and report check apply
   unchanged. *)

module Mutlab = Nvt_harness.Mutlab
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
   is active (so a kill replays with its site suppressed around this
   call). [Some detail] is a durability violation: either the
   runner's oracle/watchdog reported one, or recovery died on a corrupt
   cell or a structural failure.

   A single crash fires as a {e repeated} era threshold: the service
   crashes every [crash_step] aggregate steps, six times. Recovery and
   re-sends shift each era's phase against the commit and checkpoint
   boundaries, so one run samples several protocol windows — the fence
   sites' vulnerable window (a write-back issued but not yet fenced when
   the index write lands) is only a few steps wide per commit, far
   below the sweep's stride. A double crash stays a single era so the
   recovery-pass threshold is exact. *)
let crash_repeats = 6

let attack (cfg : Runner.config)
    ({ seed; crash_step; recovery_step } : Mutlab.svc_crash) : string option =
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
    Some (Printf.sprintf "corrupt read of cell %d during service recovery" cid)
  | exception Failure msg -> Some ("service failure: " ^ msg)

(* One crash-free run: the probe. Returns (aggregate steps, stats). *)
let probe (cfg : Runner.config) ~seed =
  let r = Runner.run { cfg with seed } in
  (match r.violations with
  | [] -> ()
  | v :: _ -> failwith ("svclab probe run violated intact: " ^ v));
  (r.steps, r.stats)

let svc_prefix = "svc:"

(* The attacks: the crash sweep re-probes per seed under the current
   suppression (suppressed flushes change the horizon) and strides
   crash thresholds across it; the double-crash arm then aims at
   mid-run (seed 0's horizon) and sweeps the second crash across the
   recovery pass. Deep scale's crash_points = 0 means "every step" for
   the structure battery; a service run is three orders of magnitude
   longer, so it caps at a denser stride instead.

   Mutable sites are the service's own: the structure's and policy's
   sites also appear in the probe, but they are the structure
   batteries' targets; mutating them under the service workload would
   only duplicate weaker versions of those verdicts. *)
let target (cfg : Runner.config) (sc : Mutlab.scale) :
    Mutlab.svc_crash Mutlab.target =
  let points = if sc.crash_points = 0 then 96 else sc.crash_points in
  let attacks () =
    let mid = ref 1000 in
    let crashes =
      Seq.init sc.crash_seeds Fun.id
      |> Seq.concat_map (fun seed ->
             let steps, _ = probe cfg ~seed in
             if seed = 0 then mid := steps / 2;
             let stride = max 1 (steps / points) in
             Mutlab.strided ~from:(1 + (11 * seed mod stride)) ~stride
               ~until:steps
             |> Seq.map (fun crash_step ->
                    { Mutlab.seed; crash_step; recovery_step = None }))
    and double_crashes =
      Seq.init (min 2 sc.crash_seeds) Fun.id
      |> Seq.concat_map (fun seed ->
             List.to_seq [ 30; 90; 180; 300 ]
             |> Seq.map (fun rs ->
                    { Mutlab.seed; crash_step = !mid; recovery_step = Some rs }))
    in
    Seq.append crashes double_crashes ()
  in
  { probe = probe cfg;
    attacks;
    attack = attack cfg;
    mutable_site = String.starts_with ~prefix:svc_prefix }

let batteries ?(policies = []) ?optimize (sc : Mutlab.scale) :
    Mutlab.battery list =
  sc.service
  |> List.filter (fun (_, p) -> policies = [] || List.mem p policies)
  |> List.map (fun (structure, policy) ->
         let flavour =
           match I.flavour policy with
           | Some f -> f
           | None ->
             invalid_arg (Printf.sprintf "svclab: unknown policy %S" policy)
         in
         (* elision plans key the service rows by their bare structure
            name: svc sites are commit-protocol sites, proven necessary,
            so derived plans only ever elide engine/policy sites that
            the store reaches through the service *)
         let plan =
           Option.map
             (fun j -> Mutlab.plan_of_report j ~structure ~policy)
             optimize
         in
         { Mutlab.plan;
           report =
             (fun () ->
               Mutlab.flavour_report ~structure:(svc_prefix ^ structure)
                 ~flavour ~plan
                 ~evidence:(fun a -> Mutlab.Svc_crash a)
                 (target (config ~structure ~policy ~plan) sc)) })
