(* The persistence-site mutation laboratory.

   Section 4.3 claims the transformation's flushes and fences are
   necessary — "removing any of them could violate the correctness of
   some NVTraverse data structure". PR 2 gave every injected flush/fence
   a named site ({!Nvt_nvm.Stats}); this module turns the claim into a
   mutation analysis, the same move mutation-testing tools make for
   assertions: for every battery, enumerate the sites its workload
   reaches, re-run its crash attacks with exactly one site suppressed
   ({!Nvt_nvm.Suppress}), and demand a durability violation.

   One driver runs every battery over a {!target}: a crash-free probe,
   a lazy sequence of attacks in kill-power order, the function that
   runs one attack, and the probe sites that are mutation candidates.
   This module builds the structure target (each structure x policy
   flavour of the registry); [Nvt_service.Svclab] builds the service
   target over the service's own svc: sites. Both become ordinary
   {!battery} values, so {!run} stripes them over one domain pool and
   one report, schema and gate covers both.

   Verdicts:
   - [Necessary]: some battery attack found a durability violation,
     corrupt read or broken invariant. The attack parameters are
     recorded so the kill replays deterministically through the
     target's [attack] under the same suppression.
   - [Unkilled]: the battery found nothing — the site is
     candidate-redundant. This is NOT a proof of redundancy (the
     adversary is incomplete); the report carries the site's probe
     flush/fence counts and the measured suppressed-instruction delta so
     over-flushing candidates are visible. A small allowlist
     ({!expected_unkilled}) documents sites that are unkilled by
     construction (self-covering placements); the CI gate fails on any
     NVTraverse-policy site that is unkilled and not in the list.

   The structure target's attacks, per suppressed site, in kill-power
   order (the driver exits at the first violation):
   1. deterministic two-thread windows (the test_ablation scenario,
      generalized): T0's insert is suspended at every point [s0] of its
      execution while T1 completes an operation that depends on T0's
      unpersisted state, then the machine freezes — catches
      boundary-persistence sites precisely;
   2. a crash-step sweep: crash points strided across the whole seeded
      multi-thread run (stride 1 = every step at deep scale), earliest
      step first so the recorded evidence is the minimal failing
      crash-step for its seed;
   3. stall injection (OS preemption windows) with swept crash points;
   4. a random-eviction adversary (cache lines persist behind the
      program's back, exposing partial-persist orders).

   Before mutating, the intact flavour runs the identical battery as a
   control: a violation there means the harness itself is broken, and
   the report fails the gate. *)

module Machine = Nvt_sim.Machine
module History = Nvt_sim.History
module Lin = Nvt_sim.Linearizability
module Stats = Nvt_nvm.Stats
module Suppress = Nvt_nvm.Suppress
module I = Instances

module type SET = Nvt_core.Set_intf.SET

(* ------------------------------------------------------------------ *)
(* Scales                                                              *)
(* ------------------------------------------------------------------ *)

type scale = {
  scale_name : string;
  crash_seeds : int;  (* seeds of the crash-step sweep *)
  crash_points : int;  (* crash points per seed; 0 = every step *)
  stall_seeds : int;  (* stall-injection runs *)
  evict_seeds : int;
  evict_points : int;  (* crash points per eviction seed *)
  window_s0 : int;  (* T0 suspension points swept *)
  window_seeds : int;  (* machine seeds per suspension point *)
  structures : string list;  (* default structure set *)
  service : (string * string) list;
      (* (structure, policy) combos of the service batteries over the
         svc: commit/checkpoint sites. Their target lives in
         [Nvt_service.Svclab] — this library sits below [nvt_service]
         and cannot build it; the scale only carries its parameters. *)
}

let quick =
  { scale_name = "quick";
    crash_seeds = 4;
    crash_points = 16;
    stall_seeds = 32;
    evict_seeds = 2;
    evict_points = 8;
    window_s0 = 40;
    window_seeds = 2;
    (* hash rides the quick battery because it is an optimizer elision
       target: its candidate-redundant verdicts (bucket-head mutual
       coverage) must stay committed, re-proven per push *)
    structures = [ "list"; "bst-nm"; "hash" ];
    (* the det combo rides quick so the service-descriptor site
       (det:desc_flush) classifies per push like the svc: sites do *)
    service = [ ("hash", "nvt"); ("hash", "det") ] }

let deep =
  { scale_name = "deep";
    crash_seeds = 6;
    crash_points = 0 (* every step *);
    stall_seeds = 121;
    evict_seeds = 4;
    evict_points = 32;
    window_s0 = 60;
    window_seeds = 5;
    structures = List.map fst I.structures;
    service =
      [ ("hash", "nvt");
        ("list", "nvt");
        ("hash", "flit");
        ("hash", "soft");
        ("hash", "det") ] }

(* ------------------------------------------------------------------ *)
(* Attacks                                                             *)
(* ------------------------------------------------------------------ *)

(* The fixed mutation workload: small key range, insert-heavy
   adjacent-key traffic — maximizes the chance that one thread builds
   on another's not-yet-persistent state. *)
let range = 10

let threads = 4

let ops_per_thread = 20

let stall_profile = { Machine.probability = 0.05; max_units = 30_000 }

type t1_op = Insert_other | Member_target

(* An attack on a structure workload. *)
type structure_attack =
  | Crash of { seed : int; crash_step : int }
  | Stall of { seed : int; crash_step : int }
  | Evict of { seed : int; crash_step : int; probability : float }
  | Window of { wseed : int; s0 : int; t1 : t1_op }

(* An attack on the service-runner workload ([Nvt_service.Svclab]):
   crash the whole sharded service at an aggregate step threshold, and
   optionally crash it again [recovery_step] aggregate steps into the
   recovery pass (a double-crash era). *)
type svc_crash = { seed : int; crash_step : int; recovery_step : int option }

(* Kill evidence, whichever target recorded it. *)
type attack = Structure of structure_attack | Svc_crash of svc_crash

let pp_attack ppf = function
  | Structure (Crash { seed; crash_step }) ->
    Format.fprintf ppf "crash(seed=%d, step=%d)" seed crash_step
  | Structure (Stall { seed; crash_step }) ->
    Format.fprintf ppf "stall(seed=%d, step=%d)" seed crash_step
  | Structure (Evict { seed; crash_step; probability }) ->
    Format.fprintf ppf "evict(seed=%d, step=%d, p=%.2f)" seed crash_step
      probability
  | Structure (Window { wseed; s0; t1 }) ->
    Format.fprintf ppf "window(seed=%d, s0=%d, t1=%s)" wseed s0
      (match t1 with Insert_other -> "insert" | Member_target -> "member")
  | Svc_crash { seed; crash_step; recovery_step = None } ->
    Format.fprintf ppf "svc-crash(seed=%d, step=%d)" seed crash_step
  | Svc_crash { seed; crash_step; recovery_step = Some r } ->
    Format.fprintf ppf "svc-crash(seed=%d, step=%d, recovery_step=%d)" seed
      crash_step r

(* What one attack found: a durability violation (what the checker
   saw), nothing, or a history the linearizability checker could not
   judge, naming the key whose history overflowed its window. The last
   is neither a kill nor a survival. *)
type finding = Killed of string | Survived | Unchecked_key of int

(* What a battery attacks. [attacks] is re-traversed for the control
   and for every suppressed site, so a generator that probes per seed
   measures each horizon under the suppression active when it is
   forced. *)
type 'a target = {
  probe : seed:int -> int * Stats.t;  (* crash-free: steps, attribution *)
  attacks : 'a Seq.t;  (* kill-power order *)
  attack : 'a -> finding;
  mutable_site : string -> bool;  (* which probe sites are candidates *)
}

(* One battery's result: the first kill, with early exit; otherwise the
   first attack the checker could not judge, if any; and the runs
   executed (for a kill, the runs it took). *)
type 'a swept = {
  kill : ('a * string) option;
  unchecked : ('a * int) option;
  runs : int;
}

let sweep (t : 'a target) : 'a swept =
  let rec go unchecked runs attacks =
    match attacks () with
    | Seq.Nil -> { kill = None; unchecked; runs }
    | Seq.Cons (a, rest) -> (
      match t.attack a with
      | Killed d -> { kill = Some (a, d); unchecked; runs = runs + 1 }
      | Survived -> go unchecked (runs + 1) rest
      | Unchecked_key key ->
        let unchecked =
          if unchecked = None then Some (a, key) else unchecked
        in
        go unchecked (runs + 1) rest)
  in
  go None 0 t.attacks

(* Judge one seeded run set up by [adversarial] or [window_run]: run
   it; on a crash, recover, check invariants, run a verification era
   observing every key (lost completed inserts and resurrected deletes
   become visible to the checker), then check durable linearizability
   of the whole history; a corrupt read or a structural failure is a
   violation too, and a history the checker's window cannot hold is
   [`Unchecked key]. Without a crash the result carries the run's step
   count and per-site attribution table. *)
let judge (r : Crashlab.recorded) =
  let m = r.machine in
  try
    let outcome = Crashlab.era r in
    Machine.clear_scheduler m;
    match outcome with
    | Machine.Completed -> `No_crash (Machine.steps m, Machine.stats m)
    | Machine.Crashed_at _ -> (
      r.check_invariants ();
      ignore
        (Machine.spawn m (fun () ->
             for k = 0 to range - 1 do
               r.op (History.Member k)
             done));
      (match Crashlab.era r with
      | Machine.Crashed_at _ -> assert false
      | Machine.Completed -> ());
      match Crashlab.verdict r with
      | Ok () -> `Ok
      | Error v -> `Violation (Format.asprintf "%a" Lin.pp_violation v))
  with
  | Machine.Corrupt_read cid ->
    `Violation (Printf.sprintf "corrupt read of cell %d after the crash" cid)
  | Failure msg -> `Violation ("structural failure: " ^ msg)
  | Lin.Too_many_events key -> `Unchecked key

let finding = function
  | `Violation d -> Killed d
  | `Unchecked key -> Unchecked_key key
  | `Ok | `No_crash _ -> Survived

(* The seeded multi-thread adversarial run (the test_ablation workload,
   generalized over the structure). [crash_step = None] runs to
   completion and doubles as the probe. *)
let adversarial (module S : SET) ~seed ~crash_step ~eviction ~stall =
  let m = Machine.create ~seed ~eviction ?stall () in
  let r = Crashlab.start (module S) m ~prefill:[ 0; 9 ] in
  for tid = 0 to threads - 1 do
    let rng = Random.State.make [| seed; tid; 77 |] in
    ignore
      (Machine.spawn m (fun () ->
           for _ = 1 to ops_per_thread do
             let k = 1 + Random.State.int rng (range - 2) in
             r.op
               (match Random.State.int rng 10 with
               | 0 | 1 | 2 | 3 -> History.Insert k
               | 4 | 5 | 6 -> History.Delete k
               | _ -> History.Member k)
           done))
  done;
  Option.iter (Machine.set_crash_at_step m) crash_step;
  r

(* The deterministic window (from test_ablation, generalized): run T0's
   insert for exactly [s0] steps, let T1 complete an operation that may
   depend on T0's unpersisted state, then freeze the machine where it
   stands. Sweeping [s0] hits every suspension point of T0, including
   the ones between a publishing CAS and the fence that covers it. *)
let window_run (module S : SET) ~wseed ~s0 ~t1 =
  let m = Machine.create ~seed:wseed () in
  let r = Crashlab.start (module S) m ~prefill:[ 2; 6 ] in
  let t0 = Machine.spawn m (fun () -> r.op (History.Insert 3)) in
  let t1_tid =
    Machine.spawn m (fun () ->
        match t1 with
        | Insert_other -> r.op (History.Insert 4)
        | Member_target -> r.op (History.Member 3))
  in
  let picked0 = ref 0 in
  Machine.set_scheduler m (fun m runnable ->
      if List.mem t0 runnable && !picked0 < s0 then begin
        incr picked0;
        t0
      end
      else if List.mem t1_tid runnable then t1_tid
      else begin
        (* only T0 is left: freeze the world here *)
        Machine.set_crash_at_step m (Machine.steps m);
        t0
      end);
  r

(* Run one structure attack under whatever suppression is currently
   active, so a recorded kill replays with its site suppressed around
   this call. *)
let run_attack (module S : SET) (a : structure_attack) : finding =
  let run =
    match a with
    | Window { wseed; s0; t1 } -> window_run (module S) ~wseed ~s0 ~t1
    | Crash { seed; crash_step }
    | Stall { seed; crash_step }
    | Evict { seed; crash_step; _ } ->
      adversarial
        (module S)
        ~seed ~crash_step:(Some crash_step)
        ~eviction:
          (match a with
          | Evict { probability; _ } -> Machine.Random_eviction probability
          | _ -> Machine.No_eviction)
        ~stall:(match a with Stall _ -> Some stall_profile | _ -> None)
  in
  finding (judge run)

(* Crash steps [from], [from + stride], ... below [until]. *)
let strided ~from ~stride ~until =
  Seq.unfold (fun s -> if s < until then Some (s, s + stride) else None) from

let structure_target (module S : SET) (sc : scale) : structure_attack target =
  let probe ~seed =
    match
      judge
        (adversarial
           (module S)
           ~seed ~crash_step:None ~eviction:Machine.No_eviction ~stall:None)
    with
    | `No_crash run -> run
    | `Ok | `Violation _ | `Unchecked _ ->
      assert false (* no crash was requested *)
  in
  let each n f = Seq.concat_map f (Seq.init n Fun.id) in
  (* 1. deterministic windows *)
  let windows =
    each sc.window_s0 (fun i ->
        each sc.window_seeds (fun wseed ->
            List.to_seq [ Insert_other; Member_target ]
            |> Seq.map (fun t1 -> Window { wseed; s0 = i + 1; t1 })))
  (* 2. crash-step sweep: measure the run's horizon under the current
     suppression (suppressed flushes change the step count), then
     stride crash points across it — stride 1 is literally every step.
     The per-seed offset varies the residues so quick scale still
     covers every step class across seeds. *)
  and crashes =
    each sc.crash_seeds (fun seed ->
        let steps, _ = probe ~seed in
        let stride =
          if sc.crash_points = 0 then 1 else max 1 (steps / sc.crash_points)
        in
        strided ~from:(1 + (7 * seed mod stride)) ~stride ~until:steps
        |> Seq.map (fun crash_step -> Crash { seed; crash_step }))
  (* 3. stall injection (the windows only OS preemption opens) *)
  and stalls =
    Seq.init sc.stall_seeds (fun i ->
        Stall { seed = i; crash_step = 60 + (23 * i) })
  (* 4. eviction adversary *)
  and evictions =
    each sc.evict_seeds (fun seed ->
        Seq.init sc.evict_points (fun i ->
            Evict { seed; crash_step = 50 + (37 * i); probability = 0.2 }))
  in
  { probe;
    attacks = Seq.concat (List.to_seq [ windows; crashes; stalls; evictions ]);
    attack = run_attack (module S);
    mutable_site = (fun site -> site <> Stats.app_site) }

(* ------------------------------------------------------------------ *)
(* Verdicts                                                            *)
(* ------------------------------------------------------------------ *)

type kill = {
  attack : attack;
  detail : string;  (* what the checker saw *)
  runs_to_kill : int;  (* battery position, for reproducibility *)
}

type verdict =
  | Necessary of kill
  | Unkilled of { expected : string option }
  | Unchecked of { attack : attack; key : int }
(* [Unkilled { expected = Some reason }]: the site is in the
   documented allowlist below. [Unchecked]: no attack killed the site,
   and [attack]'s history overflowed the checker's window on [key], so
   the battery cannot say the site survived. *)

type site_report = {
  site : string;
  flushes : int;  (* probe attribution: what removing the site saves *)
  fences : int;
  skipped_flushes : int;  (* measured delta in one suppressed probe run *)
  skipped_fences : int;
  runs : int;  (* battery runs executed for this site *)
  verdict : verdict;
}

(* Sites the battery is expected NOT to kill on specific structures,
   with the structural reason — measured redundancy, the "flag
   redundant ones" half of this harness's job. [None] for the structure
   means every structure. An entry here is an allowance, not a
   requirement: a stronger adversary finding a kill is reported (the
   expectation is stale) but does not fail the gate. *)
let expected_unkilled : (string * string option * string * string) list =
  [ ( "nvt",
      None,
      "nvt:crit_read",
      "self-covering placement on every registry structure: each \
       critical-section read is either of a location in the traversal's \
       persist set (already covered by makePersistent's flush + fence) \
       or is followed by a CAS on the same location, and Protocol 2 \
       flushes a CASed location even when the CAS fails — so the read's \
       flush never persists a value no other site persists. Kept \
       because Section 4.3's claim quantifies over all NVTraverse \
       structures, not just these five." );
    ( "nvt",
      Some "bst-ellen",
      "nvt:ensure_reachable",
      "Ellen's BST is descriptor-based: an operation that traverses \
       through a not-yet-persistent link finds the flagged update \
       descriptor and helps complete the pending operation through its \
       own Protocol 2 instrumentation, persisting the link before \
       building on it." );
    ( "nvt",
      Some "bst-ellen",
      "nvt:make_persistent",
      "helping self-coverage, as for nvt:ensure_reachable: the observer \
       re-executes the pending operation's CASes from its descriptor, \
       and Protocol 2's crit_update/crit_fence persist every word the \
       observer's return value depends on." );
    ( "nvt",
      Some "bst-ellen",
      "nvt:return_fence",
      "at the final unflag CAS the inserted child link is already \
       persistent (crit_fence before the unflag completed its pending \
       flush); losing the unflagged update word reverts it to the \
       flagged descriptor state, which recovery completes \
       idempotently." );
    ( "nvt",
      Some "bst-nm",
      "nvt:ensure_reachable",
      "this implementation already places the k = 2 parent edges of \
       Lemma 4.1 (ancestor and parent edge) in the traversal's persist \
       set, so makePersistent subsumes ensureReachable's flushes; the \
       'above' edges it adds are conservative." );
    ( "nvt",
      Some "hash",
      "nvt:make_persistent",
      "mutual coverage with nvt:ensure_reachable on depth-1 \
       traversals: both sites flush the same bucket-head word, and \
       nvt:return_fence supplies the ordering." );
    ( "lp",
      None,
      "nvt:crit_fence",
      "link-and-persist makes persistence a reader obligation: a \
       critical read of a dirty word drains it (lp:flush + lp:drain) \
       before the reader builds on it, so the engine's extra fence \
       after a critical update orders nothing the drain protocol does \
       not already order. (An earlier stall-adversary kill of this \
       site on the Harris list was an artifact of the simulator's \
       stale-write-back resurrection bug, fixed in Machine by per-cell \
       write-back sequencing.)" );
    ( "lp",
      None,
      "nvt:return_fence",
      "reader-side draining again: the op's pending write-backs are \
       dirty-marked words, and any later operation that depends on one \
       persists it before use — whereas nvt:make_persistent's fence \
       stays necessary under lp, because NVTraverse traversal reads are \
       deliberately uninstrumented and never drain." );
    ( "det",
      None,
      "det:announce",
      "unkilled by construction: the announce persist protects the \
       soundness of the post-crash Not_applied answer (a corrupt \
       descriptor must imply the operation never started), a guarantee \
       about crashed-and-never-returned operations that no generic \
       oracle in this battery can falsify — the recovery audit only \
       holds *returned* operations against their descriptors, and that \
       direction is det:complete's. The dedicated status-query tests \
       pin it with single-client unique-key crashes instead \
       (test_detectable)." );
    (* The wrapper runs the base structure's nvt: engine sites under the
       det policy key, so the engine's self-coverage arguments recur
       here — plus one genuinely new coverage fact: the completion
       persist fences after the base operation returns. *)
    ( "det",
      None,
      "nvt:crit_read",
      "the nvt self-covering placement argument verbatim (see the nvt \
       entry): the detectable wrapper adds persists around the base \
       operation and removes none, so the critical-read flush stays \
       covered by the same CAS-failure flushes." );
    ( "det",
      None,
      "nvt:return_fence",
      "subsumed by det:complete: the descriptor's completion flush + \
       fence runs after the base operation finished and before the \
       wrapper returns, and a fence drains *all* of the thread's \
       pending write-backs — so everything the return fence would \
       persist is durable before any caller observes the result. The \
       engine cannot elide it in general (it is what makes det:complete \
       a completion proof rather than a stray write), but its own \
       suppression is unobservable." );
    ( "det",
      Some "hash",
      "nvt:make_persistent",
      "mutually covered by nvt:crit_read under single-site suppression: \
       the reader's critical-read flush writes back the found link, and \
       det:complete's fence orders it before the wrapper returns. The \
       coverage is MUTUAL, not one-way — eliding both flush providers \
       at once loses observed inserts, which is why the det/hash \
       mutual-cover group below keeps only crit_read's elision." ) ]

let expectation ~policy ~structure ~site =
  List.find_map
    (fun (p, st, s, reason) ->
      if p = policy && s = site && (st = None || st = Some structure) then
        Some reason
      else None)
    expected_unkilled

(* Candidate-redundancy that is MUTUAL: each listed site is redundant
   only while the others still execute (the hash bucket-head entries
   above literally say "either alone covers it"), so an elision plan
   may skip at most one member per group — the earliest listed one
   still in the candidate set. Single-site suppression can never see
   this (it removes one site at a time by construction); the optimizer
   can, which is why the groups are machine-readable here and applied
   by {!elisions_of_report}. *)
let mutual_cover_groups : (string * string option * string list) list =
  [ ("nvt", Some "hash", [ "nvt:ensure_reachable"; "nvt:make_persistent" ]);
    (* Under link-and-persist the hash's make_persistent flush is
       redundant only while the critical/return fences still order it
       against the reader-drain protocol — the optimizer-enabled
       battery kills the triple elision (a crashed delete resurrects
       its key) even though each site is unkilled alone. The fences
       are listed first: they are the cheaper sites to keep eliding
       (a fence costs several flushes in every cost model), so the
       group keeps their elision and drops make_persistent's. *)
    ( "lp",
      Some "hash",
      [ "nvt:crit_fence"; "nvt:make_persistent" ] );
    ( "lp",
      Some "hash",
      [ "nvt:return_fence"; "nvt:make_persistent" ] );
    (* Under det, the completion persist supplies the member path's
       only fence once nvt:return_fence is elided — but a fence drains
       only *issued* write-backs. crit_read and make_persistent are the
       reader's two flush providers for the link it observed; elide
       both and a returned member(k) -> true can outlive nothing: the
       optimizer-enabled battery's control kills the joint elision (an
       insert observed true in era 0 is gone after recovery) even
       though each site is unkilled alone. crit_read is listed first:
       keeping its elision saves a flush per critical read, versus
       make_persistent's one per operation. *)
    ( "det",
      Some "hash",
      [ "nvt:crit_read"; "nvt:make_persistent" ] ) ]

(* ------------------------------------------------------------------ *)
(* Elision plans from a committed report                                *)
(* ------------------------------------------------------------------ *)

(* The optimizer's elision lists are DERIVED from a committed
   [MUTATION_report.json], never hand-written: the machine-readable
   [candidate_redundant] array (schema /2) is the single source, and
   the mutual-cover rule above drops all but the first member of any
   group whose sites would otherwise be elided together. *)

let schema_name = "nvtraverse-mutation/2"

(* Policies whose minimality claims the repo publishes head-to-head;
   see the gate below. *)
let gated_policies = [ "nvt"; "soft"; "det" ]

(* A report is read only if it agrees with itself: every verdict must
   rest on at least one attack, [candidate_redundant] must be exactly
   the unkilled site verdicts (with the same allowlist flags), and
   [gate.ok] must be what the verdicts imply. A stale or hand-edited
   report that lists an elision its verdicts do not support is rejected
   before any plan is derived from it. *)
let report_candidates (j : Json.t) : (string * string * string) list =
  let bad fmt =
    Printf.ksprintf
      (fun s -> raise (Json.Parse_error ("mutation report: " ^ s)))
      fmt
  in
  let schema = Json.to_string_exn (Json.member "schema" j) in
  if schema <> schema_name then
    bad
      "schema %s does not carry machine-readable candidate-redundant \
       verdicts (need %s); regenerate with nvtsim mutate"
      schema schema_name;
  let str k e = Json.to_string_exn (Json.member k e) in
  let flag k e =
    match Json.member k e with Json.Bool b -> b | _ -> bad "%s is not a bool" k
  in
  let runs e = Json.(to_int_exn (member "runs" e)) in
  let flavours = Json.to_list (Json.member "flavours" j) in
  if flavours = [] then bad "no flavours";
  let unkilled =
    List.concat_map
      (fun fr ->
        List.filter_map
          (fun sr ->
            let s, p = (str "structure" fr, str "policy" fr)
            and site = str "site" sr in
            if runs sr < 1 || runs (Json.member "control" fr) < 1 then
              bad "%s/%s %s: a verdict without an attack" s p site;
            match str "verdict" sr with
            | "unkilled" -> Some ((s, p, site), flag "expected" sr)
            | "necessary" | "unchecked" -> None
            | v -> bad "unknown verdict %s" v)
          (Json.to_list (Json.member "sites" fr)))
      flavours
  in
  let listed =
    List.map
      (fun e ->
        ((str "structure" e, str "policy" e, str "site" e), flag "expected" e))
      (Json.to_list (Json.member "candidate_redundant" j))
  in
  let only a b = List.filter (fun x -> not (List.mem x b)) a in
  if List.sort compare listed <> List.sort compare unkilled then
    bad
      "candidate_redundant and the unkilled verdicts differ on [%s]; \
       regenerate with nvtsim mutate"
      (String.concat "; "
         (List.map
            (fun ((s, p, site), _) -> Printf.sprintf "%s/%s %s" s p site)
            (only listed unkilled @ only unkilled listed)));
  let unexpected =
    List.exists
      (fun ((_, p, _), expected) -> (not expected) && List.mem p gated_policies)
      unkilled
  in
  let control_failed =
    List.exists
      (fun fr ->
        let control = Json.member "control" fr in
        Json.(to_int_exn (member "violations" control)) > 0
        ||
        match control with
        | Json.Obj fields -> List.mem_assoc "unchecked" fields
        | _ -> false)
      flavours
  in
  let unchecked =
    List.exists
      (fun fr ->
        List.exists
          (fun sr -> str "verdict" sr = "unchecked")
          (Json.to_list (Json.member "sites" fr)))
      flavours
  in
  let ok = flag "ok" (Json.member "gate" j)
  and implied = not (unexpected || control_failed || unchecked) in
  if ok <> implied then
    bad "gate.ok is %b but the verdicts imply %b" ok implied;
  List.map fst listed

let elisions_of_report (j : Json.t) ~structure ~policy : string list =
  let sites =
    report_candidates j
    |> List.filter_map (fun (s, p, site) ->
           if s = structure && p = policy then Some site else None)
  in
  List.fold_left
    (fun sites (p, st, group) ->
      if p = policy && (st = None || st = Some structure) then
        match List.filter (fun g -> List.mem g sites) group with
        | [] | [ _ ] -> sites
        | _keep :: drop -> List.filter (fun s -> not (List.mem s drop)) sites
      else sites)
    sites mutual_cover_groups

let plan_of_report (j : Json.t) ~structure ~policy : Nvt_nvm.Optimizer.plan =
  { defer = true; elide = elisions_of_report j ~structure ~policy }

(* A report is read only through this check: [Error] carries the
   reason for a missing, malformed, stale or inconsistent report. *)
let load_report path : (Json.t, string) result =
  match
    let j = Json.parse_file path in
    ignore (report_candidates j);
    j
  with
  | j -> Ok j
  | exception (Sys_error msg | Json.Parse_error msg) -> Error msg

let classify_site (t : 'a target) ~evidence ~policy ~structure
    (site, { Stats.s_flushes = flushes; s_fences = fences; _ }) =
  Suppress.set (Some site);
  Fun.protect
    ~finally:(fun () -> Suppress.set None)
    (fun () ->
      (* measured instruction delta: one uncrashed run under
         suppression, before the battery resets nothing (the counters
         run from [Suppress.set]) *)
      ignore (t.probe ~seed:0);
      let skipped_flushes, skipped_fences = Suppress.skipped () in
      let { kill; unchecked; runs } = sweep t in
      let verdict =
        match (kill, unchecked) with
        | Some (a, detail), _ ->
          Necessary { attack = evidence a; detail; runs_to_kill = runs }
        | None, Some (a, key) -> Unchecked { attack = evidence a; key }
        | None, None ->
          Unkilled { expected = expectation ~policy ~structure ~site }
      in
      { site; flushes; fences; skipped_flushes; skipped_fences; runs; verdict })

(* ------------------------------------------------------------------ *)
(* Flavour reports                                                     *)
(* ------------------------------------------------------------------ *)

type flavour_report = {
  structure : string;
  policy : string;
  durable : bool;
  probe_steps : int;
  probe_stats : Stats.t;
  control_runs : int;
  control_failure : (attack * string) option;
      (* the INTACT flavour losing the battery: a broken harness *)
  control_unchecked : (attack * int) option;
      (* an attack on the intact flavour the checker could not judge *)
  sites : site_report list;
  elided : string list;
      (* the optimizer plan this battery ran under ([] = unoptimized);
         when non-empty, the control row is the substantive durability
         proof of the optimized configuration — a single-site mutant of
         an already-elided site is indistinguishable from the optimized
         baseline, so its own verdict row carries no information *)
}

type report = {
  scale_name : string;
  optimized : bool;
  flavours : flavour_report list;
}

(* One battery's row: probe, the intact control, then every mutable
   site — a probe site the target marks as a candidate that issued at
   least one flush or fence — classified in name order. [evidence]
   records the target's attacks as kill evidence. *)
let flavour_report ~structure ~(flavour : I.flavour) ~plan ~evidence
    (t : 'a target) : flavour_report =
  let (module Pol : I.POLICY) = flavour.policy in
  let policy = flavour.key in
  let probe_steps, probe_stats =
    let steps, st = t.probe ~seed:0 in
    (steps, Stats.copy st)
  in
  (* negative control: a non-durable flavour has nothing to mutate and
     must enumerate no named persistence sites; its row records the
     probe *)
  let (control_failure, control_unchecked, control_runs), sites =
    if not Pol.durable then ((None, None, 0), [])
    else
      let { kill; unchecked; runs } = sweep t in
      let evident (a, x) = (evidence a, x) in
      ( (Option.map evident kill, Option.map evident unchecked, runs),
        Stats.sites probe_stats
        |> List.filter (fun (site, { Stats.s_flushes; s_fences; _ }) ->
               t.mutable_site site && s_flushes + s_fences > 0)
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map (classify_site t ~evidence ~policy ~structure) )
  in
  { structure;
    policy;
    durable = Pol.durable;
    probe_steps;
    probe_stats;
    control_runs;
    control_failure;
    control_unchecked;
    sites;
    elided =
      (match (plan : Nvt_nvm.Optimizer.plan option) with
      | Some p when Pol.durable -> p.elide
      | _ -> []) }

(* A battery builds its target and runs it on the worker domain that
   owns it: an instantiated structure's cells must belong to that
   worker's machines. [plan] is the optimizer plan it runs under. *)
type battery = {
  plan : Nvt_nvm.Optimizer.plan option;
  report : unit -> flavour_report;
}

(* The structure batteries: every registry flavour of [structures]
   (default: the scale's set), restricted to [policies] when non-empty.
   With [optimize] (a checked report) each runs under its derived plan.
   Mutable sites are the named ones: CAS-only sites (lp:mark_clean,
   flit:install, flit:decrement) belong to the algorithms'
   synchronization and issue no flush or fence; the untagged [app] site
   covers setup/recovery persistence, which the battery's crash points
   never exercise meaningfully. *)
let batteries ?(structures = []) ?(policies = []) ?optimize (sc : scale) :
    battery list =
  let structures = if structures = [] then sc.structures else structures in
  List.concat_map
    (fun s_name ->
      let str =
        match List.assoc_opt s_name I.structures with
        | Some str -> str
        | None ->
          invalid_arg (Printf.sprintf "mutlab: unknown structure %S" s_name)
      in
      List.filter_map
        (fun (f : I.flavour) ->
          if policies <> [] && not (List.mem f.key policies) then None
          else if not (I.supports f s_name) then None
          else
            let plan =
              Option.map
                (fun j -> plan_of_report j ~structure:s_name ~policy:f.key)
                optimize
            in
            let report () =
              let t =
                structure_target (I.instantiate_flavour f s_name str) sc
              in
              let run () =
                flavour_report ~structure:s_name ~flavour:f ~plan
                  ~evidence:(fun a -> Structure a)
                  t
              in
              match plan with
              | None -> run ()
              | Some p ->
                Nvt_nvm.Optimizer.set (Some p);
                Fun.protect ~finally:(fun () -> Nvt_nvm.Optimizer.set None) run
            in
            Some { plan; report })
        I.flavours)
    structures

(* The batteries are independent — every attack builds its own machine
   and suppression is domain-local — so they stripe over a
   {!Nvt_sim.Domain_pool} round-robin (a size-1 pool is a plain call).
   The report (and its JSON) is index-ordered and carries no domain
   count, so a [domains = n] run is byte-identical to the sequential
   one. *)
let run ?(domains = 1) (sc : scale) (batteries : battery list) : report =
  let batteries = Array.of_list batteries in
  let n = Array.length batteries in
  let results = Array.make n None in
  let domains = max 1 (min domains n) in
  let pool = Nvt_sim.Domain_pool.create domains in
  Fun.protect
    ~finally:(fun () -> Nvt_sim.Domain_pool.shutdown pool)
    (fun () ->
      Nvt_sim.Domain_pool.run pool (fun d ->
          let i = ref d in
          while !i < n do
            results.(!i) <- Some (batteries.(!i).report ());
            i := !i + domains
          done));
  { scale_name = sc.scale_name;
    optimized = Array.exists (fun b -> b.plan <> None) batteries;
    flavours = Array.to_list results |> List.map Option.get }

(* ------------------------------------------------------------------ *)
(* Gate                                                                *)
(* ------------------------------------------------------------------ *)

(* The CI gate, per the Section 4.3 claim: under the NVTraverse policy
   every reachable site must be killed, except the documented
   self-covering allowlist. The same standard applies to the contenders
   whose minimality claims the repo publishes head-to-head — SOFT and
   the detectable wrapper ([gated_policies]): their soft:*/det:* sites
   must classify too. Unkilled sites of the *other* policies are
   findings, not failures — an unkillable izr:* site is precisely the
   over-flushing the paper's comparison is about. A control failure
   (the intact flavour losing its own battery) always fails: it means
   the harness, not the structure, is broken. *)

type gate = {
  unexpected_unkilled : (string * string * string) list;
      (* structure, policy, site *)
  stale_expectations : (string * string * string) list;
      (* expected-unkilled sites that a stronger battery killed *)
  control_failures : (string * string * string) list;
      (* structure, policy, detail *)
  unchecked : (string * string * string) list;
      (* structure, policy, the site (or the control) and the attack
         whose history the checker could not judge *)
}

let gate_of (r : report) : gate =
  let unexpected = ref [] and stale = ref [] and control = ref []
  and unchecked = ref [] in
  let unjudged (fr : flavour_report) what a key =
    unchecked :=
      ( fr.structure,
        fr.policy,
        Format.asprintf "%s under %a: key %d overflowed the checker's window"
          what pp_attack a key )
      :: !unchecked
  in
  (* A kill of an expected-unkilled site is NOT staleness when the
     site's mutual-cover partner is elided in this flavour's optimizer
     plan: the group predicts exactly that (each member is redundant
     only while the others execute), so the base battery's expectation
     still stands. *)
  let predicted_by_mutual_cover (fr : flavour_report) site =
    List.exists
      (fun (p, st, group) ->
        p = fr.policy
        && (st = None || st = Some fr.structure)
        && List.mem site group
        && List.exists
             (fun g -> g <> site && List.mem g fr.elided)
             group)
      mutual_cover_groups
  in
  List.iter
    (fun (fr : flavour_report) ->
      (match fr.control_failure with
      | Some (_, detail) ->
        control := (fr.structure, fr.policy, detail) :: !control
      | None -> ());
      Option.iter
        (fun (a, key) -> unjudged fr "control" a key)
        fr.control_unchecked;
      List.iter
        (fun (sr : site_report) ->
          match sr.verdict with
          | Unchecked { attack; key } -> unjudged fr sr.site attack key
          | Unkilled { expected = None } when List.mem fr.policy gated_policies ->
            unexpected := (fr.structure, fr.policy, sr.site) :: !unexpected
          | Necessary _
            when expectation ~policy:fr.policy ~structure:fr.structure
                   ~site:sr.site
                 <> None
                 && not (predicted_by_mutual_cover fr sr.site) ->
            stale := (fr.structure, fr.policy, sr.site) :: !stale
          | _ -> ())
        fr.sites)
    r.flavours;
  (* a battery that ran no flavour checked nothing, and must not pass *)
  if r.flavours = [] then control := [ ("*", "*", "no flavour battery ran") ];
  { unexpected_unkilled = List.rev !unexpected;
    stale_expectations = List.rev !stale;
    control_failures = List.rev !control;
    unchecked = List.rev !unchecked }

let gate_ok (g : gate) =
  g.unexpected_unkilled = [] && g.control_failures = [] && g.unchecked = []

(* ------------------------------------------------------------------ *)
(* JSON (nvtraverse-mutation/2)                                        *)
(* ------------------------------------------------------------------ *)

(* Every Unkilled verdict, machine-readable: the source the optimizer
   derives elision plans from (schema /2's [candidate_redundant]
   array). Until /2 this information existed only as a display suffix
   in {!pp_report}, so elision lists would have had to be hand-copied
   — exactly the drift the proof-gating is meant to prevent. *)
let candidate_redundant (r : report) :
    (string * string * string * string option) list =
  List.concat_map
    (fun (fr : flavour_report) ->
      List.filter_map
        (fun (sr : site_report) ->
          match sr.verdict with
          | Unkilled { expected } ->
            Some (fr.structure, fr.policy, sr.site, expected)
          | Necessary _ | Unchecked _ -> None)
        fr.sites)
    r.flavours

let attack_to_json (a : attack) : Json.t =
  match a with
  | Structure (Crash { seed; crash_step }) ->
    Obj [ ("kind", Str "crash"); ("seed", Int seed);
          ("crash_step", Int crash_step) ]
  | Structure (Stall { seed; crash_step }) ->
    Obj [ ("kind", Str "stall"); ("seed", Int seed);
          ("crash_step", Int crash_step) ]
  | Structure (Evict { seed; crash_step; probability }) ->
    Obj [ ("kind", Str "evict"); ("seed", Int seed);
          ("crash_step", Int crash_step); ("probability", Float probability) ]
  | Structure (Window { wseed; s0; t1 }) ->
    Obj [ ("kind", Str "window"); ("seed", Int wseed); ("s0", Int s0);
          ("t1",
           Str (match t1 with
               | Insert_other -> "insert"
               | Member_target -> "member")) ]
  | Svc_crash { seed; crash_step; recovery_step } ->
    Obj
      ([ ("kind", Json.Str "svc-crash"); ("seed", Json.Int seed);
         ("crash_step", Json.Int crash_step) ]
      @
      match recovery_step with
      | Some r -> [ ("recovery_step", Json.Int r) ]
      | None -> [])

let unchecked_to_json attack key : Json.t =
  Obj [ ("attack", attack_to_json attack); ("key", Int key) ]

let site_to_json (sr : site_report) : Json.t =
  let base =
    [ ("site", Json.Str sr.site);
      ("flushes", Json.Int sr.flushes);
      ("fences", Json.Int sr.fences);
      ("skipped_flushes", Json.Int sr.skipped_flushes);
      ("skipped_fences", Json.Int sr.skipped_fences);
      ("runs", Json.Int sr.runs) ]
  in
  match sr.verdict with
  | Necessary { attack; detail; runs_to_kill } ->
    Json.Obj
      (base
      @ [ ("verdict", Json.Str "necessary");
          ("kill",
           Json.Obj
             [ ("attack", attack_to_json attack);
               ("runs_to_kill", Json.Int runs_to_kill);
               ("detail", Json.Str detail) ]) ])
  | Unkilled { expected } ->
    Json.Obj
      (base
      @ [ ("verdict", Json.Str "unkilled");
          ("expected", Json.Bool (expected <> None)) ]
      @ match expected with
        | Some reason -> [ ("reason", Json.Str reason) ]
        | None -> [])
  | Unchecked { attack; key } ->
    Json.Obj
      (base
      @ [ ("verdict", Json.Str "unchecked");
          ("unchecked", unchecked_to_json attack key) ])

let to_json (r : report) : Json.t =
  let open Json in
  let g = gate_of r in
  let triple (a, b, c) =
    Json.Obj [ ("structure", Json.Str a); ("policy", Json.Str b);
               ("detail", Json.Str c) ]
  in
  Obj
    [ ("schema", Str schema_name);
      ("scale", Str r.scale_name);
      ("optimized", Bool r.optimized);
      ( "candidate_redundant",
        List
          (List.map
             (fun (structure, policy, site, expected) ->
               Obj
                 ([ ("structure", Str structure);
                    ("policy", Str policy);
                    ("site", Str site);
                    ("expected", Bool (expected <> None)) ]
                 @
                 match expected with
                 | Some reason -> [ ("reason", Str reason) ]
                 | None -> []))
             (candidate_redundant r)) );
      ( "gate",
        Obj
          ([ ("ok", Bool (gate_ok g));
             ( "unexpected_unkilled",
               List (List.map triple g.unexpected_unkilled) );
             ( "stale_expectations",
               List (List.map triple g.stale_expectations) );
             ("control_failures", List (List.map triple g.control_failures))
           ]
          @
          if g.unchecked = [] then []
          else [ ("unchecked", List (List.map triple g.unchecked)) ]) );
      ( "flavours",
        List
          (List.map
             (fun (fr : flavour_report) ->
               Obj
                 [ ("structure", Str fr.structure);
                   ("policy", Str fr.policy);
                   ("durable", Bool fr.durable);
                   ( "probe",
                     Obj
                       [ ("steps", Int fr.probe_steps);
                         ("flushes", Int fr.probe_stats.flushes);
                         ("fences", Int fr.probe_stats.fences);
                         ("cas", Int fr.probe_stats.cas);
                         ("sites", Json.sites fr.probe_stats) ] );
                   ( "control",
                     Obj
                       ([ ("runs", Int fr.control_runs);
                          ( "violations",
                            Int
                              (match fr.control_failure with
                              | Some _ -> 1
                              | None -> 0) ) ]
                       @
                       match fr.control_unchecked with
                       | Some (a, key) ->
                         [ ("unchecked", unchecked_to_json a key) ]
                       | None -> []) );
                   ("elided", List (List.map (fun s -> Str s) fr.elided));
                   ("sites", List (List.map site_to_json fr.sites)) ])
             r.flavours) ) ]

(* ------------------------------------------------------------------ *)
(* Human report                                                        *)
(* ------------------------------------------------------------------ *)

let pp_report ppf (r : report) =
  List.iter
    (fun (fr : flavour_report) ->
      Format.fprintf ppf "%s x %s (%s, %d probe steps)@." fr.structure
        fr.policy
        (if fr.durable then "durable" else "not durable")
        fr.probe_steps;
      if fr.elided <> [] then
        Format.fprintf ppf "  optimizer: defer on, elided %s@."
          (String.concat ", " fr.elided);
      (match fr.control_failure with
      | Some (a, d) ->
        Format.fprintf ppf "  CONTROL FAILURE after %a: %s@." pp_attack a d
      | None ->
        if fr.durable then
          Format.fprintf ppf "  control: %d attacks survived intact@."
            fr.control_runs);
      Option.iter
        (fun (a, key) ->
          Format.fprintf ppf "  control UNCHECKED: %a left key %d unjudged@."
            pp_attack a key)
        fr.control_unchecked;
      if fr.sites = [] then
        Format.fprintf ppf "  no mutable persistence sites@."
      else
        List.iter
          (fun (sr : site_report) ->
            match sr.verdict with
            | Necessary { attack; detail; runs_to_kill } ->
              Format.fprintf ppf
                "  %-22s NECESSARY  killed by %a (run %d/%d)@.%s" sr.site
                pp_attack attack runs_to_kill sr.runs
                (Printf.sprintf "    %s\n"
                   (String.concat " " (String.split_on_char '\n' detail)))
            | Unchecked { attack; key } ->
              Format.fprintf ppf
                "  %-22s UNCHECKED  %a left key %d unjudged (%d runs)@."
                sr.site pp_attack attack key sr.runs
            | Unkilled { expected } ->
              let label =
                if expected <> None then " (expected)"
                else if List.mem fr.policy gated_policies then " (UNEXPECTED)"
                else " (candidate-redundant)"
              in
              Format.fprintf ppf
                "  %-22s unkilled%s  (%d flushes, %d fences over %d runs)@."
                sr.site label sr.flushes sr.fences sr.runs)
          fr.sites;
      Format.fprintf ppf "@.")
    r.flavours;
  let g = gate_of r in
  if gate_ok g then
    Format.fprintf ppf "gate: OK (%d stale expectation(s))@."
      (List.length g.stale_expectations)
  else
    Format.fprintf ppf
      "gate: FAILED — %d unexpected unkilled NVTraverse site(s), %d control \
       failure(s), %d unchecked@."
      (List.length g.unexpected_unkilled)
      (List.length g.control_failures)
      (List.length g.unchecked)
