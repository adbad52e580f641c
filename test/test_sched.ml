(* The scheduler after the heap rewrite: the default schedule is pinned
   exactly (golden traces: a mixed two-era scenario, the list workload's
   shape, eviction with stalls, and both driven through a ladder of
   [advance_to] barriers), the heap and the dirty set are model-checked
   against naive references, and the working-set estimate shrinks when
   the reclamation layer frees nodes.

   The golden trace is deliberately brittle: the heap rewrite's contract
   was "same thread at every step", so any change to the default
   schedule — a different tie-break, a lost or extra RNG draw, a
   reordered charge — must fail here rather than silently re-rolling
   every simulated figure. If a future change to the machine is *meant*
   to alter schedules, re-record the constants below and say so in the
   commit. *)

open Support
module H = Nvt_sim.Sched_heap
module Cost_model = Nvt_nvm.Cost_model
module Ebr = Nvt_reclaim.Ebr.Make (Sim_mem)

(* ------------------------------------------------------------------ *)
(* Golden schedule                                                     *)
(* ------------------------------------------------------------------ *)

(* FNV-style fold over the (step, tid) sequence; 46-bit so the constant
   below is portable across 64-bit platforms. *)
let fnv_pair h (s, t) =
  let mix h x = (h lxor x) * 16777619 land 0x3FFFFFFFFFFF in
  mix (mix h s) t

(* Spawn [threads] fibers; thread [t] makes [ops] accesses to random
   [cells] drawn from the stream [| seed; t |]. [`Mixed] is an even mix
   of read, write, read+CAS, flush and fence; [`Durable_writes] is
   write+flush+fence only, for an era after a crash, whose reads could
   hit corrupted cells. *)
let spawn_random m cells ~seed ~threads ~ops kind =
  let n = Array.length cells in
  for t = 0 to threads - 1 do
    ignore
      (Machine.spawn m (fun () ->
           let rng = Random.State.make [| seed; t |] in
           for _ = 1 to ops do
             let c = cells.(Random.State.int rng n) in
             match kind with
             | `Durable_writes ->
               Sim_mem.write c t;
               Sim_mem.flush c;
               Sim_mem.fence ()
             | `Mixed -> (
               match Random.State.int rng 5 with
               | 0 -> ignore (Sim_mem.read c)
               | 1 -> Sim_mem.write c t
               | 2 ->
                 let v = Sim_mem.read c in
                 ignore (Sim_mem.cas c ~expected:v ~desired:(v + 1))
               | 3 -> Sim_mem.flush c
               | _ -> Sim_mem.fence ())
           done))
  done

(* A two-era scenario touching every scheduling path: six threads of
   mixed reads/writes/CAS/flush/fence under cost jitter, a mid-run
   crash, then a second era of write/flush/fence recovery threads. *)
let golden_scenario () =
  let log = ref [] in
  let m = Machine.create ~seed:42 ~cost:Cost_model.nvram ~jitter:2 () in
  Machine.set_schedule_hook m (Some (fun s t -> log := (s, t) :: !log));
  let cells = Array.init 64 (fun i -> Sim_mem.alloc i) in
  Machine.persist_all m;
  spawn_random m cells ~seed:7 ~threads:6 ~ops:40 `Mixed;
  Machine.set_crash_at_step m 150;
  (match Machine.run m with
  | Machine.Crashed_at _ -> ()
  | Machine.Completed -> Alcotest.fail "golden scenario: expected the crash");
  spawn_random m cells ~seed:9 ~threads:4 ~ops:25 `Durable_writes;
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> Alcotest.fail "golden scenario: unexpected crash");
  List.rev !log

(* Recorded from the pre-rewrite linear-scan scheduler; the heap
   scheduler must reproduce it bit for bit. *)
let golden_steps = 454
let golden_hash = 56119160064853

let golden_prefix =
  [ (1, 0); (2, 1); (3, 2); (4, 3); (5, 4); (6, 5); (7, 3); (8, 4); (9, 0);
    (10, 2); (11, 3); (12, 3); (13, 4); (14, 2); (15, 4); (16, 2); (17, 2);
    (18, 0); (19, 3); (20, 3); (21, 3); (22, 4); (23, 3); (24, 1); (25, 5);
    (26, 2); (27, 1); (28, 0); (29, 2); (30, 2); (31, 2); (32, 3); (33, 5);
    (34, 4); (35, 0); (36, 0); (37, 4); (38, 2); (39, 2); (40, 3); (41, 4);
    (42, 4); (43, 0); (44, 3); (45, 1); (46, 3); (47, 0); (48, 4) ]

let pp_sched seq =
  String.concat "; "
    (List.map (fun (s, t) -> Printf.sprintf "%d->t%d" s t) seq)

let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

let golden_schedule () =
  let seq = golden_scenario () in
  Alcotest.(check int) "step count" golden_steps (List.length seq);
  let prefix = take (List.length golden_prefix) seq in
  if prefix <> golden_prefix then
    Alcotest.failf "schedule prefix diverged:\nexpected %s\ngot      %s"
      (pp_sched golden_prefix) (pp_sched prefix);
  Alcotest.(check int)
    "schedule hash" golden_hash
    (List.fold_left fnv_pair 2166136261 seq)

(* Same seed, same program => the same thread at every step. *)
let replay_is_identical () =
  let a = golden_scenario () in
  let b = golden_scenario () in
  if a <> b then begin
    let rec first_diff i = function
      | x :: xs, y :: ys ->
        if x <> y then
          Alcotest.failf "replay diverged at index %d: %s vs %s" i
            (pp_sched [ x ]) (pp_sched [ y ])
        else first_diff (i + 1) (xs, ys)
      | _ -> Alcotest.failf "replay lengths differ: %d vs %d"
               (List.length a) (List.length b)
    in
    first_diff 0 (a, b)
  end

(* ------------------------------------------------------------------ *)
(* Golden schedules for the paths the scenario above misses            *)
(* ------------------------------------------------------------------ *)

(* How a test drives the machine through one era: a single [run], or
   [advance_to] over a ladder of barriers [rung] virtual-time units
   apart. The rung is below one flush's cost, so barriers land in the
   middle of persistence sequences. *)
let by_run m = Machine.run m

let by_ladder ~rung m =
  let rec go t =
    match Machine.advance_to m ~time:t with
    | `Barrier -> go (t + rung)
    | `Completed -> Machine.Completed
    | `Crashed_at c -> Machine.Crashed_at c
  in
  go rung

(* What a golden scenario pins: the (step, tid) sequence (its length and
   hash), the makespan, and the flush and fence counts. *)
type golden = { steps : int; hash : int; makespan : int; flushes : int;
                fences : int }

let pp_golden g =
  Printf.sprintf "steps %d hash %d makespan %d flushes %d fences %d" g.steps
    g.hash g.makespan g.flushes g.fences

let golden_of m log =
  let seq = List.rev log in
  let st = Machine.stats m in
  { steps = List.length seq;
    hash = List.fold_left fnv_pair 2166136261 seq;
    makespan = Machine.makespan m;
    flushes = st.flushes;
    fences = st.fences }

(* (a) The list-traverse workload's shape: a Harris list under the nvt
   policy, 8 threads, jitter 2 — long runs of reads by one thread
   between persistence instructions, so nearly every step is the
   running thread staying at the heap root. *)
let list_scenario drive =
  let module S = Hl.Durable in
  let log = ref [] in
  let m = Machine.create ~seed:5 ~cost:Cost_model.nvram ~jitter:2 () in
  Machine.set_schedule_hook m (Some (fun s t -> log := (s, t) :: !log));
  let s = S.create () in
  for k = 0 to 63 do
    ignore (S.insert s ~key:(2 * k) ~value:k)
  done;
  Machine.persist_all m;
  for t = 0 to 7 do
    ignore
      (Machine.spawn m (fun () ->
           let rng = Random.State.make [| 13; t |] in
           for _ = 1 to 30 do
             let k = Random.State.int rng 128 in
             match Random.State.int rng 10 with
             | 0 -> ignore (S.insert s ~key:k ~value:t)
             | 1 -> ignore (S.delete s k)
             | _ -> ignore (S.member s k)
           done))
  done;
  (match drive m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> Alcotest.fail "list scenario: unexpected crash");
  S.check_invariants s;
  golden_of m !log

let golden_list =
  { steps = 18790; hash = 11852623949077; makespan = 18428; flushes = 1107;
    fences = 703 }

(* (b) Random eviction together with stalls, a crash by virtual time and
   a second era: the stall draw (a thread rescheduled without
   stepping), the eviction draw after every step, and crash_at_time. *)
let evict_stall_scenario drive =
  let log = ref [] in
  let m =
    Machine.create ~seed:17 ~cost:Cost_model.nvram
      ~eviction:(Machine.Random_eviction 0.05)
      ~stall:{ Machine.probability = 0.05; max_units = 300 }
      ~jitter:1 ()
  in
  Machine.set_schedule_hook m (Some (fun s t -> log := (s, t) :: !log));
  let cells = Array.init 48 (fun i -> Sim_mem.alloc i) in
  Machine.persist_all m;
  spawn_random m cells ~seed:21 ~threads:7 ~ops:60 `Mixed;
  Machine.set_crash_at_time m 2500;
  (match drive m with
  | Machine.Crashed_at _ -> ()
  | Machine.Completed ->
    Alcotest.fail "evict/stall scenario: expected the crash");
  spawn_random m cells ~seed:23 ~threads:3 ~ops:30 `Durable_writes;
  (match drive m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ ->
    Alcotest.fail "evict/stall scenario: unexpected crash");
  golden_of m !log

let golden_evict_stall =
  { steps = 628; hash = 33794337882534; makespan = 9319; flushes = 148;
    fences = 157 }

let check_golden name expect got =
  if got <> expect then
    Alcotest.failf "%s diverged:\nexpected %s\ngot      %s" name
      (pp_golden expect) (pp_golden got)

let golden_list_schedule () =
  check_golden "list scenario" golden_list (list_scenario by_run)

let golden_evict_stall_schedule () =
  check_golden "evict/stall scenario" golden_evict_stall
    (evict_stall_scenario by_run)

(* (c) Pausing at barriers must not perturb the schedule: [advance_to]
   over a ladder executes exactly the steps one [run] does. *)
let ladder_matches_run () =
  check_golden "list scenario by ladder" golden_list
    (list_scenario (by_ladder ~rung:37));
  check_golden "evict/stall scenario by ladder" golden_evict_stall
    (evict_stall_scenario (by_ladder ~rung:37))

(* ------------------------------------------------------------------ *)
(* Sched_heap vs. a naive reference                                    *)
(* ------------------------------------------------------------------ *)

(* Reference: an unsorted (vtime, tid) list; min is the least pair
   lexicographically — exactly the scheduler's tie-break. *)
let model_min model =
  match model with
  | [] -> None
  | hd :: tl ->
    Some (List.fold_left (fun a b -> if b < a then b else a) hd tl)

(* Interpret a command list against both the heap and the model. Tids
   are allocated sequentially and never reused, like the machine's;
   [reschedule] only ever grows a key, like virtual time. *)
let heap_agrees_with_model cmds =
  let h = H.create () in
  let model = ref [] in
  let next_tid = ref 0 in
  let ok = ref true in
  let check b = if not b then ok := false in
  let pick param =
    match !model with
    | [] -> None
    | l -> Some (List.nth l (param mod List.length l))
  in
  List.iter
    (fun (code, param) ->
      match code with
      | 0 ->
        let tid = !next_tid in
        incr next_tid;
        let vtime = param mod 1_000_000 in
        H.add h ~vtime ~tid;
        model := (vtime, tid) :: !model
      | 1 ->
        let expect = model_min !model in
        check (H.min_tid h = Option.map snd expect);
        check (H.pop_min h = Option.map snd expect);
        (match expect with
        | None -> ()
        | Some e -> model := List.filter (fun x -> x <> e) !model)
      | 2 -> (
        (* remove a present tid, or probe an absent one *)
        match pick param with
        | None -> check (not (H.remove h ~tid:!next_tid))
        | Some ((_, tid) as e) ->
          check (H.remove h ~tid);
          check (not (H.mem h ~tid));
          model := List.filter (fun x -> x <> e) !model)
      | _ ->
        (* reschedule: mostly the root, as on the default schedule; also
           any present tid (an override's pick) and an absent one *)
        let target =
          match param mod 4 with
          | 0 -> pick param
          | 1 -> None
          | _ -> model_min !model
        in
        let runnable = param mod 7 <> 0 in
        let tid, vtime', rest =
          match target with
          | Some ((vtime, tid) as e) ->
            (tid, vtime + (param mod 50), List.filter (fun x -> x <> e) !model)
          | None ->
            let tid = !next_tid in
            incr next_tid;
            (tid, param mod 1_000_000, !model)
        in
        let root = H.reschedule h ~tid ~vtime:vtime' ~runnable in
        model := if runnable then (vtime', tid) :: rest else rest;
        check (root = Option.value ~default:(-1)
                        (Option.map snd (model_min !model))))
    cmds;
  check (H.size h = List.length !model);
  (* drain: the heap must yield the model in sorted (vtime, tid) order *)
  let drained = ref [] in
  let rec drain () =
    match H.pop_min h with
    | None -> ()
    | Some tid ->
      drained := tid :: !drained;
      drain ()
  in
  drain ();
  let expected = List.map snd (List.sort compare !model) in
  check (List.rev !drained = expected);
  check (H.is_empty h);
  !ok

let heap_cmds =
  QCheck.make
    ~print:(fun l ->
      String.concat "; "
        (List.map (fun (c, p) -> Printf.sprintf "(%d,%d)" c p) l))
    QCheck.Gen.(
      list_size (int_bound 300) (pair (int_bound 3) (int_bound 1_000_000)))

let heap_model_test =
  QCheck.Test.make ~count:200 ~name:"sched heap = sorted-list model"
    heap_cmds heap_agrees_with_model

(* The duplicate-add and out-of-range guards. *)
let heap_rejects_misuse () =
  let h = H.create () in
  H.add h ~vtime:3 ~tid:1;
  (match H.add h ~vtime:4 ~tid:1 with
  | () -> Alcotest.fail "duplicate add must raise"
  | exception Invalid_argument _ -> ());
  (match H.add h ~vtime:0 ~tid:(-1) with
  | () -> Alcotest.fail "negative tid must raise"
  | exception Invalid_argument _ -> ());
  (match H.reschedule h ~vtime:(-1) ~tid:1 ~runnable:true with
  | _ -> Alcotest.fail "reschedule to a negative vtime must raise"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int)
    "rescheduling the last tid away empties the heap" (-1)
    (let h = H.create () in
     H.add h ~vtime:0 ~tid:0;
     H.reschedule h ~vtime:5 ~tid:0 ~runnable:false);
  Alcotest.(check (list int)) "ascending tids" [ 1 ] (H.tids_ascending h)

(* ------------------------------------------------------------------ *)
(* Dirty_set vs. a list model                                          *)
(* ------------------------------------------------------------------ *)

module Delt = struct
  type e = { id : int; mutable ix : int }
  type elt = e

  let index e = e.ix
  let set_index e i = e.ix <- i
  let dummy = { id = -1; ix = -1 }
end

module DS = Nvt_sim.Dirty_set.Make (Delt)

let dirty_agrees_with_model cmds =
  let pool = Array.init 32 (fun id -> { Delt.id; ix = -1 }) in
  let t = DS.create () in
  let model = ref [] in
  let ok = ref true in
  let check b = if not b then ok := false in
  List.iter
    (fun (code, param) ->
      let e = pool.(param mod 32) in
      match code with
      | 0 ->
        DS.add t e;
        if not (List.memq e !model) then model := e :: !model
      | 1 ->
        DS.remove t e;
        model := List.filter (fun x -> x != e) !model
      | _ ->
        DS.clear t;
        model := [])
    cmds;
  check (DS.size t = List.length !model);
  (* contents by slot indexing must equal the model as a set *)
  let ids = List.init (DS.size t) (fun i -> (DS.get t i).Delt.id) in
  check
    (List.sort compare ids
    = List.sort compare (List.map (fun e -> e.Delt.id) !model));
  (* membership is the element's own index field *)
  Array.iter (fun e -> check (DS.mem e = List.memq e !model)) pool;
  (* a member's recorded slot must actually hold it *)
  List.iter (fun e -> check (DS.get t e.Delt.ix == e)) !model;
  !ok

let dirty_cmds =
  QCheck.make
    ~print:(fun l ->
      String.concat "; "
        (List.map (fun (c, p) -> Printf.sprintf "(%d,%d)" c p) l))
    QCheck.Gen.(
      list_size (int_bound 300)
        (pair (frequency [ (5, return 0); (4, return 1); (1, return 2) ])
           (int_bound 31)))

let dirty_model_test =
  QCheck.Test.make ~count:200 ~name:"dirty set = list model" dirty_cmds
    dirty_agrees_with_model

(* ------------------------------------------------------------------ *)
(* Working-set estimate and reclamation                                *)
(* ------------------------------------------------------------------ *)

(* Regression: the capacity-miss probability used to divide by
   [next_cid] — every cell ever allocated, never decremented — so any
   allocate/free churn inflated the read-miss rate forever. The live
   estimate must be allocations minus retirements, and the reclamation
   layer's frees must reach it through [Nvt_nvm.Memory.reclaimed]. *)
let reclaim_shrinks_working_set () =
  let m = Machine.create () in
  let e = Ebr.create ~max_threads:1 in
  let live0 = Machine.live_cells m in
  let cells = Array.init 20 (fun i -> Sim_mem.alloc i) in
  ignore cells;
  Alcotest.(check int)
    "allocations grow the estimate" (live0 + 20) (Machine.live_cells m);
  Ebr.enter e ~tid:0;
  for _ = 1 to 5 do
    Ebr.retire e ~tid:0 (fun () -> ())
  done;
  Ebr.exit_cs e ~tid:0;
  let before = Machine.live_cells m in
  ignore (Ebr.try_advance e);
  ignore (Ebr.try_advance e);
  Alcotest.(check int)
    "EBR frees shrink the estimate" (before - 5) (Machine.live_cells m);
  Machine.retire m 10_000;
  Alcotest.(check int) "retire clamps at zero" 0 (Machine.live_cells m)

(* Steady-state churn: one live cell replaced per iteration. The miss
   probability must stay at zero (live << capacity), so the makespan is
   linear in the op count; with the [next_cid] bug the estimate climbs
   past capacity after 100 iterations and the read_miss=1000 penalty
   blows the makespan up by two orders of magnitude. *)
let churn_miss_rate_stabilises () =
  let cost =
    { (Cost_model.uniform 1) with
      Cost_model.capacity_lines = 100;
      read_miss = 1000;
      name = "churn"
    }
  in
  let run_churn ~retire =
    let m = Machine.create ~seed:3 ~cost () in
    let probe = Sim_mem.alloc 0 in
    Machine.persist_all m;
    ignore
      (Machine.spawn m (fun () ->
           for _ = 1 to 500 do
             let c = Sim_mem.alloc 0 in
             ignore (Sim_mem.read c);
             if retire then Machine.retire m 1;
             ignore (Sim_mem.read probe)
           done));
    (match Machine.run m with
    | Machine.Completed -> ()
    | Machine.Crashed_at _ -> Alcotest.fail "unexpected crash");
    m
  in
  let m = run_churn ~retire:true in
  if Machine.live_cells m >= 10 then
    Alcotest.failf "live estimate leaked under churn: %d"
      (Machine.live_cells m);
  if Machine.makespan m > 5_000 then
    Alcotest.failf
      "makespan %d: churn at constant working set paid capacity misses"
      (Machine.makespan m);
  (* positive control: without retirement the same loop must blow past
     capacity and pay misses, or the knob tested above is dead *)
  let m' = run_churn ~retire:false in
  if Machine.makespan m' < 4 * Machine.makespan m then
    Alcotest.failf
      "makespan %d without retirement vs %d with: capacity misses not \
       charged"
      (Machine.makespan m') (Machine.makespan m)

let suite =
  [ Alcotest.test_case "golden schedule is reproduced exactly" `Quick
      golden_schedule;
    Alcotest.test_case "replay picks the same thread at every step" `Quick
      replay_is_identical;
    Alcotest.test_case "list golden schedule is reproduced exactly" `Quick
      golden_list_schedule;
    Alcotest.test_case "evict+stall golden schedule is reproduced exactly"
      `Quick golden_evict_stall_schedule;
    Alcotest.test_case "advance_to over a barrier ladder matches run" `Quick
      ladder_matches_run;
    QCheck_alcotest.to_alcotest heap_model_test;
    Alcotest.test_case "heap rejects misuse" `Quick heap_rejects_misuse;
    QCheck_alcotest.to_alcotest dirty_model_test;
    Alcotest.test_case "reclamation shrinks the working-set estimate" `Quick
      reclaim_shrinks_working_set;
    Alcotest.test_case "churn miss rate stabilises" `Quick
      churn_miss_rate_stabilises ]
