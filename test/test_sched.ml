(* The scheduler after the heap rewrite: the default schedule is pinned
   exactly (golden traces: a mixed two-era scenario, the list workload's
   shape, eviction with stalls, and both driven through a ladder of
   [advance_to] barriers; crash triggers met while a thread runs on in
   its fiber), the heap and the dirty set are model-checked
   against naive references, and the working-set estimate shrinks when
   frees are reported to it.

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
   hit corrupted cells. [note] runs before each access. *)
let spawn_random ?(note = ignore) m cells ~seed ~threads ~ops kind =
  let n = Array.length cells in
  for t = 0 to threads - 1 do
    ignore
      (Machine.spawn m (fun () ->
           let rng = Random.State.make [| seed; t |] in
           for _ = 1 to ops do
             let c = cells.(Random.State.int rng n) in
             note ();
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
  (List.rev !log, m)

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

(* A pinned schedule that also crosses run-on steps: some step's thread
   was still the next to run and took that step without a fiber switch,
   so the pin covers the run-on path's checks and prologue. *)
let runs_on name m =
  if Machine.switches m >= Machine.steps m then
    Alcotest.failf "%s: %d switches for %d steps: no step ran on" name
      (Machine.switches m) (Machine.steps m)

let golden_schedule () =
  let seq, m = golden_scenario () in
  runs_on "golden scenario" m;
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
  let a = fst (golden_scenario ()) in
  let b = fst (golden_scenario ()) in
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
   between persistence instructions. Even so, the thread that ran is
   the next root in only 3 197 of the 18 790 steps here (17%), and in
   170 457 of 10 306 596 on the list-traverse benchmark (1.7%): a
   step's cost usually carries the runner's key past another
   thread's. Those 3 197 steps run on in their fiber; the other 15 593
   switch. *)
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
  (golden_of m !log, m)

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
  (golden_of m !log, m)

let golden_evict_stall =
  { steps = 628; hash = 33794337882534; makespan = 9319; flushes = 148;
    fences = 157 }

(* (c) The hash-update workload's shape at the scheduler's full depth:
   a hash table under the nvt policy, 64 threads at 50% updates, jitter
   2 and random eviction, crashed by step, recovered, and a second era
   of 64 threads that reuses the first era's slots. *)
let hash_scenario drive =
  let module S = Ht.Durable in
  let log = ref [] in
  let m =
    Machine.create ~seed:37 ~cost:Cost_model.nvram
      ~eviction:(Machine.Random_eviction 0.01) ~jitter:2 ()
  in
  Machine.set_schedule_hook m (Some (fun s t -> log := (s, t) :: !log));
  let s = S.create_sized 64 in
  for k = 0 to 127 do
    ignore (S.insert s ~key:(2 * k) ~value:k)
  done;
  Machine.persist_all m;
  let era ~seed =
    for t = 0 to 63 do
      ignore
        (Machine.spawn m (fun () ->
             let rng = Random.State.make [| seed; t |] in
             for _ = 1 to 20 do
               let k = Random.State.int rng 256 in
               match Random.State.int rng 4 with
               | 0 -> ignore (S.insert s ~key:k ~value:t)
               | 1 -> ignore (S.delete s k)
               | _ -> ignore (S.member s k)
             done))
    done
  in
  era ~seed:41;
  Machine.set_crash_at_step m 6000;
  (match drive m with
  | Machine.Crashed_at _ -> ()
  | Machine.Completed -> Alcotest.fail "hash scenario: expected the crash");
  S.recover s;
  era ~seed:43;
  (match drive m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> Alcotest.fail "hash scenario: unexpected crash");
  S.check_invariants s;
  (golden_of m !log, m)

(* Recorded from the 4-ary heap scheduler the winner tree replaced. *)
let golden_hash_64 =
  { steps = 22456; hash = 15092890951901; makespan = 17474; flushes = 6734;
    fences = 4968 }

let check_golden name expect got =
  if got <> expect then
    Alcotest.failf "%s diverged:\nexpected %s\ngot      %s" name
      (pp_golden expect) (pp_golden got)

let golden_list_schedule () =
  let g, m = list_scenario by_run in
  check_golden "list scenario" golden_list g;
  Alcotest.(check int) "every step whose thread stays the root runs on"
    15_593 (Machine.switches m)

(* The stall adversary decides each step in [dispatch], so every
   step of this scenario switches fibers: the fallback is pinned too. *)
let golden_evict_stall_schedule () =
  let g, m = evict_stall_scenario by_run in
  check_golden "evict/stall scenario" golden_evict_stall g;
  Alcotest.(check int) "a stall adversary switches at every step"
    (Machine.steps m) (Machine.switches m)

let golden_hash_64_schedule () =
  let g, m = hash_scenario by_run in
  check_golden "64-thread hash scenario" golden_hash_64 g;
  runs_on "64-thread hash scenario" m

(* (d) Pausing at barriers must not perturb the schedule: [advance_to]
   over a ladder executes exactly the steps one [run] does. *)
let ladder_matches_run () =
  check_golden "list scenario by ladder" golden_list
    (fst (list_scenario (by_ladder ~rung:37)));
  check_golden "evict/stall scenario by ladder" golden_evict_stall
    (fst (evict_stall_scenario (by_ladder ~rung:37)))

(* (e) Crash triggers that land inside a run-on stretch: one thread
   writes, flushes, fences, reads and CASes under jitter and eviction
   while a second sleeps far ahead, so after the first three steps
   every step runs on in the busy thread's fiber, and the trigger is
   met by [yield]'s inline crash check. The crash must fire at the
   step and time the per-step switch fired it, with the same counters,
   makespan and surviving values: all recorded when every step
   switched fibers. *)
type crash_pin = {
  at : int;
  crash_steps : int;
  crash_makespan : int;
  counters : int list;  (* reads, writes, cas, cas failures, flushes,
                           fences, allocs *)
  survivors : int list;  (* each cell's value read after the crash *)
}

let run_on_crash_scenario trigger =
  let m =
    Machine.create ~seed:53 ~cost:Cost_model.nvram
      ~eviction:(Machine.Random_eviction 0.05) ~jitter:2 ()
  in
  let cells = Array.init 16 (fun i -> Sim_mem.alloc i) in
  Machine.persist_all m;
  ignore
    (Machine.spawn m (fun () ->
         let rng = Random.State.make [| 55 |] in
         for i = 1 to 200 do
           let c = cells.(Random.State.int rng 16) in
           Sim_mem.write c (100 + i);
           if i mod 3 = 0 then Sim_mem.flush c;
           if i mod 5 = 0 then Sim_mem.fence ();
           let v = Sim_mem.read cells.(i mod 16) in
           if i mod 7 = 0 then
             ignore (Sim_mem.cas cells.(i mod 16) ~expected:v ~desired:(-i))
         done));
  ignore
    (Machine.spawn m (fun () ->
         Machine.sleep m 1_000_000;
         Sim_mem.write cells.(0) (-1)));
  trigger m;
  let at =
    match Machine.run m with
    | Machine.Crashed_at t -> t
    | Machine.Completed -> Alcotest.fail "run-on crash: expected the crash"
  in
  Alcotest.(check int) "the busy thread ran on until the crash" 3
    (Machine.switches m);
  let st = Machine.stats m in
  { at;
    crash_steps = Machine.steps m;
    crash_makespan = Machine.makespan m;
    counters =
      [ st.reads; st.writes; st.cas; st.cas_failures; st.flushes; st.fences;
        st.allocs ];
    survivors = Array.to_list (Array.map Sim_mem.read cells) }

let crash_inside_a_run_on_stretch () =
  let check name expect got =
    let pp p =
      Printf.sprintf "at %d, %d steps, makespan %d, counters [%s], cells [%s]"
        p.at p.crash_steps p.crash_makespan
        (String.concat "; " (List.map string_of_int p.counters))
        (String.concat "; " (List.map string_of_int p.survivors))
    in
    if got <> expect then
      Alcotest.failf "%s:\nexpected %s\ngot      %s" name (pp expect) (pp got)
  in
  check "crash at step 300"
    { at = 8876; crash_steps = 300; crash_makespan = 8876;
      counters = [ 128; 112; 16; 0; 37; 22; 16 ];
      survivors =
        [ 169; 199; 129; -35; 142; 164; 205; 208; 121; 109; 10; 178; 193;
          195; 211; 181 ] }
    (run_on_crash_scenario (fun m -> Machine.set_crash_at_step m 300));
  check "crash at time 6000"
    { at = 6018; crash_steps = 186; crash_makespan = 6018;
      counters = [ 85; 70; 9; 0; 23; 14; 16 ];
      survivors =
        [ 169; 156; 129; -35; 142; 164; 163; 166; 121; 109; 10; 155; 131;
          133; 136; 154 ] }
    (run_on_crash_scenario (fun m -> Machine.set_crash_at_time m 6000))

(* ------------------------------------------------------------------ *)
(* Waiting in the scheduler                                            *)
(* ------------------------------------------------------------------ *)

(* [Machine.sleep ~until] must be exactly the loop it replaces, with
   the loop in the fiber: the same wakes, in the same steps, drawing the
   same stall, eviction and jitter bits. *)
let wait_until m q until = Machine.sleep m q ~until

let wait_by_hand m q until =
  let rec go () =
    Machine.sleep m q;
    if not (until ()) then go ()
  in
  go ()

(* Per era: a producer fiber persists a cell and then hands out a token
   (an OCaml ref, no simulated memory); three waiters sleep 150-unit
   quanta until a token is there or their deadline (read through
   [Machine.now]) has passed, and persist a cell per token; three mixed
   threads run alongside. The first era crashes by virtual time with
   waiters mid-wait, the second runs to completion. Jitter, eviction,
   stalls and the schedule hook are all on, so a skipped or reordered
   draw in a waiting step re-rolls everything after it. Returns the
   golden, the whole [Stats], the token wakes and the predicate's
   false evaluations (idle quanta). *)
let wait_scenario ~wait drive =
  let log = ref [] in
  let m =
    Machine.create ~seed:29 ~cost:Cost_model.nvram
      ~eviction:(Machine.Random_eviction 0.05)
      ~stall:{ Machine.probability = 0.05; max_units = 300 }
      ~jitter:2 ()
  in
  Machine.set_schedule_hook m (Some (fun s t -> log := (s, t) :: !log));
  let cells = Array.init 48 (fun i -> Sim_mem.alloc i) in
  Machine.persist_all m;
  let wakes = ref 0 and idle = ref 0 in
  let persist c v =
    Sim_mem.write c v;
    Sim_mem.flush c;
    Sim_mem.fence ()
  in
  let era ~seed ~deadline =
    let tokens = ref 0 in
    ignore
      (Machine.spawn m (fun () ->
           for i = 1 to 12 do
             persist cells.(8 + i) i;
             incr tokens
           done));
    for w = 0 to 2 do
      ignore
        (Machine.spawn m (fun () ->
             let until () =
               let ready = !tokens > 0 || Machine.now m >= deadline in
               if not ready then incr idle;
               ready
             in
             let rec serve () =
               wait m 150 until;
               if !tokens > 0 then begin
                 decr tokens;
                 incr wakes;
                 persist cells.(w) w;
                 serve ()
               end
             in
             serve ()))
    done;
    spawn_random m cells ~seed ~threads:3 ~ops:40 `Mixed
  in
  era ~seed:31 ~deadline:6000;
  Machine.set_crash_at_time m 2500;
  (match drive m with
  | Machine.Crashed_at _ -> ()
  | Machine.Completed -> Alcotest.fail "wait scenario: expected the crash");
  era ~seed:33 ~deadline:(Machine.clock m + 4000);
  (match drive m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> Alcotest.fail "wait scenario: unexpected crash");
  (golden_of m !log, Nvt_nvm.Stats.copy (Machine.stats m), !wakes, !idle)

let sleep_until_matches_the_loop () =
  let g, stats, wakes, idle = wait_scenario ~wait:wait_by_hand by_run in
  if wakes = 0 || idle = 0 then
    Alcotest.failf "wait scenario is vacuous: %d wakes, %d idle quanta" wakes
      idle;
  List.iter
    (fun (name, (g', stats', wakes', idle')) ->
      check_golden name g g';
      Alcotest.(check int) (name ^ ": wakes") wakes wakes';
      Alcotest.(check int) (name ^ ": idle quanta") idle idle';
      if stats' <> stats then Alcotest.failf "%s: Stats differ" name)
    [ ("until by run", wait_scenario ~wait:wait_until by_run);
      ("until by ladder", wait_scenario ~wait:wait_until (by_ladder ~rung:37));
      ("loop by ladder", wait_scenario ~wait:wait_by_hand (by_ladder ~rung:37))
    ]

(* On a quiet machine — no jitter, eviction, stalls, hook or crash
   trigger — a wake that finds nothing settles the waiter's following
   quanta in the same scheduler visit. That is exact under [sleep]'s
   contract, which this scenario obeys: each of three waiters sleeps
   150-unit quanta until its own token counter, filled only by the
   driver, is non-zero or its deadline, read through [Machine.now], has
   passed, and persists a cell per token; three mixed threads run
   alongside. By [run] the driver hands out every token before the
   run; by ladder it hands one out before each of the first twelve
   rungs. With no hook to record it, the schedule is what each thread
   notes before each of its accesses: its tid and virtual time, in
   execution order, together with the step count. Returns the golden,
   the whole [Stats], the token wakes, the predicate's false
   evaluations (idle quanta) and the scheduler visits. [machine]
   builds the machine, quiet by default. *)
let quiet_machine () = Machine.create ~seed:29 ~cost:Cost_model.nvram ()

let contract_scenario ?(machine = quiet_machine) ~wait drive =
  let m = machine () in
  let cells = Array.init 48 (fun i -> Sim_mem.alloc i) in
  Machine.persist_all m;
  let log = ref [] in
  let note () = log := (Machine.current_tid m, Machine.now m) :: !log in
  let wakes = ref 0 and idle = ref 0 in
  let tokens = Array.make 3 0 in
  let release i = if i < 12 then tokens.(i mod 3) <- tokens.(i mod 3) + 1 in
  for w = 0 to 2 do
    ignore
      (Machine.spawn m (fun () ->
           let until () =
             let ready = tokens.(w) > 0 || Machine.now m >= 6000 in
             if not ready then incr idle;
             ready
           in
           let rec serve () =
             wait m 150 until;
             if tokens.(w) > 0 then begin
               tokens.(w) <- tokens.(w) - 1;
               incr wakes;
               note ();
               Sim_mem.write cells.(w) w;
               Sim_mem.flush cells.(w);
               Sim_mem.fence ();
               serve ()
             end
           in
           serve ()))
  done;
  spawn_random ~note m cells ~seed:31 ~threads:3 ~ops:40 `Mixed;
  (match drive ~release m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ ->
    Alcotest.fail "contract scenario: unexpected crash");
  let st = Machine.stats m in
  ( { steps = Machine.steps m;
      hash = List.fold_left fnv_pair 2166136261 (List.rev !log);
      makespan = Machine.makespan m;
      flushes = st.flushes;
      fences = st.fences },
    Nvt_nvm.Stats.copy st,
    !wakes,
    !idle,
    Machine.visits m )

let release_then_run ~release m =
  for i = 0 to 11 do release i done;
  Machine.run m

let release_by_ladder ~rung ~release m =
  let rec go i t =
    release i;
    match Machine.advance_to m ~time:t with
    | `Barrier -> go (i + 1) (t + rung)
    | `Completed -> Machine.Completed
    | `Crashed_at c -> Machine.Crashed_at c
  in
  go 0 rung

let sleep_until_settles_exactly () =
  List.iter
    (fun (name, drive) ->
      let g, stats, wakes, idle, visits =
        contract_scenario ~wait:wait_by_hand drive
      in
      if wakes = 0 || idle = 0 then
        Alcotest.failf "%s: contract scenario is vacuous: %d wakes, %d idle"
          name wakes idle;
      Alcotest.(check int) (name ^ ": every step is a visit") g.steps
        visits;
      let g', stats', wakes', idle', visits' =
        contract_scenario ~wait:wait_until drive
      in
      check_golden (name ^ ": until") g g';
      Alcotest.(check int) (name ^ ": wakes") wakes wakes';
      Alcotest.(check int) (name ^ ": idle quanta") idle idle';
      if stats' <> stats then Alcotest.failf "%s: Stats differ" name;
      if visits' >= g'.steps then
        Alcotest.failf "%s: %d visits for %d steps: no quantum settled" name
          visits' g'.steps)
    [ ("by run", release_then_run);
      ("by ladder", release_by_ladder ~rung:400) ]

(* Each thing that makes a machine not quiet turns settling off on its
   own: every idle quantum is then a visit of its own, and the run still
   equals the hand-written loop's. *)
let not_quiet_settles_nothing () =
  let nvram = Cost_model.nvram in
  let with_ f () =
    let m = quiet_machine () in
    f m;
    m
  in
  List.iter
    (fun (name, machine) ->
      let run wait =
        contract_scenario ~machine ~wait (release_by_ladder ~rung:400)
      in
      let g, stats, wakes, idle, _ = run wait_by_hand in
      let g', stats', wakes', idle', visits' = run wait_until in
      Alcotest.(check int) (name ^ ": visits = steps") g'.steps visits';
      check_golden name g g';
      Alcotest.(check int) (name ^ ": wakes") wakes wakes';
      Alcotest.(check int) (name ^ ": idle quanta") idle idle';
      if stats' <> stats then Alcotest.failf "%s: Stats differ" name)
    [ ("jitter", fun () -> Machine.create ~seed:29 ~cost:nvram ~jitter:2 ());
      ( "eviction",
        fun () ->
          Machine.create ~seed:29 ~cost:nvram
            ~eviction:(Machine.Random_eviction 0.05) () );
      ( "stall",
        fun () ->
          Machine.create ~seed:29 ~cost:nvram
            ~stall:{ Machine.probability = 0.05; max_units = 300 }
            () );
      ( "hook",
        with_ (fun m -> Machine.set_schedule_hook m (Some (fun _ _ -> ()))) );
      ( "override",
        with_ (fun m -> Machine.set_scheduler m (fun _ tids -> List.hd tids)) );
      ("crash trigger", with_ (fun m -> Machine.set_crash_at_time m max_int));
      ("trace", with_ (fun m -> Machine.set_trace m ~capacity:16)) ]

(* A crash tears a waiting thread down like a suspended one: its
   continuation is discontinued, its predicate is never asked again and
   the next era completes without it. *)
let crash_tears_down_a_waiter () =
  let m = Machine.create () in
  let asks = ref 0 and torn = ref false and resumed = ref false in
  ignore
    (Machine.spawn m (fun () ->
         Fun.protect
           ~finally:(fun () -> torn := true)
           (fun () ->
             Machine.sleep m 10 ~until:(fun () ->
                 incr asks;
                 false);
             resumed := true)));
  Machine.set_crash_at_time m 55;
  (match Machine.run m with
  | Machine.Crashed_at 60 -> ()
  | Machine.Crashed_at t -> Alcotest.failf "crashed at %d, expected 60" t
  | Machine.Completed -> Alcotest.fail "the waiter completed");
  Alcotest.(check bool) "waiter torn down" true !torn;
  Alcotest.(check bool) "waiter never resumed" false !resumed;
  Alcotest.(check int) "asked at each wake before the crash" 5 !asks;
  ignore (Machine.spawn m ignore);
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> Alcotest.fail "second era crashed");
  Alcotest.(check int) "not asked after the crash" 5 !asks

(* A scheduler override that picks a waiting thread runs its wake: the
   predicate is asked at the thread's own time, and while it is false
   the quantum is re-armed without resuming the fiber. *)
let override_rearms_a_waiter () =
  let m = Machine.create () in
  let c = Sim_mem.alloc 0 in
  let seen = ref [] and resumed_at = ref (-1) and log = ref [] in
  let waiter =
    Machine.spawn m (fun () ->
        Machine.sleep m 10 ~until:(fun () ->
            seen := Machine.now m :: !seen;
            List.length !seen >= 4);
        resumed_at := Machine.steps m)
  in
  let other =
    Machine.spawn m (fun () ->
        for _ = 1 to 5 do
          ignore (Sim_mem.read c)
        done)
  in
  Machine.set_schedule_hook m (Some (fun s t -> log := (s, t) :: !log));
  Machine.set_scheduler m (fun _ tids ->
      if List.mem waiter tids then waiter else List.hd tids);
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> Alcotest.fail "unexpected crash");
  Alcotest.(check (list int))
    "asked once per quantum, at the waiter's time" [ 10; 20; 30; 40 ]
    (List.rev !seen);
  Alcotest.(check int) "resumed in the wake that held" 5 !resumed_at;
  Alcotest.(check (list int))
    "the waiter's wakes are scheduling steps"
    ([ waiter; waiter; waiter; waiter; waiter ]
    @ List.init 6 (fun _ -> other))
    (List.rev_map snd !log)

(* ------------------------------------------------------------------ *)
(* Failure paths                                                       *)
(* ------------------------------------------------------------------ *)

(* How a run ends other than by completing: a fiber that raises, a
   scheduler override that picks a finished thread, a failure met at an
   [advance_to] barrier, and a crash that tears down fibers mid-loop.
   Each golden was recorded when every step ended by returning to a
   step loop in [advance_to]; the step and switch counts at which each
   surfaces must not move. *)

exception Boom of int

(* Four threads alternate reads and writes of one cell under jitter;
   thread 2 raises [Boom 30] in its 30th iteration. *)
let failing_machine () =
  let m = Machine.create ~seed:5 ~jitter:2 () in
  let c = Sim_mem.alloc 0 in
  Machine.persist_all m;
  for t = 0 to 3 do
    ignore
      (Machine.spawn m (fun () ->
           for i = 1 to 60 do
             if t = 2 && i = 30 then raise (Boom i);
             if i land 1 = 0 then Sim_mem.write c i
             else ignore (Sim_mem.read c)
           done))
  done;
  m

let run_raises_a_fiber_failure () =
  let m = failing_machine () in
  (match Machine.run m with
  | _ -> Alcotest.fail "the failed fiber did not surface"
  | exception Boom 30 -> ());
  Alcotest.(check (pair int int))
    "raised at the era's end: steps, switches" (213, 173)
    (Machine.steps m, Machine.switches m)

let advance_to_raises_at_its_barrier () =
  let m = failing_machine () in
  let last = ref 0 in
  let rec go t =
    last := t;
    match Machine.advance_to m ~time:t with
    | `Barrier -> go (t + 50)
    | `Completed | `Crashed_at _ ->
      Alcotest.fail "the failed fiber did not surface at a barrier"
  in
  (match go 50 with () -> () | exception Boom 30 -> ());
  Alcotest.(check (list int))
    "raised at barrier time, steps, switches" [ 750; 115; 97 ]
    [ !last; Machine.steps m; Machine.switches m ]

let override_picking_a_finished_thread_raises () =
  let m = Machine.create () in
  let c = Sim_mem.alloc 0 in
  let a =
    Machine.spawn m (fun () ->
        for _ = 1 to 3 do
          ignore (Sim_mem.read c)
        done)
  in
  ignore
    (Machine.spawn m (fun () ->
         for _ = 1 to 10 do
           ignore (Sim_mem.read c)
         done));
  Machine.set_scheduler m (fun _ _ -> a);
  (match Machine.run m with
  | _ -> Alcotest.fail "the override's pick of a finished thread ran"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "names the tid"
      "Machine: scheduler override chose tid 0, which is not runnable" msg);
  Alcotest.(check (pair int int)) "steps, switches" (4, 4)
    (Machine.steps m, Machine.switches m)

(* Three threads loop write, flush, fence on their own cells; the crash
   tears all three down mid-loop, one of them yielding again from the
   [finally] it runs while it unwinds. The next era completes. *)
let crash_tears_down_flush_fence_loops () =
  let m = Machine.create ~seed:11 ~jitter:2 () in
  let cells = Array.init 3 (fun i -> Sim_mem.alloc i) in
  Machine.persist_all m;
  let torn = ref 0 in
  for t = 0 to 2 do
    ignore
      (Machine.spawn m (fun () ->
           Fun.protect
             ~finally:(fun () ->
               incr torn;
               if t = 1 then Sim_mem.write cells.(0) (-1))
             (fun () ->
               for i = 1 to 1000 do
                 Sim_mem.write cells.(t) (i * 10 + t);
                 Sim_mem.flush cells.(t);
                 Sim_mem.fence ()
               done)))
  done;
  Machine.set_crash_at_time m 5000;
  (match Machine.run m with
  | Machine.Crashed_at t -> Alcotest.(check int) "crash time" 5002 t
  | Machine.Completed -> Alcotest.fail "the loops completed");
  Alcotest.(check (list int))
    "steps, switches, torn down" [ 222; 200; 3 ]
    [ Machine.steps m; Machine.switches m; !torn ];
  let seen = ref [] in
  ignore
    (Machine.spawn m (fun () ->
         seen := Array.to_list (Array.map Sim_mem.read cells)));
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> Alcotest.fail "second era crashed");
  Alcotest.(check (list int)) "persisted values" [ 250; 241; 242 ] !seen;
  Alcotest.(check (pair int int)) "steps, switches after the second era"
    (226, 201)
    (Machine.steps m, Machine.switches m)

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

(* The key packing's limits (sched_heap.ml): tids below 2^20, vtimes
   below 2^42 - 1, so the largest key sits just under the tree's empty
   sentinel. *)
let max_tid = (1 lsl 20) - 1
let max_vtime = (max_int lsr 20) - 1

(* Interpret a command list against both the heap and the model. Tids
   are allocated sequentially and never reused, like the machine's, but
   may jump ahead past 10 000 while only a few are live, so the tree
   reuses freed slots under ever larger tids. A re-key may also
   shrink a key, which the machine never asks for. One tid, [max_tid],
   comes and goes with the largest key [reschedule] accepts. *)
let heap_agrees_with_model cmds =
  let h = H.create () in
  let model = ref [] in
  let next_tid = ref 0 in
  let ok = ref true in
  let check b = if not b then ok := false in
  (* the root [reschedule] must return: the model's min, -1 if empty *)
  let root () =
    Option.value ~default:(-1) (Option.map snd (model_min !model))
  in
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
      | 1 -> (
        (* the root finishes, as a thread does on the default schedule *)
        let expect = model_min !model in
        check (H.min_tid h = Option.map snd expect);
        match expect with
        | None -> ()
        | Some ((_, tid) as e) ->
          model := List.filter (fun x -> x <> e) !model;
          check (H.reschedule h ~tid ~vtime:0 ~runnable:false = root ()))
      | 2 -> (
        (* a present tid finishes, or an absent one leaves the root *)
        match pick param with
        | None ->
          let tid = !next_tid in
          check (H.reschedule h ~tid ~vtime:0 ~runnable:false = root ());
          check (not (H.mem h ~tid))
        | Some ((_, tid) as e) ->
          model := List.filter (fun x -> x <> e) !model;
          check (H.reschedule h ~tid ~vtime:0 ~runnable:false = root ());
          check (not (H.mem h ~tid)))
      | 3 ->
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
            ( tid,
              max 0 (min max_vtime (vtime + (param mod 50) - 20)),
              List.filter (fun x -> x <> e) !model )
          | None ->
            let tid = !next_tid in
            incr next_tid;
            (tid, param mod 1_000_000, !model)
        in
        let r = H.reschedule h ~tid ~vtime:vtime' ~runnable in
        model := if runnable then (vtime', tid) :: rest else rest;
        check (r = root ())
      | 4 -> next_tid := !next_tid + (param mod 1000)
      | _ ->
        (* the largest key comes, or goes *)
        let present = List.exists (fun (_, t) -> t = max_tid) !model in
        model :=
          if present then List.filter (fun (_, t) -> t <> max_tid) !model
          else (max_vtime, max_tid) :: !model;
        check
          (H.reschedule h ~tid:max_tid ~vtime:max_vtime ~runnable:(not present)
          = root ());
        check (H.mem h ~tid:max_tid = not present))
    cmds;
  check
    (H.tids_ascending h = List.sort compare (List.map snd !model));
  (* drain: finishing the root each time must yield exactly the model's
     tids, in sorted (vtime, tid) order; the budget stops a heap that
     never empties *)
  let drained = ref [] in
  let rec drain budget =
    match H.min_tid h with
    | Some tid when budget > 0 ->
      drained := tid :: !drained;
      ignore (H.reschedule h ~tid ~vtime:0 ~runnable:false);
      drain (budget - 1)
    | _ -> ()
  in
  drain (List.length !model + 1);
  let expected = List.map snd (List.sort compare !model) in
  check (List.length !drained = List.length !model);
  check (List.rev !drained = expected);
  !ok

let heap_cmds =
  QCheck.make
    ~print:(fun l ->
      String.concat "; "
        (List.map (fun (c, p) -> Printf.sprintf "(%d,%d)" c p) l))
    QCheck.Gen.(
      list_size (int_bound 300) (pair (int_bound 5) (int_bound 1_000_000)))

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
  (match H.reschedule h ~vtime:(max_vtime + 1) ~tid:1 ~runnable:true with
  | _ -> Alcotest.fail "reschedule past the largest vtime must raise"
  | exception Invalid_argument _ -> ());
  (match H.add h ~vtime:0 ~tid:(max_tid + 1) with
  | () -> Alcotest.fail "a tid past the packing must raise"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int)
    "rescheduling the last tid away empties the heap" (-1)
    (let h = H.create () in
     H.add h ~vtime:0 ~tid:0;
     H.reschedule h ~vtime:5 ~tid:0 ~runnable:false);
  Alcotest.(check (list int)) "ascending tids" [ 1 ] (H.tids_ascending h)

(* Finishing a thread that is not the root — an override's pick, or a
   tid already gone — must leave the root alone, and the remaining
   tids must still come out in (vtime, tid) order. *)
let heap_finishing_keeps_the_order () =
  let h = H.create () in
  List.iteri (fun tid vtime -> H.add h ~vtime ~tid) [ 5; 3; 9; 3; 7 ];
  Alcotest.(check (option int)) "least vtime, lowest tid" (Some 1)
    (H.min_tid h);
  Alcotest.(check int) "a non-root tid finishes" 1
    (H.reschedule h ~tid:2 ~vtime:0 ~runnable:false);
  Alcotest.(check (list int)) "it leaves the runnable list" [ 0; 1; 3; 4 ]
    (H.tids_ascending h);
  Alcotest.(check int) "an absent tid finishes" 1
    (H.reschedule h ~tid:9 ~vtime:0 ~runnable:false);
  Alcotest.(check bool) "and is not added" false (H.mem h ~tid:9);
  let order =
    List.map (fun tid -> H.reschedule h ~tid ~vtime:0 ~runnable:false)
      [ 1; 3; 0; 4 ]
  in
  Alcotest.(check (list int)) "roots as each root finishes" [ 3; 0; 4; -1 ]
    order;
  Alcotest.(check (option int)) "drained" None (H.min_tid h)

(* [clear] forgets every tid: none is a member afterwards, and each may
   be added again, directly or by rescheduling it as runnable. *)
let heap_clear_forgets_every_tid () =
  let h = H.create () in
  List.iter (fun tid -> H.add h ~vtime:tid ~tid) [ 0; 1; 2; 40 ];
  H.clear h;
  Alcotest.(check (option int)) "no root" None (H.min_tid h);
  Alcotest.(check (list int)) "no tids" [] (H.tids_ascending h);
  Alcotest.(check bool) "not a member" false (H.mem h ~tid:40);
  H.add h ~vtime:8 ~tid:40;
  Alcotest.(check int) "a runnable reschedule adds" 2
    (H.reschedule h ~tid:2 ~vtime:4 ~runnable:true);
  Alcotest.(check (list int)) "both present" [ 2; 40 ] (H.tids_ascending h)

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
   estimate must be allocations minus retirements, and frees (the
   service ledger's and checkpoint's) must reach it through
   [Nvt_nvm.Memory.reclaimed]. *)
let reclaim_shrinks_working_set () =
  let m = Machine.create () in
  let live0 = Machine.live_cells m in
  let cells = Array.init 20 (fun i -> Sim_mem.alloc i) in
  ignore cells;
  Alcotest.(check int)
    "allocations grow the estimate" (live0 + 20) (Machine.live_cells m);
  let before = Machine.live_cells m in
  Nvt_nvm.Memory.reclaimed 5;
  Alcotest.(check int)
    "reported frees shrink the estimate" (before - 5) (Machine.live_cells m);
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
    Alcotest.test_case "64-thread hash golden schedule is reproduced exactly"
      `Quick golden_hash_64_schedule;
    Alcotest.test_case "advance_to over a barrier ladder matches run" `Quick
      ladder_matches_run;
    Alcotest.test_case "a crash inside a run-on stretch fires as before"
      `Quick crash_inside_a_run_on_stretch;
    Alcotest.test_case "sleep ~until matches the hand-written wait loop"
      `Quick sleep_until_matches_the_loop;
    Alcotest.test_case "sleep ~until settles idle quanta exactly when quiet"
      `Quick sleep_until_settles_exactly;
    Alcotest.test_case "a machine that is not quiet settles no quantum" `Quick
      not_quiet_settles_nothing;
    Alcotest.test_case "a crash tears down a waiting thread" `Quick
      crash_tears_down_a_waiter;
    Alcotest.test_case "a scheduler override re-arms a waiting thread"
      `Quick override_rearms_a_waiter;
    Alcotest.test_case "run raises a failed fiber's exception" `Quick
      run_raises_a_fiber_failure;
    Alcotest.test_case "advance_to raises a failure at its barrier" `Quick
      advance_to_raises_at_its_barrier;
    Alcotest.test_case "an override picking a finished thread raises" `Quick
      override_picking_a_finished_thread_raises;
    Alcotest.test_case "a crash tears down flush/fence loops" `Quick
      crash_tears_down_flush_fence_loops;
    QCheck_alcotest.to_alcotest heap_model_test;
    Alcotest.test_case "heap rejects misuse" `Quick heap_rejects_misuse;
    Alcotest.test_case "finishing a non-root tid keeps the heap order"
      `Quick heap_finishing_keeps_the_order;
    Alcotest.test_case "clear forgets every tid" `Quick
      heap_clear_forgets_every_tid;
    QCheck_alcotest.to_alcotest dirty_model_test;
    Alcotest.test_case "reclamation shrinks the working-set estimate" `Quick
      reclaim_shrinks_working_set;
    Alcotest.test_case "churn miss rate stabilises" `Quick
      churn_miss_rate_stabilises ]
