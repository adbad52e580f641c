(* The allocation-lean operation path.

   The machine draws its eviction and stall coins without boxing a
   float, keeps a cell's persisted value without an option, and keeps a
   thread's pending write-backs in reusable slots; the engine runs its
   attempt loop without closures, refs or tuples, and a structure's
   boundary passes its reach and persist cells to the engine one by
   one, typed, instead of building a set; the Harris list walks without
   a closure; the skiplist and both BSTs descend without a closure, a
   list or an option per level; every structure answers a lookup with
   a constant verdict; and a thread that stays first in the schedule
   takes its next step without a fiber switch, so without a
   continuation. These tests pin the decisions those rewrites
   must not change and the allocation they reached, so that a dropped
   box cannot creep back unnoticed. *)

open Support
module I = Nvt_harness.Instances
module W = Nvt_workload.Workload

(* ------------------------------------------------------------------ *)
(* The unboxed coin                                                    *)
(* ------------------------------------------------------------------ *)

(* Same decision as the stdlib draw at every step of a stream, and the
   same rng state afterwards (the next raw draws agree). *)
let coin_matches_stdlib =
  QCheck.Test.make ~count:300
    ~name:"coin decides as Random.State.float rng 1.0 < p, same rng state"
    QCheck.(
      pair int
        (oneof [ always 0.; always 1.; float_bound_inclusive 1. ]))
    (fun (seed, p) ->
      let a = Random.State.make [| seed |] in
      let b = Random.State.make [| seed |] in
      let same = ref true in
      for _ = 1 to 64 do
        if Machine.coin a p <> (Random.State.float b 1.0 < p) then
          same := false
      done;
      !same && Random.State.bits64 a = Random.State.bits64 b)

let coin_allocates_nothing () =
  let rng = Random.State.make [| 7 |] in
  let hits = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    if Machine.coin rng 0.5 then incr hits
  done;
  let w = Gc.minor_words () -. w0 in
  if w > 0. then Alcotest.failf "%.0f minor words for 1000 coin draws" w;
  Alcotest.(check bool) "some draws hit" true (!hits > 0)

(* ------------------------------------------------------------------ *)
(* The option-free persisted value                                     *)
(* ------------------------------------------------------------------ *)

(* A fresh cell's persisted slot holds its initial value, but
   [pst_seq = 0] says it was never persisted: the cell is dirty from its
   allocation on, writing the initial value back (physically equal)
   must leave it dirty, and the crash corrupts it. A cell persisted once
   restores its persisted value. *)
let never_persisted_stays_dirty () =
  let m = Machine.create () in
  let v0 = "initial" and v1 = "other" in
  let untouched = Sim_mem.alloc v0 in
  let fresh = Sim_mem.alloc v0 in
  Sim_mem.write fresh v1;
  Sim_mem.write fresh v0;
  let kept = Sim_mem.alloc v0 in
  Sim_mem.flush kept;
  (* setup mode: the flush persists at once *)
  Sim_mem.write kept v1;
  let back = Sim_mem.alloc v0 in
  Sim_mem.flush back;
  Sim_mem.write back v1;
  Sim_mem.write back v0;
  ignore (Machine.force_crash m);
  List.iter
    (fun (name, c) ->
      match Sim_mem.read c with
      | _ -> Alcotest.failf "%s never-persisted cell survived the crash" name
      | exception Machine.Corrupt_read _ -> ())
    [ ("an untouched", untouched); ("a rewritten", fresh) ];
  Alcotest.(check string) "persisted value restored" v0 (Sim_mem.read kept);
  Alcotest.(check string)
    "rewritten to its persisted value" v0 (Sim_mem.read back)

(* ------------------------------------------------------------------ *)
(* Allocation budgets                                                  *)
(* ------------------------------------------------------------------ *)

let set s p =
  I.instantiate (List.assoc s I.structures)
    (Option.get (I.flavour p)).I.policy

let apply (type t) (module S : I.SET with type t = t) (t : t) = function
  | W.Insert k -> ignore (S.insert t ~key:k ~value:k)
  | W.Delete k -> ignore (S.delete t k)
  | W.Lookup k -> ignore (S.member t k)

(* Minor words per op over a fixed seeded stream of [n] ops in setup
   mode, after a warm-up stream that lets the first-use growth of the
   counters' site table happen outside the measurement. *)
let setup_words ~structure ~policy ~range ~update_pct ~n =
  let (module S : I.SET) = set structure policy in
  let _m = Machine.create ~seed:1 () in
  let t = S.create () in
  List.iter
    (fun k -> ignore (S.insert t ~key:k ~value:k))
    (W.prefill_keys ~range);
  let stream seed count =
    let g = W.gen ~seed ~mix:(W.updates ~pct:update_pct) ~range in
    Array.init count (fun _ -> W.next g)
  in
  Array.iter (apply (module S) t) (stream 4 200);
  let ops = stream 5 n in
  let w0 = Gc.minor_words () in
  Array.iter (apply (module S) t) ops;
  (Gc.minor_words () -. w0) /. float_of_int n

(* The same, inside [Machine.run]: [structure] under the nvt policy at
   50% updates over 2048 keys, [threads] threads, eviction 0.01 and
   jitter 2 — the flush, fence, pending write-back and eviction paths
   that setup mode skips. A step that switches fibers also pays the
   continuation the runtime makes at the switch; a step that runs on in
   its fiber pays none. With [~setup:true] the same prefill and op
   streams are applied in setup mode instead, one stream after another:
   the run's setup-mode twin. Returns the words per op and the
   machine. *)
let run_words ?(setup = false) ~structure ~threads ~n () =
  let (module S : I.SET) = set structure "nvt" in
  let m =
    Machine.create ~seed:1 ~eviction:(Machine.Random_eviction 0.01) ~jitter:2
      ()
  in
  let t = S.create () in
  let range = 2048 in
  List.iter
    (fun k -> ignore (S.insert t ~key:k ~value:k))
    (W.prefill_keys ~range);
  Machine.persist_all m;
  let streams =
    Array.init threads (fun th ->
        let g = W.gen ~seed:(977 + th) ~mix:(W.updates ~pct:50) ~range in
        Array.init (n / threads) (fun _ -> W.next g))
  in
  let apply_all ops () = Array.iter (apply (module S) t) ops in
  if not setup then
    Array.iter (fun ops -> ignore (Machine.spawn m (apply_all ops))) streams;
  let w0 = Gc.minor_words () in
  (if setup then Array.iter (fun ops -> apply_all ops ()) streams
   else
     match Machine.run m with
     | Machine.Completed -> ()
     | Machine.Crashed_at _ -> Alcotest.fail "unrequested crash");
  ((Gc.minor_words () -. w0) /. float_of_int (n / threads * threads), m)

(* [reached] is the figure the allocation-lean path reached on OCaml
   5.1 and [before] what the same stream allocated before the typed
   boundary; each ceiling sits about 10% above [reached] and below
   [before]. *)
type budget = {
  name : string;
  structure : string;
  policy : string;
  range : int;
  update_pct : int;
  ceiling : float;
  reached : float;
  before : float;
}

let budgets =
  let b name structure policy range update_pct ceiling reached before =
    { name; structure; policy; range; update_pct; ceiling; reached; before }
  in
  [ b "list lookup, nvt" "list" "nvt" 64 0 11. 10.0 30.9;
    b "list lookup, volatile" "list" "volatile" 64 0 11. 10.0 14.0;
    b "hash lookup, nvt" "hash" "nvt" 2048 0 11. 10.0 28.5;
    b "hash lookup, volatile" "hash" "volatile" 2048 0 11. 10.0 14.0;
    b "hash 50% updates, nvt" "hash" "nvt" 2048 50 20.5 18.4 37.3;
    b "hash 50% updates, volatile" "hash" "volatile" 2048 50 20.5 18.4 22.4;
    b "skiplist lookup, nvt" "skiplist" "nvt" 2048 0 20. 18.0 42.0;
    b "skiplist lookup, volatile" "skiplist" "volatile" 2048 0 20. 18.0 25.0;
    b "ellen bst lookup, nvt" "bst-ellen" "nvt" 2048 0 23. 21.0 63.0;
    b "ellen bst lookup, volatile" "bst-ellen" "volatile" 2048 0 23. 21.0
      33.0;
    b "natarajan bst lookup, nvt" "bst-nm" "nvt" 2048 0 21. 19.0 49.0;
    b "natarajan bst lookup, volatile" "bst-nm" "volatile" 2048 0 21. 19.0
      29.0 ]

let measure b =
  setup_words ~structure:b.structure ~policy:b.policy ~range:b.range
    ~update_pct:b.update_pct ~n:4000

let setup_budgets () =
  let over =
    List.filter_map
      (fun b ->
        assert (b.reached <= b.ceiling && b.ceiling < b.before);
        let w = measure b in
        if w > b.ceiling then
          Some
            (Printf.sprintf "%s: %.1f words/op, ceiling %.1f (reached %.1f)"
               b.name w b.ceiling b.reached)
        else None)
      budgets
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

(* The transformation's host-side cost: an nvt op allocates what the
   volatile original allocates, plus at most 4 words — the boundary
   names its cells without boxing them. *)
let nvt_near_volatile () =
  let wide =
    List.filter_map
      (fun b ->
        if b.policy <> "nvt" then None
        else
          let twin =
            List.find
              (fun v ->
                v.policy = "volatile" && v.structure = b.structure
                && v.range = b.range && v.update_pct = b.update_pct)
              budgets
          in
          let w = measure b and v = measure twin in
          if w > v +. 4. then
            Some
              (Printf.sprintf "%s: %.1f words/op, volatile %.1f" b.name w v)
          else None)
      budgets
  in
  Alcotest.(check int) "nvt rows" 6
    (List.length (List.filter (fun b -> b.policy = "nvt") budgets));
  if wide <> [] then Alcotest.fail (String.concat "; " wide)

(* 37.8 words per op on OCaml 5.1, down from 38.3 before a step could
   run on in its fiber (64 threads rarely leave one first twice in a
   row), 57.3 before the typed boundary and 148.4 before the
   allocation-lean path (9.5 steps per op); the ceiling leaves room for
   most of one more word per step, should a runtime make its
   continuations larger. *)
let run_budget () =
  let w, _ = run_words ~structure:"hash" ~threads:64 ~n:6400 () in
  if w > 46. then
    Alcotest.failf "hash updates under Machine.run: %.1f words/op, ceiling 46" w

(* A lone thread is always the next to run, so every step after its
   first runs on in its fiber and the run makes one fiber switch: a
   simulated op allocates what its setup-mode twin does, within 1 word.
   When every step switched, the hash stream took 38.2 words/op here
   and the list stream (about 990 steps per op) 1 997, against about
   18.5 in setup mode. *)
let one_thread_run_near_setup () =
  let wide =
    List.filter_map
      (fun (structure, n) ->
        let w, m = run_words ~structure ~threads:1 ~n () in
        let s, _ = run_words ~setup:true ~structure ~threads:1 ~n () in
        Alcotest.(check int) (structure ^ ": one switch") 1 (Machine.switches m);
        if Float.abs (w -. s) > 1. then
          Some (Printf.sprintf "%s: %.1f words/op, setup mode %.1f" structure w s)
        else None)
      [ ("hash", 6400); ("list", 400) ]
  in
  if wide <> [] then Alcotest.fail (String.concat "; " wide)

(* Four threads reading one cell: equal costs and ties to the lowest
   tid put a different thread first after every read, so every step
   switches fibers. Returns the minor words [Machine.run] allocated and
   the machine. *)
let switching_words ~reads =
  let m = Machine.create () in
  let c = Sim_mem.alloc 0 in
  Machine.persist_all m;
  for _ = 1 to 4 do
    ignore
      (Machine.spawn m (fun () ->
           for _ = 1 to reads do
             ignore (Sim_mem.read c)
           done))
  done;
  let w0 = Gc.minor_words () in
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> Alcotest.fail "unrequested crash");
  (Gc.minor_words () -. w0, m)

(* A switching step allocates exactly the continuation the runtime
   makes when the fiber performs its effect: 2 minor words on OCaml 5.1.
   The difference of two run lengths cancels what a run pays once
   (each thread's handler and first fiber), so a closure, option or
   tuple made per switch shows as a whole word more. *)
let switching_step_budget () =
  let w1, m1 = switching_words ~reads:2000 in
  let w2, m2 = switching_words ~reads:4000 in
  List.iter
    (fun m ->
      Alcotest.(check int) "every step switches" (Machine.steps m)
        (Machine.switches m))
    [ m1; m2 ];
  Alcotest.(check (float 0.))
    "minor words per switching step" 2.
    ((w2 -. w1) /. float_of_int (Machine.steps m2 - Machine.steps m1))

(* ------------------------------------------------------------------ *)
(* Service requests                                                    *)
(* ------------------------------------------------------------------ *)

module Runner = Nvt_service.Runner
module Service = Nvt_service.Service

(* A whole crash-free [Runner.run] in the shapes of the benchmark
   suite's service workloads: per-op commit with checkpoints every
   20 000 units over uniform keys (svc-crash without its crashes), and
   group commit with checkpoints every 50 000 (svc-group), both with 5%
   multi-puts and 5% read-modify-writes over 512 keys. Words per
   request count everything the run allocates, setup and the oracle
   included. [reached] is the figure on OCaml 5.1 once the ledger
   commit kept its touched shards in a reused buffer, the dedup table
   became an array, the merge barrier int columns with no closure per
   barrier, batches reused arrays and checkpoint chunks flat int
   arrays; [before] is what the same run allocated with a table per
   commit and a block per event. Each ceiling sits about 10% above
   [reached]. *)
type svc_budget = {
  row : string;
  config : Runner.config;
  svc_ceiling : float;
  svc_reached : float;
  svc_before : float;
}

let svc_budgets =
  let group =
    { Runner.default_config with
      requests = 200_000;
      key_range = 512;
      checkpoint_interval = 50_000;
      multi_pct = 5;
      rmw_pct = 5;
      watchdog = 100_000_000 }
  in
  [ { row = "per-op, checkpointed (svc-crash, crash-free)";
      config =
        { group with
          mode = Service.Per_op;
          skew = 0.;
          requests = 100_000;
          checkpoint_interval = 20_000 };
      svc_ceiling = 191.;
      svc_reached = 173.6;
      svc_before = 378.4 };
    { row = "group commit (svc-group)";
      config = group;
      svc_ceiling = 160.;
      svc_reached = 145.5;
      svc_before = 285.8 } ]

let service_budgets () =
  let over =
    List.filter_map
      (fun b ->
        assert (b.svc_reached <= b.svc_ceiling && b.svc_ceiling < b.svc_before);
        let w0 = Gc.minor_words () in
        let r = Runner.run b.config in
        let w =
          (Gc.minor_words () -. w0) /. float_of_int b.config.requests
        in
        Alcotest.(check int) (b.row ^ ": all acked") b.config.requests r.acked;
        Alcotest.(check (list string)) (b.row ^ ": exactly once") []
          r.violations;
        if w > b.svc_ceiling then
          Some
            (Printf.sprintf
               "%s: %.1f words/request, ceiling %.0f (reached %.1f)" b.row w
               b.svc_ceiling b.svc_reached)
        else None)
      svc_budgets
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

(* The ledger commits a batch, one shard or spanning them all, and the
   merge barrier records and releases its events, without allocating:
   measured on a second round, once the columns have grown. *)
let commit_and_merge_allocate_nothing () =
  let module Ledger = Nvt_service.Ledger in
  let logs =
    Array.init 8 (fun _ -> Ledger.create_log (module Nvt_nvm.Native))
  in
  let t = Ledger.create (module Nvt_nvm.Native) logs in
  let entry =
    { Service.e_client = 0; e_seq = 0; e_op = Service.Get 0;
      e_res = Service.Done true }
  in
  let batch shards =
    Array.map
      (fun si ->
        { Service.seq = 0; shard = si; slot = Ledger.append logs.(si) entry;
          res = Service.Done true })
      shards
  in
  let spanning = batch [| 6; 2; 5; 4; 0; 2; 6; 1; 3; 7 |] in
  let single = batch [| 3; 3; 3 |] in
  let persist = ignore in
  let w0 = Gc.minor_words () in
  Ledger.commit t spanning (Array.length spanning) ~persist;
  Ledger.commit t single (Array.length single) ~persist;
  let w = Gc.minor_words () -. w0 in
  if w > 0. then Alcotest.failf "%.0f minor words for two ledger commits" w;
  let m = Runner.Merge.create ~groups:2 ~shards:4 ~ack_interval:(Some 1000) in
  let req = { Service.client = 1; seq = 2; op = Service.Put (5, 6) } in
  let released = ref 0 in
  let h =
    { Runner.Merge.on_apply = (fun ~client:_ ~seq:_ -> incr released);
      on_commit = (fun ~client:_ ~seq:_ ~shard:_ ~slot:_ -> incr released);
      on_ack =
        (fun ~client:_ ~seq:_ ~tag:_ ~value:_ ~dedup:_ ~time:_ ->
          incr released) }
  in
  let res = Service.Value (Some 9) in
  let round () =
    for i = 1 to 500 do
      let g = i land 1 in
      Runner.Merge.apply m g req ~time:i;
      Runner.Merge.commit m g req ~shard:1 ~slot:i ~time:i;
      Runner.Merge.ack m g req res ~dedup:(i mod 3 = 0) ~time:i
    done;
    Runner.Merge.release m ~audit:false ~all:false 700 h;
    Runner.Merge.release m ~audit:false ~all:true 700 h
  in
  round ();
  let w0 = Gc.minor_words () in
  round ();
  let w = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every event released" 3000 !released;
  if w > 0. then Alcotest.failf "%.0f minor words for 1500 merged events" w

let suite =
  [ QCheck_alcotest.to_alcotest coin_matches_stdlib;
    Alcotest.test_case "the coin allocates nothing" `Quick
      coin_allocates_nothing;
    Alcotest.test_case "a never-persisted cell stays dirty" `Quick
      never_persisted_stays_dirty;
    Alcotest.test_case "setup-mode ops stay within their allocation budget"
      `Quick setup_budgets;
    Alcotest.test_case "simulated hash updates stay within their budget"
      `Quick run_budget;
    Alcotest.test_case "a one-thread run allocates what setup mode does"
      `Quick one_thread_run_near_setup;
    Alcotest.test_case "a switching step allocates only its continuation"
      `Quick switching_step_budget;
    Alcotest.test_case "nvt setup-mode ops allocate what volatile ones do"
      `Quick nvt_near_volatile;
    Alcotest.test_case "service requests stay within their budget" `Quick
      service_budgets;
    Alcotest.test_case "ledger commits and merged events allocate nothing"
      `Quick commit_and_merge_allocate_nothing ]
