(* Exhaustive crash-point coverage: for a fixed small workload, crash at
   *every* scheduling step (not a random sample), recover, and check
   durable linearizability. Combined with the eviction adversary this
   covers each "crash between these two instructions" case the paper's
   proof reasons about, for the steps the workload actually executes. *)

open Support

let sweep name (module S : SET) ~eviction () =
  let recorded () =
    let m = Machine.create ~seed:5 ~eviction () in
    let r = Crashlab.start (module S) m ~prefill:[ 1; 3; 5 ] in
    Crashlab.spawn_uniform r ~threads:2 ~ops:6 ~range:8 ~seed:(fun tid ->
        [| 5; tid |]);
    r
  in
  let check what (r : Crashlab.recorded) =
    r.check_invariants ();
    match Crashlab.verdict r with
    | Ok () -> ()
    | Error v ->
      Alcotest.failf "%s: %s violates durability:@.%a" name what
        Lin.pp_violation v
  in
  (* The crash-free run, under the same eviction, measures the run's
     length T. A crash trigger is only checked before a step, so the
     last point is a crash at quiescence: every completed operation
     must be durable. *)
  let r = recorded () in
  (match Crashlab.era r with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> assert false);
  let total_steps = Machine.steps r.machine in
  History.mark_crash r.history ~time:(Machine.force_crash r.machine);
  r.recover ();
  check (Printf.sprintf "crash at quiescence (step %d)" total_steps) r;
  for crash_step = 1 to total_steps - 1 do
    let r = recorded () in
    Machine.set_crash_at_step r.machine crash_step;
    let what = Printf.sprintf "crash at step %d/%d" crash_step total_steps in
    match Crashlab.era r with
    | Machine.Crashed_at _ -> check what r
    | Machine.Completed -> Alcotest.failf "%s: %s never fired" name what
  done

(* A registry structure's sweeps: one per durable policy that supports
   it, with and without eviction. The crash-at-every-step argument must
   hold for each flush discipline, not just the engine-placed one.
   [except] names the (flavour, eviction) pairs a hand-written case
   already sweeps. *)
let registry_sweeps ?(except = []) s_key name =
  let str = List.assoc s_key I.structures in
  List.concat_map
    (fun (f : I.flavour) ->
      let set = I.instantiate_flavour f s_key str in
      List.filter_map
        (fun (ev_name, eviction) ->
          if List.mem (f.key, eviction) except then None
          else
            Some
              (Alcotest.test_case
                 (Printf.sprintf "%s, %s (%s)" name f.key ev_name)
                 `Quick
                 (sweep (s_key ^ "/" ^ f.key) set ~eviction)))
        [ ("no eviction", Machine.No_eviction);
          ("random eviction", Machine.Random_eviction 0.1) ])
    (List.filter (fun f -> I.supports f s_key) I.durable_flavours)

let list_sweeps = registry_sweeps "list" "harris list"

(* The other registry structures under every supporting durable policy;
   the trees' nvt sweep without eviction is the named case of each. *)
let structure_sweeps =
  let named = [ ("nvt", Machine.No_eviction) ] in
  registry_sweeps "hash" "hash table"
  @ registry_sweeps ~except:named "bst-ellen" "ellen bst"
  @ registry_sweeps ~except:named "bst-nm" "natarajan bst"
  @ registry_sweeps ~except:named "skiplist" "skiplist"

(* Write-backs of one cell must serialize as cache coherence would: if
   T0 flushes value 1 but stalls before its fence, and T1 then writes,
   flushes and fences value 2, T0's late fence completing the stale
   write-back must not overwrite the newer persisted value. (The
   unsequenced model lost acknowledged inserts under the mutation
   harness's stall adversary: link-and-persist marked the word clean
   after the stale overwrite, so no later flush ever repaired it.) *)
let stale_write_back_dropped () =
  let m = Machine.create ~seed:0 () in
  let cell = Sim_mem.alloc 0 in
  Machine.persist_all m;
  let body value touches () =
    Sim_mem.write cell value;
    Sim_mem.flush cell;
    Sim_mem.fence ();
    (* a metadata touch in the style of link-and-persist's mark-clean
       CAS: re-install the value just read, re-dirtying the line
       without changing it — so the crash wipes the line back to
       whatever is persisted *)
    for _ = 1 to touches do
      let v = Sim_mem.read cell in
      Sim_mem.write cell v
    done
  in
  let t0 = Machine.spawn m (body 1 4) in
  let t1 = Machine.spawn m (body 2 0) in
  let picked0 = ref 0 in
  (* t0: write 1, flush (captures 1); t1: write 2, flush, fence — value
     2 is persisted; t0: fence completes the stale write-back of 1,
     then touches the line; then freeze the machine. *)
  Machine.set_scheduler m (fun m runnable ->
      if List.mem t0 runnable && !picked0 < 2 then begin
        incr picked0;
        t0
      end
      else if List.mem t1 runnable then t1
      else begin
        incr picked0;
        if !picked0 > 5 then Machine.set_crash_at_step m (Machine.steps m);
        t0
      end);
  (match Machine.run m with
  | Machine.Crashed_at _ -> ()
  | Machine.Completed -> Alcotest.fail "machine completed without crashing");
  Machine.clear_scheduler m;
  Alcotest.(check int) "the newer persisted value survives the crash" 2
    (Sim_mem.read cell)

(* ------------------------------------------------------------------ *)
(* Golden recorded runs                                                *)
(* ------------------------------------------------------------------ *)

(* The recorded-run primitive pinned by history digest: every event
   (thread, era, op, result, interval, crash flag) plus the step count.
   The digests were recorded before these runs shared one primitive,
   so a changed seed, draw order or spawn order in either one fails
   here. *)
let digest h ~steps =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map (Fmt.str "%a" History.pp_event) (History.events h)
          @ [ string_of_int steps ])))

let golden_runs () =
  let nvt_list =
    I.instantiate_flavour (Option.get (I.flavour "nvt")) "list"
      (module Nvt_structures.Harris_list)
  in
  let r =
    run_workload nvt_list ~seed:3 ~threads:4 ~ops:40 ~key_range:8 ~prefill:4
      ~eviction:(Machine.Random_eviction 0.05) ~crash_at_step:301 ()
  in
  Alcotest.(check bool) "workload crashed" true r.crashed;
  Alcotest.(check string) "workload history" "f4e50f98aa34841c6844d1dbf94e93d4"
    (digest r.history ~steps:(Machine.steps (Machine.get ())));
  List.iter
    (fun (eviction, expect) ->
      let a =
        Nvt_harness.Mutlab.adversarial nvt_list ~seed:2 ~crash_step:(Some 500)
          ~eviction ~stall:None
      in
      (match Nvt_harness.Mutlab.judge a with
      | `Ok -> ()
      | `No_crash _ -> Alcotest.fail "the attack's crash did not fire"
      | `Violation d -> Alcotest.failf "intact nvt list violated: %s" d
      | `Unchecked key -> Alcotest.failf "key %d left unchecked" key);
      Alcotest.(check string) "attack history" expect
        (digest a.history ~steps:(Machine.steps a.machine)))
    [ (Machine.No_eviction, "b545155f3b210ff13bc09243f924c84c");
      (Machine.Random_eviction 0.05, "41fc4ff0823ed198085ee8556b91581a") ]

let suite =
  (Alcotest.test_case "a stalled fence cannot resurrect a stale write-back"
     `Quick stale_write_back_dropped :: list_sweeps)
  @ [ Alcotest.test_case "ellen bst" `Quick
      (sweep "ellen" (module Eb.Durable) ~eviction:Machine.No_eviction);
    Alcotest.test_case "natarajan bst" `Quick
      (sweep "natarajan" (module Nm.Durable) ~eviction:Machine.No_eviction);
    Alcotest.test_case "skiplist" `Quick
      (sweep "skiplist" (module Sl.Durable) ~eviction:Machine.No_eviction);
      Alcotest.test_case "onefile set" `Quick
        (sweep "onefile"
           (module Nvt_baselines.Onefile.Set (Sim_mem))
           ~eviction:(Machine.Random_eviction 0.1));
      Alcotest.test_case "golden recorded runs" `Quick golden_runs
    ]
  @ structure_sweeps
