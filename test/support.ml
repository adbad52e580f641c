(* Shared harness for tests: a seeded random workload over the crash
   laboratory's recorded run ([Nvt_harness.Crashlab.start]/[era]/
   [verdict]), with an optional crash and a second era after recovery,
   plus a structure-generic battery that iterates the persistence-policy
   registry in [Nvt_harness.Instances].

   Named instantiations come from the registry's convenience modules —
   the flavour list lives only in [Instances.flavours]. *)

module Nvm = Nvt_nvm
module Machine = Nvt_sim.Machine
module History = Nvt_sim.History
module Lin = Nvt_sim.Linearizability
module I = Nvt_harness.Instances
module Crashlab = Nvt_harness.Crashlab

module Sim_mem = Nvt_sim.Memory

module type SET = Nvt_core.Set_intf.SET

module Hl = I.Hl
module Ht = I.Ht
module Eb = I.Eb
module Nm = I.Nm
module Sl = I.Sl

(* ------------------------------------------------------------------ *)
(* Sequential model-based testing                                      *)
(* ------------------------------------------------------------------ *)

type seq_op = Ins of int * int | Del of int | Mem of int | Fnd of int

let gen_seq_ops ~rng ~n ~key_range =
  List.init n (fun _ ->
      let k = Random.State.int rng key_range in
      match Random.State.int rng 4 with
      | 0 -> Ins (k, Random.State.int rng 1000)
      | 1 -> Del k
      | 2 -> Mem k
      | _ -> Fnd k)

(* Run the same random operations against the structure and a reference
   model, failing on the first divergence. Runs in simulator setup mode
   (no simulated threads), so it exercises the pure algorithm. *)
let check_against_model (module S : SET) ~seed ~n ~key_range () =
  let _m = Machine.create ~seed () in
  let rng = Random.State.make [| seed; 17 |] in
  let s = S.create () in
  let model : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let ops = gen_seq_ops ~rng ~n ~key_range in
  List.iteri
    (fun i op ->
      let fail what expected got =
        Alcotest.failf "op %d: %s: model=%s structure=%s" i what expected got
      in
      match op with
      | Ins (k, v) ->
        let expected = not (Hashtbl.mem model k) in
        let got = S.insert s ~key:k ~value:v in
        if expected then Hashtbl.replace model k v;
        if got <> expected then
          fail
            (Printf.sprintf "insert %d" k)
            (string_of_bool expected) (string_of_bool got)
      | Del k ->
        let expected = Hashtbl.mem model k in
        let got = S.delete s k in
        Hashtbl.remove model k;
        if got <> expected then
          fail
            (Printf.sprintf "delete %d" k)
            (string_of_bool expected) (string_of_bool got)
      | Mem k ->
        let expected = Hashtbl.mem model k in
        let got = S.member s k in
        if got <> expected then
          fail
            (Printf.sprintf "member %d" k)
            (string_of_bool expected) (string_of_bool got)
      | Fnd k ->
        let expected = Hashtbl.find_opt model k in
        let got = S.find s k in
        if got <> expected then
          fail
            (Printf.sprintf "find %d" k)
            (Fmt.str "%a" Fmt.(option ~none:(any "None") int) expected)
            (Fmt.str "%a" Fmt.(option ~none:(any "None") int) got))
    ops;
  S.check_invariants s;
  let expected =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
    |> List.sort compare
  in
  Alcotest.(check (list (pair int int))) "final contents" expected (S.to_list s)

(* ------------------------------------------------------------------ *)
(* Concurrent workloads on the simulator                               *)
(* ------------------------------------------------------------------ *)

type mix = { p_insert : int; p_delete : int }
(* percentages; the rest are lookups *)

let default_mix = { p_insert = 30; p_delete = 30 }

type workload_result = {
  history : History.t;
  crashed : bool;
  final : (int * int) list;
  prefilled : int list;
}

(* Run [threads] simulated threads of random operations. If
   [crash_at_step] is set, the machine crashes there, the set recovers,
   and a second era of [threads] threads runs to completion. The
   prefill draws keys until [prefill] distinct ones went in (or the
   draws run out); the draws are computed up front, repeats included,
   so the set sees exactly the inserts an incremental draw would make. *)
let run_workload set ~seed ~threads ~ops ~key_range ?(mix = default_mix)
    ?(eviction = Machine.No_eviction) ?(cost = Nvt_nvm.Cost_model.nvram) ?stall
    ?(prefill = key_range / 2) ?crash_at_step () =
  let m = Machine.create ~seed ~cost ~eviction ?stall () in
  let rng = Random.State.make [| seed; 23 |] in
  let rec draws distinct tries =
    if List.length distinct >= prefill || tries >= prefill * 20 then []
    else
      let k = Random.State.int rng key_range in
      k
      :: draws
           (if List.mem k distinct then distinct else k :: distinct)
           (tries + 1)
  in
  let r = Crashlab.start set m ~prefill:(draws [] 0) in
  let spawn_era () =
    for i = 0 to threads - 1 do
      let rng = Random.State.make [| seed; 31; i; History.era r.history |] in
      ignore
        (Machine.spawn m (fun () ->
             for _ = 1 to ops do
               let k = Random.State.int rng key_range in
               let p = Random.State.int rng 100 in
               r.op
                 (if p < mix.p_insert then History.Insert k
                  else if p < mix.p_insert + mix.p_delete then History.Delete k
                  else History.Member k)
             done))
    done
  in
  spawn_era ();
  Option.iter (Machine.set_crash_at_step m) crash_at_step;
  let crashed =
    match Crashlab.era r with
    | Machine.Completed -> false
    | Machine.Crashed_at _ ->
      (* second era: the structure must be fully usable after recovery *)
      spawn_era ();
      (match Crashlab.era r with
      | Machine.Completed -> ()
      | Machine.Crashed_at _ -> assert false);
      true
  in
  r.check_invariants ();
  { history = r.history; crashed; final = r.to_list (); prefilled = r.prefilled }

let check_linearizable ?(what = "history") r =
  match Lin.check_set ~initial_keys:r.prefilled r.history with
  | Ok () -> ()
  | Error v -> Alcotest.failf "%s not durably linearizable:@.%a" what
                 Lin.pp_violation v

(* ------------------------------------------------------------------ *)
(* A full test battery, shared by all set structures                   *)
(* ------------------------------------------------------------------ *)

let basic_ops (module S : SET) () =
  let _m = Machine.create () in
  let s = S.create () in
  Alcotest.(check bool) "insert new" true (S.insert s ~key:5 ~value:50);
  Alcotest.(check bool) "insert dup" false (S.insert s ~key:5 ~value:51);
  Alcotest.(check bool) "member present" true (S.member s 5);
  Alcotest.(check bool) "member absent" false (S.member s 6);
  Alcotest.(check (option int)) "find" (Some 50) (S.find s 5);
  Alcotest.(check bool) "delete present" true (S.delete s 5);
  Alcotest.(check bool) "delete absent" false (S.delete s 5);
  Alcotest.(check bool) "member after delete" false (S.member s 5);
  Alcotest.(check (list (pair int int))) "empty" [] (S.to_list s);
  (* grow and shrink through a few sizes *)
  for k = 1 to 100 do
    Alcotest.(check bool) "bulk insert" true (S.insert s ~key:k ~value:(-k))
  done;
  S.check_invariants s;
  Alcotest.(check int) "size" 100 (S.size s);
  for k = 1 to 100 do
    if k mod 2 = 0 then
      Alcotest.(check bool) "bulk delete" true (S.delete s k)
  done;
  S.check_invariants s;
  Alcotest.(check int) "size after deletes" 50 (S.size s);
  Alcotest.(check (list (pair int int)))
    "odd keys remain"
    (List.init 50 (fun i ->
         let k = (2 * i) + 1 in
         (k, -k)))
    (S.to_list s)

let concurrent_lin ~policy (module S : SET) () =
  for seed = 0 to 9 do
    let r =
      run_workload (module S) ~seed ~threads:4 ~ops:30 ~key_range:8 ~prefill:4
        ()
    in
    check_linearizable ~what:(Printf.sprintf "%s seed %d" policy seed) r
  done

let crash_recovery ~policy (module S : SET) () =
  List.iter
    (fun eviction ->
      (* short-running flavours (SOFT persists almost nothing, so its
         runs are brief) can complete before a late placement fires;
         the sweep only demands that most placements land *)
      let crashed = ref 0 in
      for seed = 0 to 9 do
        let r =
          run_workload (module S) ~seed ~threads:4 ~ops:40 ~key_range:8
            ~prefill:4 ~eviction
            ~crash_at_step:(100 + (67 * seed))
            ()
        in
        if r.crashed then incr crashed;
        check_linearizable
          ~what:(Printf.sprintf "%s crash seed %d" policy seed)
          r
      done;
      if !crashed < 5 then
        Alcotest.failf "%s: only %d/10 crash placements fired" policy
          !crashed)
    [ Machine.No_eviction; Machine.Random_eviction 0.05 ]

(* A non-durable policy run on the simulator must lose data across some
   crash: with no flushes and no evictions nothing after setup is
   persistent, so at least one seed must yield a corrupt read or a
   non-durably-linearizable history. *)
let volatile_not_durable (module S : SET) () =
  let violations = ref 0 in
  for seed = 0 to 9 do
    match
      run_workload (module S) ~seed ~threads:4 ~ops:40 ~key_range:8 ~prefill:4
        ~crash_at_step:(100 + (67 * seed))
        ()
    with
    | exception Machine.Corrupt_read _ -> incr violations
    | r -> (
      match Lin.check_set ~initial_keys:r.prefilled r.history with
      | Ok () -> ()
      | Error _ -> incr violations)
  done;
  if !violations = 0 then
    Alcotest.fail
      "volatile structure survived every crash; the simulator is not \
       detecting missing flushes"

(* The full battery for one structure functor, every case instantiated
   through the policy registry: model and linearizability checks for
   every flavour, crash recovery for the durable ones, loss detection
   for the non-durable ones, plus stall/DRAM runs of the paper's own
   transformation. [key] is the structure's registry key; flavours that
   don't support it (SOFT outside list/hash) are skipped, and flavours
   with their own structure variant or wrapper (SOFT's rewritten list,
   the detectable descriptors) are resolved through it. Suites for
   unregistered structures pass [key = ""]: only the
   structure-independent flavours run, unwrapped. *)
let structure_suite ?(key = "") (module Str : I.STRUCTURE) =
  let tc = Alcotest.test_case in
  let inst (f : I.flavour) =
    if key = "" then I.instantiate (module Str) f.policy
    else I.instantiate_flavour f key (module Str)
  in
  let supported (f : I.flavour) =
    if key = "" then f.only = None else I.supports f key
  in
  let nvt =
    match I.flavour "nvt" with
    | Some f -> inst f
    | None -> assert false
  in
  let per_flavour =
    List.concat
      (List.mapi
         (fun i (f : I.flavour) ->
           let (module Pol : I.POLICY) = f.policy in
           if not (supported f) then []
           else
             let set = inst f in
           [ tc (Printf.sprintf "model: %s" f.key) `Quick (fun () ->
                 check_against_model set ~seed:(i + 1) ~n:2000 ~key_range:64
                   ());
             tc (Printf.sprintf "linearizable: %s" f.key) `Quick
               (concurrent_lin ~policy:f.key set) ]
           @
           if Pol.durable then
             [ tc (Printf.sprintf "crash recovery: %s" f.key) `Quick
                 (crash_recovery ~policy:f.key set) ]
           else
             [ tc (Printf.sprintf "%s is not durable" f.key) `Quick
                 (volatile_not_durable set) ])
         I.flavours)
  in
  (tc "basic ops: nvt" `Quick (basic_ops nvt) :: per_flavour)
  @ [ tc "crash recovery: nvt, stalls" `Quick (fun () ->
          for seed = 0 to 9 do
            let r =
              run_workload nvt ~seed ~threads:4 ~ops:40 ~key_range:8
                ~prefill:4 ~eviction:(Machine.Random_eviction 0.05)
                ~stall:{ Machine.probability = 0.05; max_units = 20_000 }
                ~crash_at_step:(100 + (67 * seed))
                ()
            in
            check_linearizable ~what:(Printf.sprintf "stall seed %d" seed) r
          done);
      tc "linearizable: nvt, dram profile" `Quick (fun () ->
          for seed = 0 to 4 do
            let r =
              run_workload nvt ~seed ~threads:4 ~ops:30 ~key_range:8
                ~prefill:4 ~cost:Nvt_nvm.Cost_model.dram ()
            in
            check_linearizable ~what:(Printf.sprintf "dram seed %d" seed) r
          done) ]
