(* Systematic (preemption-bounded) exploration of two-thread scenarios:
   every schedule with at most 2 preemptions is executed and its history
   checked for linearizability. This exercises the helping paths of the
   structures deterministically rather than probabilistically. *)

open Support
module Explore = Nvt_sim.Explore

type op = I of int | D of int | M of int

let pp_op = function
  | I k -> Printf.sprintf "insert %d" k
  | D k -> Printf.sprintf "delete %d" k
  | M k -> Printf.sprintf "member %d" k

(* A scenario: prefill {2,4}, thread A runs [a], thread B runs [b],
   check linearizability of the 2-op history plus invariants. *)
let scenario set a b m =
  let r = Crashlab.start set m ~prefill:[ 2; 4 ] in
  let body op () =
    r.op
      (match op with
      | I k -> History.Insert k
      | D k -> History.Delete k
      | M k -> History.Member k)
  in
  ignore (Machine.spawn m (body a));
  ignore (Machine.spawn m (body b));
  fun () ->
    r.check_invariants ();
    Crashlab.verdict r = Linearizable

let pairs =
  [ (I 3, I 3);  (* duplicate insert race *)
    (I 3, D 3);  (* insert vs delete of the same (new) key *)
    (D 2, D 2);  (* duplicate delete race *)
    (I 2, D 2);  (* failing insert vs delete *)
    (D 2, D 4);  (* adjacent deletes: trimming interplay *)
    (I 3, D 2);  (* insert next to a concurrent delete *)
    (M 2, D 2);  (* read vs delete *)
    (M 3, I 3) (* read vs insert *) ]

let explore_structure name set () =
  List.iter
    (fun (a, b) ->
      let r =
        Explore.preemption_bounded ~bound:2 ~max_runs:5000
          (scenario set a b)
      in
      (match r.Explore.errors with
      | [] -> ()
      | (_, msg) :: _ ->
        Alcotest.failf "%s: %s || %s: %d plan(s) broke outside the check: %s"
          name (pp_op a) (pp_op b)
          (List.length r.Explore.errors)
          msg);
      match r.Explore.violations with
      | [] -> ()
      | { Explore.plan; error; _ } :: _ ->
        Alcotest.failf
          "%s: %s || %s not linearizable under plan [%s]%s (%d runs)" name
          (pp_op a) (pp_op b)
          (String.concat "; "
             (List.map (fun (s, t) -> Printf.sprintf "%d->t%d" s t) plan))
          (match error with None -> "" | Some e -> " (check raised: " ^ e ^ ")")
          r.Explore.runs)
    pairs

(* Meta-test: the explorer must be able to find bugs at all. This set
   updates a shared list with a read-then-write race; two concurrent
   inserts of the same key can both succeed, which exactly one
   preemption exposes. *)
module Racy_set = struct
  type t = { cells : (int * int) list Sim_mem.loc }

  let create () = { cells = Sim_mem.alloc [] }

  let insert t ~key ~value =
    let l = Sim_mem.read t.cells in
    if List.mem_assoc key l then false
    else begin
      (* racy: a plain write instead of a CAS *)
      Sim_mem.write t.cells ((key, value) :: l);
      true
    end

  let delete t k =
    let l = Sim_mem.read t.cells in
    if List.mem_assoc k l then begin
      Sim_mem.write t.cells (List.remove_assoc k l);
      true
    end
    else false

  let member t k = List.mem_assoc k (Sim_mem.read t.cells)
  let find t k = List.assoc_opt k (Sim_mem.read t.cells)
  let recover _ = ()
  let to_list t = List.sort compare (Sim_mem.read t.cells)
  let size t = List.length (Sim_mem.read t.cells)
  let check_invariants _ = ()
end

let explorer_finds_races () =
  let r =
    Explore.preemption_bounded ~bound:1 ~max_runs:5000
      (scenario (module Racy_set) (I 3) (I 3))
  in
  match r.Explore.violations with
  | [] ->
    Alcotest.failf "explorer missed the seeded insert/insert race in %d runs"
      r.Explore.runs
  | v :: _ ->
    (* The violation must be replayable: a non-empty schedule trace whose
       chosen tids were all runnable when picked. *)
    if v.Explore.trace = [] then
      Alcotest.fail "violation carries an empty schedule trace";
    List.iter
      (fun { Explore.runnable; chosen; _ } ->
        if not (List.mem chosen runnable) then
          Alcotest.failf "trace chose t%d which was not runnable" chosen)
      v.Explore.trace;
    if v.Explore.error <> None then
      Alcotest.fail "a check returning false must carry no exception text"

(* Regression: the explorer used to catch *every* exception from a run
   with [try ... with _ -> (false, [])], silently converting crashed
   checks and harness bugs into "no violation". *)

exception Check_blew_up

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_exception_is_reported () =
  let scenario m =
    let l = Sim_mem.alloc 0 in
    ignore (Machine.spawn m (fun () -> Sim_mem.write l 1));
    ignore (Machine.spawn m (fun () -> Sim_mem.write l 2));
    fun () -> raise Check_blew_up
  in
  let r = Explore.preemption_bounded ~bound:1 ~max_runs:100 scenario in
  match r.Explore.violations with
  | [] ->
    Alcotest.failf
      "a raising check was swallowed: %d runs, no violation reported"
      r.Explore.runs
  | v :: _ -> (
    match v.Explore.error with
    | Some msg when contains "Check_blew_up" msg -> ()
    | Some msg ->
      Alcotest.failf "violation carries the wrong exception text: %s" msg
    | None ->
      Alcotest.fail "raising check reported as a plain [false] violation")

(* Regression: a scenario whose run crashes the machine (or raises
   outside the check) used to abort the whole enumeration with
   [failwith]; it must instead surface as a per-plan structured error
   and let other plans continue. *)
let broken_scenario_is_structured_error () =
  let scenario m =
    let l = Sim_mem.alloc 0 in
    Machine.set_crash_at_step m (Machine.steps m + 2);
    ignore (Machine.spawn m (fun () -> Sim_mem.write l 1));
    ignore (Machine.spawn m (fun () -> Sim_mem.write l 2));
    fun () -> true
  in
  let r =
    match Explore.preemption_bounded ~bound:1 ~max_runs:50 scenario with
    | r -> r
    | exception e ->
      Alcotest.failf "a crashing plan aborted the enumeration: %s"
        (Printexc.to_string e)
  in
  if r.Explore.errors = [] then
    Alcotest.failf "machine crash during exploration went unreported (%d runs)"
      r.Explore.runs;
  if r.Explore.violations <> [] then
    Alcotest.fail "a broken run must not be counted as a violation";
  if r.Explore.runs < 1 then Alcotest.fail "no runs recorded"

(* Regression: a scheduler override returning a tid that is not
   runnable used to fall through [List.find_opt] to [None], so [run]
   reported [Completed] while threads were still suspended — a buggy
   exploration schedule read as a clean completion. It must raise,
   naming the bad tid. *)
let bogus_override_raises () =
  let m = Machine.create () in
  let l = Sim_mem.alloc 0 in
  ignore (Machine.spawn m (fun () -> Sim_mem.write l 1));
  ignore (Machine.spawn m (fun () -> Sim_mem.write l 2));
  Machine.set_scheduler m (fun _ _ -> 999);
  match Machine.run m with
  | Machine.Completed ->
    Alcotest.fail
      "override chose non-runnable tid 999 and run reported Completed"
  | Machine.Crashed_at _ -> Alcotest.fail "unexpected crash"
  | exception Invalid_argument msg ->
    if not (contains "999" msg) then
      Alcotest.failf "error must name the bad tid: %s" msg

(* Resource exhaustion is never a verdict: the explorer must re-raise. *)
let oom_propagates () =
  let scenario m =
    let l = Sim_mem.alloc 0 in
    ignore (Machine.spawn m (fun () -> Sim_mem.write l 1));
    fun () -> raise Out_of_memory
  in
  match Explore.preemption_bounded ~bound:1 ~max_runs:10 scenario with
  | _ -> Alcotest.fail "Out_of_memory was swallowed by the explorer"
  | exception Out_of_memory -> ()

let suite =
  [ Alcotest.test_case "explorer finds a seeded race" `Quick
      explorer_finds_races;
    Alcotest.test_case "raising check is reported, not swallowed" `Quick
      check_exception_is_reported;
    Alcotest.test_case "machine crash becomes a per-plan error" `Quick
      broken_scenario_is_structured_error;
    Alcotest.test_case "Out_of_memory propagates" `Quick oom_propagates;
    Alcotest.test_case "override of a non-runnable tid raises" `Quick
      bogus_override_raises;
    Alcotest.test_case "harris list" `Quick
      (explore_structure "harris" (module Hl.Durable));
    Alcotest.test_case "ellen bst" `Quick
      (explore_structure "ellen" (module Eb.Durable));
    Alcotest.test_case "natarajan bst" `Quick
      (explore_structure "natarajan" (module Nm.Durable));
    Alcotest.test_case "skiplist" `Quick
      (explore_structure "skiplist" (module Sl.Durable));
    Alcotest.test_case "hash table" `Quick
      (explore_structure "hash" (module Ht.Durable))
  ]
