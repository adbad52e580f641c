(* Harris list: the shared battery plus list-specific cases. *)

open Support

let ordering () =
  let _m = Machine.create () in
  let module S = Hl.Durable in
  let s = S.create () in
  List.iter
    (fun k -> ignore (S.insert s ~key:k ~value:(k * 10)))
    [ 5; 1; 9; 3; 7; 2; 8 ];
  Alcotest.(check (list (pair int int)))
    "sorted"
    [ (1, 10); (2, 20); (3, 30); (5, 50); (7, 70); (8, 80); (9, 90) ]
    (S.to_list s);
  S.check_invariants s

(* Marked nodes left by an interrupted delete must be gone after
   recovery: exercise [disconnect] directly by marking via delete in a
   crashed era, then checking the post-recovery walk finds no marks. *)
let recovery_trims_marked () =
  for seed = 0 to 19 do
    let r =
      run_workload
        (module Hl.Durable)
        ~seed ~threads:4 ~ops:40 ~key_range:8 ~prefill:4
        ~mix:{ p_insert = 10; p_delete = 80 }
        ~crash_at_step:(150 + (53 * seed))
        ()
    in
    Alcotest.(check bool) "crashed" true r.crashed;
    check_linearizable ~what:(Printf.sprintf "trim seed %d" seed) r
  done

(* The traversal/critical boundary in two shapes the bench workloads
   almost never take: a marked run between left and right, and a left
   that is the head, so the reach parent's [next] is also [left.next].
   The run is what deletes leave when their unlink CAS fails; a memory
   that refuses one chosen CAS produces it in setup mode. *)
module Refusing = struct
  include Sim_mem

  (* the CAS after [!pass] more succeed is refused; -1 refuses none *)
  let pass = ref (-1)

  let cas l ~expected ~desired =
    if !pass = 0 then begin
      pass := -1;
      false
    end
    else begin
      if !pass > 0 then decr pass;
      Sim_mem.cas l ~expected ~desired
    end
end

let boundary_shapes () =
  let module Pm = Nvm.Persist.Make (Refusing) in
  let module L = Nvt_structures.Harris_list.Make (Refusing) (Pm.Durable) in
  let m = Machine.create () in
  Nvm.Optimizer.set None;
  (* cells are numbered in allocation order: the head's key/value and
     next are cells 0 and 1, and key 10 * i's are 2i and 2i + 1 *)
  let t = L.create () in
  List.iter (fun k -> ignore (L.insert t ~key:k ~value:k)) [ 10; 20; 30; 40 ];
  (* mark 30, then 20, and refuse each unlink: head 10 20* 30* 40 *)
  List.iter
    (fun k ->
      Refusing.pass := 1;
      Alcotest.(check bool) (Printf.sprintf "delete %d" k) true (L.delete t k))
    [ 30; 20 ];
  let boundary name k ~found ~want ~coalesced =
    Machine.set_trace m ~capacity:64;
    let before = (Nvm.Optimizer.counters ()).coalesced_flushes in
    Alcotest.(check bool) (name ^ ": member") found (L.member t k);
    let events =
      List.filter_map
        (function
          | Machine.Ev_flush { cid; site; _ } ->
            Some (Printf.sprintf "flush %d %s" cid site)
          | Machine.Ev_fence { site; _ } -> Some ("fence " ^ site)
          | Machine.Ev_write _ | Machine.Ev_evict _ | Machine.Ev_crash _ ->
            None)
        (Machine.trace m)
    in
    Alcotest.(check (list string)) (name ^ ": flushes and fences") want events;
    Alcotest.(check int)
      (name ^ ": coalesced") coalesced
      ((Nvm.Optimizer.counters ()).coalesced_flushes - before)
  in
  (* left 10, its parent the head, the run 20 30 in path order, right 40 *)
  boundary "marked run" 40 ~found:true ~coalesced:0
    ~want:
      [ "flush 1 nvt:ensure_reachable"; "flush 3 nvt:make_persistent";
        "flush 5 nvt:make_persistent"; "flush 7 nvt:make_persistent";
        "flush 9 nvt:make_persistent"; "fence nvt:make_persistent";
        "fence nvt:return_fence" ];
  (* left is the head, its own parent: head.next is flushed once *)
  boundary "left is the head" 5 ~found:false ~coalesced:1
    ~want:
      [ "flush 1 nvt:ensure_reachable"; "flush 3 nvt:make_persistent";
        "fence nvt:make_persistent"; "fence nvt:return_fence" ];
  Alcotest.(check (list (pair int int)))
    "contents" [ (10, 10); (40, 40) ] (L.to_list t)

let suite =
  structure_suite ~key:"list" (module Nvt_structures.Harris_list)
  @ [ Alcotest.test_case "ordering" `Quick ordering;
      Alcotest.test_case "recovery trims marked nodes" `Quick
        recovery_trims_marked;
      Alcotest.test_case "boundary: a marked run, and left = head" `Quick
        boundary_shapes ]
