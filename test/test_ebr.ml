(* Epoch-based reclamation: grace-period safety under adversarial
   interleavings, and progress of epoch advancement. *)

open Support
module Ebr = Nvt_reclaim.Ebr.Make (Sim_mem)

let unit_advance () =
  let _m = Machine.create () in
  let e = Ebr.create ~max_threads:2 in
  Ebr.enter e ~tid:0;
  let freed = ref false in
  Ebr.retire e ~tid:0 (fun () -> freed := true);
  Ebr.exit_cs e ~tid:0;
  Alcotest.(check int) "one retired" 1 (Ebr.retired_count e);
  (* two advances are not enough to free epoch-0 garbage... *)
  ignore (Ebr.try_advance e);
  Alcotest.(check bool) "not freed after 1 advance" false !freed;
  ignore (Ebr.try_advance e);
  (* ...the bucket for epoch 0 drains when the epoch reaches 0+2 *)
  Alcotest.(check bool) "freed by second advance" true !freed;
  Alcotest.(check int) "freed count" 1 (Ebr.freed_count e);
  Alcotest.(check int) "nothing pending" 0 (Ebr.pending e)

let lagging_reader_blocks () =
  let _m = Machine.create () in
  let e = Ebr.create ~max_threads:2 in
  Ebr.enter e ~tid:0;
  ignore (Ebr.try_advance e);
  (* tid 0 announced epoch 0; global is now 1; tid 1 enters at 1 *)
  Ebr.enter e ~tid:1;
  Alcotest.(check (option int))
    "advance blocked by lagging announcement" None (Ebr.try_advance e);
  Ebr.exit_cs e ~tid:0;
  Alcotest.(check bool)
    "advance resumes once the laggard exits"
    true
    (Ebr.try_advance e <> None);
  Ebr.exit_cs e ~tid:1

(* The core safety property: a node acquired inside a critical section
   is never freed while that critical section is open, no matter how
   the simulator interleaves readers, the writer, and the reclaimer. *)
let grace_period_safety () =
  for seed = 0 to 19 do
    let m = Machine.create ~seed () in
    let threads = 4 in
    let e = Ebr.create ~max_threads:threads in
    (* a shared cell holding the current node; nodes carry a freed flag *)
    let make_node () = Sim_mem.alloc false (* freed? *) in
    let shared = Sim_mem.alloc (make_node ()) in
    Machine.persist_all m;
    (* writer: replace the node, retire the old one, try to reclaim *)
    ignore
      (Machine.spawn m (fun () ->
           for _ = 0 to 30 do
             Ebr.enter e ~tid:0;
             let old = Sim_mem.read shared in
             Sim_mem.write shared (make_node ());
             Ebr.retire e ~tid:0 (fun () -> Sim_mem.write old true);
             Ebr.exit_cs e ~tid:0;
             ignore (Ebr.try_advance e)
           done));
    (* readers: acquire inside a critical section, then dereference *)
    for tid = 1 to threads - 1 do
      ignore
        (Machine.spawn m (fun () ->
             for _ = 0 to 30 do
               Ebr.enter e ~tid;
               let n = Sim_mem.read shared in
               (* an arbitrary delay: more shared reads interleave here *)
               let freed = Sim_mem.read n in
               if freed then
                 Alcotest.failf "use after free (seed %d, tid %d)" seed tid;
               Ebr.exit_cs e ~tid
             done))
    done;
    (match Machine.run m with
    | Machine.Completed -> ()
    | Machine.Crashed_at _ -> assert false);
    (* quiescent: everything retired can now be reclaimed *)
    let rec drain n =
      if n > 0 && Ebr.pending e > 0 then begin
        ignore (Ebr.try_advance e);
        drain (n - 1)
      end
    in
    drain 10;
    Alcotest.(check int)
      (Printf.sprintf "all garbage reclaimed (seed %d)" seed)
      0 (Ebr.pending e)
  done

(* Integration: the Harris list with EBR wired in. Deleted nodes are
   retired by their unlinker and poisoned when freed; linearizability
   and the list invariants would fail if a grace period were violated.
   Also checks that reclamation actually happens and fully drains. *)
let list_integration () =
  for seed = 0 to 9 do
    let m = Machine.create ~seed () in
    let e = Ebr.create ~max_threads:8 in
    let tid () = max 0 (Machine.current_tid m) in
    let module L = struct
      include Hl.Durable

      let create () =
        let s = create () in
        set_reclaim s
          { enter = (fun () -> Ebr.enter e ~tid:(tid ()));
            exit_cs = (fun () -> Ebr.exit_cs e ~tid:(tid ()));
            retire = (fun thunk -> Ebr.retire e ~tid:(tid ()) thunk) };
        s
    end in
    let r = Crashlab.start (module L) m ~prefill:(List.init 8 Fun.id) in
    Crashlab.spawn_uniform r ~threads:6 ~ops:30 ~range:8 ~seed:(fun tid ->
        [| seed; tid |]);
    (* a dedicated reclaimer thread *)
    ignore
      (Machine.spawn m (fun () ->
           for _ = 1 to 60 do
             ignore (Ebr.try_advance e)
           done));
    (match Crashlab.era r with
    | Machine.Completed -> ()
    | Machine.Crashed_at _ -> assert false);
    r.check_invariants ();
    (match Crashlab.verdict r with
    | Ok () -> ()
    | Error v ->
      Alcotest.failf "ebr-list seed %d not linearizable:@.%a" seed
        Lin.pp_violation v);
    if Ebr.retired_count e = 0 then
      Alcotest.failf "no node was ever retired (seed %d)" seed;
    (* quiescent: drain the limbo lists completely *)
    for _ = 1 to 5 do
      ignore (Ebr.try_advance e)
    done;
    Alcotest.(check int)
      (Printf.sprintf "limbo drained (seed %d)" seed)
      0 (Ebr.pending e)
  done

let suite =
  [ Alcotest.test_case "list integration" `Quick list_integration;
    Alcotest.test_case "advance frees after two epochs" `Quick unit_advance;
    Alcotest.test_case "lagging reader blocks advance" `Quick
      lagging_reader_blocks;
    Alcotest.test_case "grace-period safety" `Quick grace_period_safety ]
