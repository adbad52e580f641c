(* Self-tests for the durable-linearizability checker: hand-crafted
   histories with known verdicts. A checker bug would silently undermine
   every other concurrency test, so accept and reject cases are pinned
   here. *)

open Support

(* A row is an operation [(tid, op, result, invoke, response, crashed)]
   or a crash at the given time, which starts a new era: operations
   after it are recorded in that era, as the crash laboratory records
   them. *)
type row =
  | Op of int * History.op * bool option * int * int * bool
  | Crash of int

let mk_history rows =
  let h = History.create () in
  List.iter
    (function
      | Op (tid, op, result, invoke, response, crashed) ->
          let e = History.invoke h ~tid ~time:invoke op in
          e.History.response <- response;
          e.History.result <- result;
          e.History.crashed <- crashed
      | Crash time -> History.mark_crash h ~time)
    rows;
  h

let accepts ?initial_keys name rows =
  match Lin.check_set ?initial_keys (mk_history rows) with
  | Ok () -> ()
  | Error v -> Alcotest.failf "%s: expected acceptance, got:@.%a" name
                 Lin.pp_violation v

let rejects ?initial_keys name rows =
  match Lin.check_set ?initial_keys (mk_history rows) with
  | Ok () -> Alcotest.failf "%s: expected rejection" name
  | Error _ -> ()

let ins k = History.Insert k
let del k = History.Delete k
let mem k = History.Member k

let basic () =
  accepts "sequential insert/member/delete"
    [ Op (0, ins 1, Some true, 0, 10, false);
      Op (0, mem 1, Some true, 20, 30, false);
      Op (0, del 1, Some true, 40, 50, false);
      Op (0, mem 1, Some false, 60, 70, false) ];
  rejects "member true before any insert"
    [ Op (0, mem 1, Some true, 0, 10, false);
      Op (0, ins 1, Some true, 20, 30, false) ];
  accepts ~initial_keys:[ 1 ] "prefilled key visible"
    [ Op (0, mem 1, Some true, 0, 10, false) ];
  rejects "double successful insert without delete"
    [ Op (0, ins 1, Some true, 0, 10, false);
      Op (1, ins 1, Some true, 20, 30, false) ];
  accepts "double insert, second fails"
    [ Op (0, ins 1, Some true, 0, 10, false);
      Op (1, ins 1, Some false, 20, 30, false) ]

let overlap () =
  (* overlapping operations may linearize in either order *)
  accepts "overlapping insert and member"
    [ Op (0, ins 1, Some true, 0, 100, false);
      Op (1, mem 1, Some true, 50, 60, false) ];
  accepts "overlapping insert and member (missed)"
    [ Op (0, ins 1, Some true, 0, 100, false);
      Op (1, mem 1, Some false, 50, 60, false) ];
  rejects "member flickers without cause"
    [ Op (0, ins 1, Some true, 0, 10, false);
      Op (1, mem 1, Some false, 20, 30, false);
      Op (1, mem 1, Some true, 40, 50, false) ]

let crashes () =
  (* a crashed insert may explain a later member=true... *)
  accepts "crashed insert took effect"
    [ Op (0, ins 1, None, 0, 100, true);
      Op (1, mem 1, Some true, 200, 210, false) ];
  (* ...or may have never happened *)
  accepts "crashed insert vanished"
    [ Op (0, ins 1, None, 0, 100, true);
      Op (1, mem 1, Some false, 200, 210, false) ];
  (* but a completed operation's effect cannot be lost to the crash... *)
  rejects "completed insert lost at crash"
    [ Op (0, ins 1, Some true, 0, 10, false);
      Crash 100;
      Op (1, mem 1, Some false, 200, 210, false) ];
  (* ...nor can a completed delete be undone by it *)
  rejects "completed delete resurrected"
    [ Op (0, ins 1, Some true, 0, 10, false);
      Op (0, del 1, Some true, 20, 30, false);
      Crash 100;
      Op (1, mem 1, Some true, 200, 210, false) ];
  (* a crashed op cannot take effect after the crash *)
  rejects "crashed insert resurrects later"
    [ Op (0, ins 1, None, 0, 100, true);
      Op (1, mem 1, Some false, 200, 210, false);
      Op (1, mem 1, Some true, 220, 230, false) ]

let per_key_independence () =
  (* violations on one key are found regardless of other keys' traffic *)
  rejects "violation amid unrelated keys"
    [ Op (0, ins 2, Some true, 0, 10, false);
      Op (0, mem 3, Some false, 20, 30, false);
      Op (1, mem 1, Some true, 40, 50, false);
      Op (0, del 2, Some true, 60, 70, false) ]

let suite =
  [ Alcotest.test_case "basic verdicts" `Quick basic;
    Alcotest.test_case "overlapping ops" `Quick overlap;
    Alcotest.test_case "crash semantics" `Quick crashes;
    Alcotest.test_case "per-key independence" `Quick per_key_independence ]
