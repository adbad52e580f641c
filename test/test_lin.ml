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

(* ---- long subhistories and wide overlaps ---- *)

(* [n] operations on key 1 by two threads whose intervals overlap
   pairwise: thread 0 inserts and deletes in turn, thread 1 reads in
   between, every result what a sequential run gives. *)
let long_history n =
  List.init n (fun i ->
      let t = 10 * i in
      if i mod 2 = 0 then
        let op = if i mod 4 = 0 then ins 1 else del 1 in
        Op (0, op, Some true, t, t + 12, false)
      else Op (1, mem 1, Some (i mod 4 = 1), t, t + 5, false))

let long_subhistories () =
  accepts "300 events on one key" (long_history 300);
  (* one delete in the middle finds the key absent, though no other
     delete overlaps it *)
  rejects "300 events on one key, one failed delete"
    (List.mapi
       (fun i row ->
         match row with
         | Op (tid, op, _, inv, resp, c) when i = 182 ->
           Op (tid, op, Some false, inv, resp, c)
         | row -> row)
       (long_history 300));
  (* a crash cuts the delete in flight and the next two operations: the
     reads after it find the key present, so the delete never took
     effect *)
  accepts "300 events, a crash at 1505"
    (List.filter_map
       (function
         | Op (tid, op, _, inv, resp, _) when inv < 1505 && resp > 1505 ->
           Some (Op (tid, op, None, inv, 1505, true))
         | Op (_, _, _, inv, _, _) when inv > 1505 && inv < 1530 -> None
         | row -> Some row)
       (long_history 300))

(* A member that answers true while 70 absent-reads run inside its
   interval: the checker must take all of them before it can take the
   member, a prefix reaching 71 events past the first it has not
   taken. Once past a 62-event window, it is checked like any other;
   a delete that finds the key present among the reads is not. *)
let overlapping_checked () =
  let rows ~deleted =
    Op (0, mem 1, Some true, 0, 10_000, false)
    :: Op (2, ins 1, Some true, 9_000, 9_010, false)
    :: List.init 70 (fun i ->
           let t = 10 + (10 * i) in
           if deleted && i = 35 then Op (1, del 1, Some true, t, t + 5, false)
           else Op (1, mem 1, Some false, t, t + 5, false))
  in
  accepts "72 overlapping events" (rows ~deleted:false);
  rejects "72 overlapping events, a delete finds the key" (rows ~deleted:true)

(* Seventeen absent-reads that all overlap one another and a member
   that answers true, with no insert: every subset of the reads is a
   prefix the search must rule out before it rejects, 2^17 states, past
   the budget. The check gives up loudly instead of running on. *)
let over_budget_raises () =
  let rows =
    Op (0, mem 1, Some true, 0, 100, false)
    :: List.init 17 (fun i -> Op (i + 1, mem 1, Some false, i, 100 + i, false))
  in
  assert (1 lsl 17 > Lin.budget);
  match Lin.check_set (mk_history rows) with
  | _ -> Alcotest.fail "a search past the budget gave a verdict"
  | exception Lin.Over_budget 1 -> ()

(* The checker with the whole chosen set in one int bitmask (at most
   62 events): the model the bitset checker must agree with. *)
let model_check_key ~initial (evs : History.event array) =
  let n = Array.length evs in
  let full = (1 lsl n) - 1 in
  let visited = Hashtbl.create 97 in
  let rec dfs mask state =
    if mask = full then true
    else if Hashtbl.mem visited (mask, state) then false
    else begin
      Hashtbl.add visited (mask, state) true;
      let optional = ref true in
      for i = 0 to n - 1 do
        if mask land (1 lsl i) = 0 && not evs.(i).crashed then optional := false
      done;
      !optional
      || List.exists
           (fun i ->
             let e = evs.(i) in
             mask land (1 lsl i) = 0
             &&
             let blocked = ref false and discard = ref 0 in
             for j = 0 to n - 1 do
               let f = evs.(j) in
               if j <> i && mask land (1 lsl j) = 0 && f.response < e.invoke
               then
                 if f.crashed then discard := !discard lor (1 lsl j)
                 else blocked := true
             done;
             (not !blocked)
             &&
             let expected, state' =
               match e.op with
               | History.Insert _ -> (not state, true)
               | History.Delete _ -> (state, false)
               | History.Member _ -> (state, state)
             in
             (match e.result with None -> true | Some r -> r = expected)
             && dfs (mask lor (1 lsl i) lor !discard) state')
           (List.init n Fun.id)
    end
  in
  dfs 0 initial

(* Random one-key histories of up to 14 events over three threads, with
   crashes, results drawn at random (so most are not linearizable) and
   a random initial state: both checkers give the same verdict. *)
let bitset_matches_model () =
  let verdicts = Array.make 2 0 in
  for seed = 0 to 1999 do
    let rng = Random.State.make [| seed; 0x11e |] in
    let int n = Random.State.int rng n in
    let clock = ref 0 and rows = ref [] in
    for _ = 1 to 2 + int 13 do
      clock := !clock + int 6;
      if int 12 = 0 then rows := Crash !clock :: !rows
      else begin
        let op = match int 3 with 0 -> ins 1 | 1 -> del 1 | _ -> mem 1 in
        let crashed = int 8 = 0 in
        rows :=
          Op
            ( int 3,
              op,
              (if crashed then None else Some (int 2 = 0)),
              !clock,
              !clock + int 15,
              crashed )
          :: !rows
      end
    done;
    let h = mk_history (List.rev !rows) in
    let initial = int 2 = 0 in
    let evs = Array.of_list (List.rev (History.events h)) in
    Array.sort
      (fun (a : History.event) b -> compare (a.invoke, a.id) (b.invoke, b.id))
      evs;
    let want = model_check_key ~initial evs in
    let got =
      Lin.check_set ~initial_keys:(if initial then [ 1 ] else []) h
      |> Result.is_ok
    in
    if got <> want then
      Alcotest.failf "seed %d: bitset checker says %b, model %b" seed got
        want;
    verdicts.(Bool.to_int want) <- verdicts.(Bool.to_int want) + 1
  done;
  if verdicts.(0) < 200 || verdicts.(1) < 200 then
    Alcotest.failf "one-sided sample: %d rejected, %d accepted" verdicts.(0)
      verdicts.(1)

let suite =
  [ Alcotest.test_case "basic verdicts" `Quick basic;
    Alcotest.test_case "overlapping ops" `Quick overlap;
    Alcotest.test_case "crash semantics" `Quick crashes;
    Alcotest.test_case "per-key independence" `Quick per_key_independence;
    Alcotest.test_case "subhistories past 62 events" `Quick long_subhistories;
    Alcotest.test_case "72 overlapping events are checked" `Quick
      overlapping_checked;
    Alcotest.test_case "a search past the state budget raises" `Quick
      over_budget_raises;
    Alcotest.test_case "bitset checker = the bitmask checker" `Quick
      bitset_matches_model ]
