(* Durable-linearizability checker for set histories.

   By the Herlihy–Wing locality theorem, a set history is linearizable
   iff, for each key, the subhistory of operations on that key is
   linearizable as a single boolean object (absent/present) — operations
   on distinct keys are independent objects. We therefore check each key
   with a DFS over linearization prefixes, memoizing on (chosen-set,
   current state). The chosen set is the first event not chosen plus a
   window of 62 events after it, so a key's subhistory may be as long
   as it likes; only more than 62 events overlapping one another is
   beyond the checker.

   Durability enters through crashed operations: an operation in flight
   at a crash may have taken effect before the crash (its effect is then
   applied with an unconstrained result) or not at all (it is discarded).
   Completed operations must linearize within their [invoke, response]
   interval with exactly their observed result; this forbids both losing
   a completed operation to the crash and resurrecting a deleted one. *)

type violation = { key : int; message : string; events : History.event list }

let pp_violation ppf v =
  Fmt.pf ppf "key %d: %s@,%a" v.key v.message
    (Fmt.list ~sep:Fmt.cut History.pp_event)
    v.events

(* Expected result and next state of applying [op] in boolean [state]. *)
let apply op state =
  match op with
  | History.Insert _ -> (not state, true)
  | History.Delete _ -> (state, false)
  | History.Member _ -> (state, state)

exception Too_many_events of int

let window = 62

(* The DFS state: [first] is the first completed event not yet taken
   (linearized), and every event below it is taken or discarded except
   the crashed ones listed in [opened] (descending), which may still
   take effect; bit [b] of [mask] says whether event [first + 1 + b] is
   taken or discarded; [state] is the object's value. Events are sorted
   by invocation, so a prefix can only reach past [first + window]
   across that many events overlapping a completed one. *)
let check_key ~key ~initial (evs : History.event array) =
  let n = Array.length evs in
  let taken (first, mask, opened) j =
    if j < first then not (List.mem j opened)
    else
      j > first
      && j - first <= window
      && mask land (1 lsl (j - first - 1)) <> 0
  in
  (* Move [first] to the next completed event not taken, opening the
     crashed ones it passes; bit 0 of [mask] is event [f]'s. *)
  let rec settle f mask opened =
    if f < n && (mask land 1 <> 0 || evs.(f).crashed) then
      settle (f + 1) (mask lsr 1)
        (if mask land 1 = 0 then f :: opened else opened)
    else (f, mask lsr 1, opened)
  in
  (* Mark event [j], not taken, taken. *)
  let take (first, mask, opened) j =
    if j < first then (first, mask, List.filter (( <> ) j) opened)
    else if j > first then (first, mask lor (1 lsl (j - first - 1)), opened)
    else settle (first + 1) mask opened
  in
  let visited = Hashtbl.create 97 in
  let rec dfs ((first, _, opened) as at) state =
    (* every completed event is taken; the crashed ones left can all be
       discarded *)
    if first >= n then true
    else if Hashtbl.mem visited (at, state) then false
    else begin
      Hashtbl.add visited (at, state) ();
      (* the earliest response of a completed event not yet taken: an
         event invoked after it cannot be next. Responses are no
         earlier than invocations, so the scan stops at the first event
         invoked after the least response so far. *)
      let horizon = ref max_int and j = ref first in
      while !j < n && evs.(!j).invoke <= !horizon do
        let f = evs.(!j) in
        if (not f.crashed) && (not (taken at !j)) && f.response < !horizon then
          horizon := f.response;
        incr j
      done;
      let try_next i =
        let e = evs.(i) in
        e.invoke <= !horizon
        &&
        let expected, state' = apply e.op state in
        (match e.result with None -> true | Some r -> r = expected)
        && begin
          if i - first > window then raise (Too_many_events key);
          (* crashed events that must precede [e] but were never taken
             are discarded alongside it; they were invoked before it *)
          let after = ref (take at i) in
          List.iter
            (fun j ->
              if evs.(j).response < e.invoke then after := take !after j)
            opened;
          for j = first to i - 1 do
            let f = evs.(j) in
            if f.crashed && f.response < e.invoke && not (taken at j) then
              after := take !after j
          done;
          dfs !after state'
        end
      in
      List.exists try_next opened
      ||
      let ok = ref false and i = ref first in
      while (not !ok) && !i < n && evs.(!i).invoke <= !horizon do
        if (not (taken at !i)) && try_next !i then ok := true;
        incr i
      done;
      !ok
    end
  in
  dfs (settle 0 0 []) initial

let check_set ?(initial_keys = []) (h : History.t) =
  let by_key : (int, History.event list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (e : History.event) ->
      let k = History.key_of e.op in
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_key k) in
      Hashtbl.replace by_key k (e :: prev))
    (History.events h);
  let initial = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace initial k true) initial_keys;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) by_key [] in
  let check1 k =
    let evs = Array.of_list (List.rev (Hashtbl.find by_key k)) in
    Array.sort
      (fun (a : History.event) b -> compare (a.invoke, a.id) (b.invoke, b.id))
      evs;
    let init = Hashtbl.mem initial k in
    if check_key ~key:k ~initial:init evs then None
    else
      Some
        { key = k;
          message = "no valid linearization of this key's subhistory";
          events = Array.to_list evs }
  in
  let rec go = function
    | [] -> Ok ()
    | k :: rest -> ( match check1 k with None -> go rest | Some v -> Error v)
  in
  go (List.sort compare keys)
