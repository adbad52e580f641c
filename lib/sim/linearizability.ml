(* Durable-linearizability checker for set histories.

   By the Herlihy–Wing locality theorem, a set history is linearizable
   iff, for each key, the subhistory of operations on that key is
   linearizable as a single boolean object (absent/present) — operations
   on distinct keys are independent objects. We therefore check each key
   with a DFS over linearization prefixes, memoizing on (chosen-set,
   current state). The chosen set is a bitset over the key's whole
   subhistory, so neither its length nor how many of its events overlap
   one another bounds the check; only the number of memoised states
   does ([budget]).

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

exception Over_budget of int

let budget = 100_000

(* The DFS state is the set of events taken or discarded, one bit per
   event of the key's subhistory, and the object's value; [first], the
   first completed event not taken, and [opened], the crashed events
   below it not taken (descending), which may still take effect, are
   functions of the set kept alongside it. The memo is keyed on the set
   and the value, so a key's subhistory may be as long and overlap as
   widely as it likes; a search that would memoise more than [budget]
   states raises [Over_budget key] instead. *)
let check_key ~key ~initial (evs : History.event array) =
  let n = Array.length evs in
  let bit bits j =
    Char.code (Bytes.get bits (j lsr 3)) land (1 lsl (j land 7)) <> 0
  in
  let set bits j =
    let b = j lsr 3 in
    Bytes.set bits b
      (Char.chr (Char.code (Bytes.get bits b) lor (1 lsl (j land 7))))
  in
  (* Move [f] to the next completed event not taken, opening the
     crashed ones it passes. *)
  let rec settle bits f opened =
    if f < n && (bit bits f || evs.(f).crashed) then
      settle bits (f + 1) (if bit bits f then opened else f :: opened)
    else (f, opened)
  in
  let visited = Hashtbl.create 97 in
  let rec dfs bits first opened state =
    (* every completed event is taken; the crashed ones left can all be
       discarded *)
    if first >= n then true
    else if Hashtbl.mem visited (bits, state) then false
    else begin
      if Hashtbl.length visited >= budget then raise (Over_budget key);
      Hashtbl.add visited (bits, state) ();
      (* the earliest response of a completed event not yet taken: an
         event invoked after it cannot be next. Responses are no
         earlier than invocations, so the scan stops at the first event
         invoked after the least response so far. *)
      let horizon = ref max_int and j = ref first in
      while !j < n && evs.(!j).invoke <= !horizon do
        let f = evs.(!j) in
        if (not f.crashed) && (not (bit bits !j)) && f.response < !horizon then
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
          (* crashed events that must precede [e] but were never taken
             are discarded alongside it; they were invoked before it *)
          let after = Bytes.copy bits in
          set after i;
          List.iter
            (fun j -> if evs.(j).response < e.invoke then set after j)
            opened;
          for j = first to i - 1 do
            let f = evs.(j) in
            if f.crashed && f.response < e.invoke then set after j
          done;
          let first', opened' =
            settle after first (List.filter (fun j -> not (bit after j)) opened)
          in
          dfs after first' opened' state'
        end
      in
      List.exists try_next opened
      ||
      let ok = ref false and i = ref first in
      while (not !ok) && !i < n && evs.(!i).invoke <= !horizon do
        if (not (bit bits !i)) && try_next !i then ok := true;
        incr i
      done;
      !ok
    end
  in
  let bits = Bytes.make ((n + 7) / 8) '\000' in
  let first, opened = settle bits 0 [] in
  dfs bits first opened initial

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
