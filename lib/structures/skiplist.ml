(* A lock-free skiplist with a Harris-style bottom list, in traversal
   form (the paper evaluates a skiplist in the style of Michael /
   Herlihy–Shavit).

   Only the bottom level is the core tree (Property 2): the index towers
   are auxiliary entry points, never flushed, and rebuilt wholesale by
   [recover]. This is the structure where the NVTraverse insight pays
   the most: an operation's long descent through the towers and walk
   along the bottom level persist nothing, and only the O(1) returned
   bottom-level words are flushed.

   Deletion marks a node's bottom [next] word (Harris-style) after
   freezing its tower links top-down; disconnection at the bottom level
   is exactly the list's, so Property 5 carries over.

   ensureReachable uses Supplement 2: each node stores its original
   parent — the bottom-level [next] word of its predecessor at insertion
   time — and the engine flushes that location.

   A node's height is derived deterministically from its key (a mixed
   hash's trailing zeros), which keeps simulated runs reproducible
   without sharing a PRNG between threads. *)

module Make (M : Nvt_nvm.Memory.S) (P : Nvt_nvm.Persist.Make(M).S) = struct
  module E = Nvt_core.Engine.Make (M) (P)
  module C = E.Critical

  let max_level = 16

  type node = Tail | Node of inner

  and inner = {
    meta : (int * int * int) M.loc;  (* key, value, height; write-once *)
    origin : succ M.loc;  (* original parent (Supplement 2) *)
    next : succ M.loc;  (* bottom level: the core *)
    tower : succ M.loc array;  (* levels 1..height-1: auxiliary *)
  }

  and succ = { marked : bool; nx : node }

  type t = { head : inner }

  let key_of n =
    let k, _, _ = M.read n.meta in
    k

  (* splitmix-style finalizer: low bits of the hash must be unbiased,
     since the geometric height is read off its trailing bits *)
  let mix k =
    let x = k * 0x1E3779B97F4A7C15 in
    let x = x lxor (x lsr 30) in
    let x = x * 0x3F58476D1CE4E5B9 in
    x lxor (x lsr 27)

  let height_for_key k =
    let h = ref 1 in
    let x = ref (mix k) in
    while !x land 1 = 1 && !h < max_level do
      incr h;
      x := !x asr 1
    done;
    !h

  let create () =
    let meta = M.alloc (min_int, 0, max_level) in
    let next = M.alloc { marked = false; nx = Tail } in
    let tower =
      Array.init (max_level - 1) (fun _ -> M.alloc { marked = false; nx = Tail })
    in
    P.flush meta;
    P.flush next;
    P.fence ();
    { head = { meta; origin = next; next; tower } }

  (* ---------------- findEntry: descend the towers ---------------- *)

  (* Walk level [i] (>= 1) from [curr], returning the last node whose
     key is < k. Read-only: marked nodes still route correctly by key.
     Top-level recursion, not a closure, so a descent allocates
     nothing. *)
  let rec walk_level i k curr =
    match (M.read curr.tower.(i - 1)).nx with
    | Tail -> curr
    | Node n -> if key_of n < k then walk_level i k n else curr

  let rec descend i k curr =
    if i = 0 then curr else descend (i - 1) k (walk_level i k curr)

  let find_entry head k = descend (max_level - 1) k head

  (* ---------------- traverse: bottom-level Harris walk ------------- *)

  type tr = {
    left : inner;
    left_succ : succ;
    mids_rev : inner list;  (* marked nodes between left and right, reversed *)
    right : node;
  }

  let rec traverse_from (head : inner) (entry : inner) k =
    let s0 = M.read entry.next in
    if s0.marked then
      (* the entry point was deleted under us; the head sentinel is
         always a valid unmarked starting left *)
      traverse_from head head k
    else walk head k entry s0 [] s0.nx

  and walk head k left left_succ mids_rev curr =
    match curr with
    | Tail -> { left; left_succ; mids_rev; right = Tail }
    | Node n ->
      let succ = M.read n.next in
      if succ.marked then walk head k left left_succ (n :: mids_rev) succ.nx
      else if key_of n < k then walk head k n succ [] succ.nx
      else
        let succ2 = M.read n.next in
        if succ2.marked then traverse_from head head k
        else { left; left_succ; mids_rev; right = Node n }

  (* ---------------- boundary ---------------- *)

  (* Some node of [run] has [c] as its [next] cell. *)
  let rec names c = function [] -> false | n :: tl -> n.next == c || names c tl

  (* The marked run's [next] cells in path order (the run is kept
     reversed), each a duplicate when the reach cell [p], [left.next]
     ([l]) or an earlier node names it. *)
  let rec persist_run p l issued = function
    | [] -> issued
    | n :: earlier ->
      let issued = persist_run p l issued earlier in
      let c = n.next in
      issued + E.persist ~dup:(c == p || c == l || names c earlier) c

  (* ensureReachable: [left.origin] (Supplement 2); makePersistent:
     [left.next], the marked run, [right.next]. The head is its own
     origin. *)
  let boundary tr ~clean =
    let p = tr.left.origin and l = tr.left.next in
    let issued = E.reach ~dup:false p in
    let issued = issued + E.persist ~dup:(l == p) l in
    let issued = persist_run p l issued tr.mids_rev in
    let run = List.length tr.mids_rev in
    match tr.right with
    | Tail -> E.end_boundary ~clean ~mentions:(2 + run) ~issued
    | Node rn ->
      let r = rn.next in
      let dup = r == p || r == l || names r tr.mids_rev in
      E.end_boundary ~clean ~mentions:(3 + run)
        ~issued:(issued + E.persist ~dup r)

  (* ---------------- tower maintenance (auxiliary, unflushed) ------- *)

  (* Find an unmarked (pred, pred_word) pair at level [i] with
     pred.key < k <= succ key, physically unlinking marked nodes on the
     way. Tower words are auxiliary, so raw [M] accesses suffice. *)
  let rec level_search head i k =
    let rec go pred =
      let pw = M.read pred.tower.(i - 1) in
      if pw.marked then level_search head i k (* pred deleted; restart *)
      else begin
        match pw.nx with
        | Tail -> (pred, pw)
        | Node n ->
          let nw = M.read n.tower.(i - 1) in
          if nw.marked then begin
            (* unlink n at this level *)
            ignore
              (M.cas pred.tower.(i - 1) ~expected:pw
                 ~desired:{ marked = false; nx = nw.nx });
            go pred
          end
          else if key_of n < k then go n
          else (pred, pw)
      end
    in
    go head

  (* One top-down descent recording an unmarked (pred, word) pair per
     index level, unlinking marked nodes along the way — the standard
     Fraser-style search, so tower maintenance costs O(log n) rather
     than a per-level scan from the head. *)
  let search_levels head k =
    let dummy = (head, { marked = false; nx = Tail }) in
    let preds = Array.make (max_level - 1) dummy in
    let rec level i pred =
      if i >= 1 then begin
        let rec go pred =
          let pw = M.read pred.tower.(i - 1) in
          if pw.marked then
            (* our predecessor got deleted at this level; fall back to a
               head-based search for the level *)
            level_search head i k
          else begin
            match pw.nx with
            | Tail -> (pred, pw)
            | Node n ->
              let nw = M.read n.tower.(i - 1) in
              if nw.marked then begin
                ignore
                  (M.cas pred.tower.(i - 1) ~expected:pw
                     ~desired:{ marked = false; nx = nw.nx });
                go pred
              end
              else if key_of n < k then go n
              else (pred, pw)
          end
        in
        let p, w = go pred in
        preds.(i - 1) <- (p, w);
        level (i - 1) p
      end
    in
    level (max_level - 1) head;
    preds

  let rec mark_tower_level (n : inner) i =
    let w = M.read n.tower.(i - 1) in
    if not w.marked then
      if not (M.cas n.tower.(i - 1) ~expected:w ~desired:{ w with marked = true })
      then mark_tower_level n i

  let mark_towers (n : inner) h =
    for i = h - 1 downto 1 do
      mark_tower_level n i
    done

  let link_towers head (n : inner) k h =
    let preds = search_levels head k in
    let continue = ref true in
    for i = 1 to h - 1 do
      if !continue then begin
        let first = ref true in
        let rec attempt () =
          if (M.read n.next).marked then continue := false
          else begin
            let pred, pw =
              if !first then preds.(i - 1) else level_search head i k
            in
            first := false;
            (* CAS — not write — our own tower word: a concurrent delete
               may have marked it, and the mark must win *)
            let cur = M.read n.tower.(i - 1) in
            if cur.marked then continue := false
            else if
              not
                (M.cas n.tower.(i - 1) ~expected:cur
                   ~desired:{ marked = false; nx = pw.nx })
            then attempt ()
            else if
              not
                (M.cas pred.tower.(i - 1) ~expected:pw
                   ~desired:{ marked = false; nx = Node n })
            then attempt ()
          end
        in
        attempt ()
      end
    done;
    (* a delete may have marked the bottom while we were linking; make
       sure the entries we just published get frozen and unlinked *)
    if (M.read n.next).marked then begin
      mark_towers n h;
      ignore (search_levels head k)
    end

  let unlink_towers head k _h = ignore (search_levels head k)

  (* ---------------- critical ---------------- *)

  let delete_marked tr =
    match tr.mids_rev with
    | [] -> `Ok tr.left_succ
    | _ :: _ ->
      let desired = { marked = false; nx = tr.right } in
      if C.cas tr.left.next ~expected:tr.left_succ ~desired then begin
        match tr.right with
        | Tail -> `Ok desired
        | Node rn ->
          let s = C.read rn.next in
          if s.marked then `Retry else `Ok desired
      end
      else `Retry

  let insert_critical head tr (k, v) =
    match delete_marked tr with
    | `Retry -> E.Restart
    | `Ok cur -> (
      match tr.right with
      | Node rn when key_of rn = k -> E.Finish false
      | Tail | Node _ ->
        let h = height_for_key k in
        let meta = M.alloc (k, v, h) in
        let next = M.alloc { marked = false; nx = tr.right } in
        let tower =
          Array.init (h - 1) (fun _ -> M.alloc { marked = false; nx = Tail })
        in
        let n = { meta; origin = tr.left.next; next; tower } in
        (* through the Protocol 2 wrapper: attributed nvt:crit_flush,
           suppressible by the mutation harness *)
        C.flush meta;
        C.flush next;
        if
          C.cas tr.left.next ~expected:cur
            ~desired:{ marked = false; nx = Node n }
        then begin
          link_towers head n k h;
          E.Finish true
        end
        else E.Restart)

  let delete_critical head tr k =
    match delete_marked tr with
    | `Retry -> E.Restart
    | `Ok cur -> (
      match tr.right with
      | Tail -> E.Finish false
      | Node rn ->
        if key_of rn <> k then E.Finish false
        else begin
          let _, _, h = M.read rn.meta in
          mark_towers rn h;
          let rnext = C.read rn.next in
          if rnext.marked then E.Restart
          else if
            C.cas rn.next ~expected:rnext ~desired:{ rnext with marked = true }
          then begin
            ignore
              (C.cas tr.left.next ~expected:cur
                 ~desired:{ marked = false; nx = rnext.nx });
            unlink_towers head k h;
            E.Finish true
          end
          else E.Restart
        end)

  let find_critical tr k =
    match tr.right with
    | Node rn ->
      let k', v, _ = M.read rn.meta in
      E.Finish (if k' = k then Some v else None)
    | Tail -> E.Finish None

  (* [find_critical] without the option; both verdicts are constants *)
  let member_critical tr k =
    match tr.right with
    | Node rn when key_of rn = k -> E.Finish true
    | Node _ | Tail -> E.Finish false

  (* ---------------- operations ---------------- *)

  let insert t ~key ~value =
    E.operation
      ~find_entry:(fun (k, _) -> find_entry t.head k)
      ~traverse:(fun entry (k, _) -> traverse_from t.head entry k)
      ~boundary
      ~critical:(insert_critical t.head)
      (key, value)

  let keyed critical t k =
    E.operation
      ~find_entry:(find_entry t.head)
      ~traverse:(traverse_from t.head)
      ~boundary ~critical k

  let delete t k = keyed (delete_critical t.head) t k
  let find t k = keyed find_critical t k
  let member t k = keyed member_critical t k

  (* ---------------- recovery ---------------- *)

  (* Trim marked bottom-level nodes (the disconnect supplement), then
     rebuild every tower from the surviving bottom list. Tower words may
     be corrupt after a crash — they were never flushed — and are
     redefined by plain writes. *)
  let recover t =
    let rec first_unmarked n =
      match n with
      | Tail -> Tail
      | Node m ->
        let sm = M.read m.next in
        if sm.marked then first_unmarked sm.nx else n
    in
    let rec trim u =
      let s = M.read u.next in
      let w = first_unmarked s.nx in
      if w != s.nx then begin
        M.write u.next { marked = false; nx = w };
        P.flush u.next;
        P.fence ()
      end;
      match w with Tail -> () | Node m -> trim m
    in
    trim t.head;
    (* rebuild towers: predecessor-per-level sweep over the bottom list *)
    let preds = Array.make (max_level - 1) t.head in
    let rec sweep n =
      match n with
      | Tail ->
        Array.iteri
          (fun i p -> M.write p.tower.(i) { marked = false; nx = Tail })
          preds
      | Node m ->
        let _, _, h = M.read m.meta in
        for i = 0 to h - 2 do
          M.write preds.(i).tower.(i) { marked = false; nx = Node m };
          preds.(i) <- m
        done;
        sweep (M.read m.next).nx
    in
    sweep (M.read t.head.next).nx

  (* ---------------- quiescent helpers ---------------- *)

  let fold f acc t =
    let rec go acc n =
      match n with
      | Tail -> acc
      | Node m ->
        let s = M.read m.next in
        let acc =
          if s.marked then acc
          else
            let k, v, _ = M.read m.meta in
            f acc (k, v)
        in
        go acc s.nx
    in
    go acc (M.read t.head.next).nx

  let to_list t = List.rev (fold (fun acc kv -> kv :: acc) [] t)

  let size t = fold (fun n _ -> n + 1) 0 t

  let check_invariants t =
    (* bottom level strictly sorted *)
    let rec go prev n =
      match n with
      | Tail -> ()
      | Node m ->
        let k = key_of m in
        if k <= prev then
          failwith
            (Printf.sprintf "skiplist: keys out of order (%d after %d)" k prev);
        go k (M.read m.next).nx
    in
    go min_int (M.read t.head.next).nx;
    (* every unmarked node reachable at level i+1 is reachable at level i *)
    let bottom = ref [] in
    let rec collect n =
      match n with
      | Tail -> ()
      | Node m ->
        bottom := m :: !bottom;
        collect (M.read m.next).nx
    in
    collect (M.read t.head.next).nx;
    let on_bottom = !bottom in
    for i = 1 to max_level - 1 do
      let rec level n =
        match n with
        | Tail -> ()
        | Node m ->
          let w = M.read m.tower.(i - 1) in
          if (not w.marked) && not (List.memq m on_bottom) then
            failwith "skiplist: tower node not on bottom level";
          level w.nx
      in
      level (M.read t.head.tower.(i - 1)).nx
    done
end
