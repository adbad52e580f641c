(* Harris's lock-free sorted linked list (DISC 2001), in traversal form —
   the paper's running example (Sections 2.1, 3, 4.4).

   Discharge of the traversal-data-structure properties (Section 3):
   - Core Tree: a singly-linked list rooted at the head sentinel.
   - Operation Data: operations receive (root, key[, value]) only.
   - Traversal Behavior: the search loop reads only the current node's
     [next] field and immutable key; it returns the suffix
     left..marked*..right of its path; a node marked between two
     same-input traversals forces the later one to return an unmarked
     left above it (Traversal Stability).
   - Disconnection: the mark bit on [next] is set before any unlink; the
     unique disconnection of a marked run below unmarked [left] is the
     CAS swinging [left.next] past the run; disjoint runs commute.
   - Supplement 1: [recover] walks the list and trims every marked node.
   - Supplement 2 is replaced by the Lemma 4.1 optimization (k = 1): the
     traversal returns the current parent of [left] and ensureReachable
     flushes that parent's [next] field.

   The node's key and value live in a single location written once before
   the node is published ([kv]); reading it models fetching the node's
   constant cache line, and the paper's "no flush after reading an
   immutable field" rule corresponds to reading it through [M] rather
   than the Protocol 2 wrapper. *)

module Make (M : Nvt_nvm.Memory.S) (P : Nvt_nvm.Persist.Make(M).S) = struct
  module E = Nvt_core.Engine.Make (M) (P)
  module C = E.Critical

  type node = Tail | Node of inner
  and inner = { kv : (int * int) M.loc; next : succ M.loc }
  and succ = { marked : bool; nx : node }

  type t = { head : inner }

  let key_of n = fst (M.read n.kv)

  let create () =
    let kv = M.alloc (min_int, 0) in
    let next = M.alloc { marked = false; nx = Tail } in
    P.flush kv;
    P.flush next;
    P.fence ();
    { head = { kv; next } }

  (* ---------------- traverse ---------------- *)

  type tr = {
    parent : inner;  (* current parent of [left] (Lemma 4.1, k = 1) *)
    left : inner;  (* last unmarked node with key < k *)
    left_succ : succ;  (* contents of left.next as read *)
    mids_rev : inner list;  (* marked nodes between left and right, reversed *)
    right : node;  (* first unmarked node with key >= k, or Tail *)
  }

  (* Top-level, so a traversal allocates no closure over [head] and [k]. *)
  let rec walk head k pred parent left left_succ mids_rev curr =
    match curr with
    | Tail -> { parent; left; left_succ; mids_rev; right = Tail }
    | Node n ->
      let succ = M.read n.next in
      if succ.marked then
        walk head k n parent left left_succ (n :: mids_rev) succ.nx
      else if key_of n < k then walk head k n pred n succ [] succ.nx
      else begin
        (* right found; restart if it has been marked since (the
           traversal's own restart in Algorithm 4, lines 31-32) *)
        let succ2 = M.read n.next in
        if succ2.marked then traverse_from head k
        else { parent; left; left_succ; mids_rev; right = curr }
      end

  and traverse_from (head : inner) k =
    let s0 = M.read head.next in
    walk head k head head head s0 [] s0.nx

  (* ---------------- boundary ---------------- *)

  (* Some node of [run] has [c] as its [next] cell. *)
  let rec names c = function [] -> false | n :: tl -> n.next == c || names c tl

  (* The marked run's [next] cells in path order — the run is kept
     reversed, so a node's tail precedes it — each a duplicate when the
     reach parent [p], [left.next] ([l]) or an earlier node names it. *)
  let rec persist_run p l issued = function
    | [] -> issued
    | n :: earlier ->
      let issued = persist_run p l issued earlier in
      let c = n.next in
      issued + E.persist ~dup:(c == p || c == l || names c earlier) c

  (* ensureReachable: [parent.next]; makePersistent: [left.next], the
     marked run, [right.next]. [parent == left] when left is the head. *)
  let boundary tr ~clean =
    let p = tr.parent.next and l = tr.left.next in
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

  (* ---------------- critical ---------------- *)

  (* Physically remove the marked nodes between left and right
     (deleteMarkedNodes, Algorithm 4). Returns the contents of
     [left.next] known to point at [right], or [`Retry]. *)
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

  let insert_critical tr (k, v) =
    match delete_marked tr with
    | `Retry -> E.Restart
    | `Ok cur -> (
      match tr.right with
      | Node rn when key_of rn = k -> E.Finish false (* key exists *)
      | Tail | Node _ ->
        let kv = M.alloc (k, v) in
        let next = M.alloc { marked = false; nx = tr.right } in
        let newnode = { kv; next } in
        (* flush the new node's fields through the Protocol 2 wrapper
           (attributed nvt:crit_flush, so the mutation harness can
           suppress it); the fence is issued by [C.cas] just before
           publishing (Section 4.2) *)
        C.flush kv;
        C.flush next;
        if
          C.cas tr.left.next ~expected:cur
            ~desired:{ marked = false; nx = Node newnode }
        then E.Finish true
        else E.Restart)

  let delete_critical tr k =
    match delete_marked tr with
    | `Retry -> E.Restart
    | `Ok cur -> (
      match tr.right with
      | Tail -> E.Finish false
      | Node rn ->
        if key_of rn <> k then E.Finish false
        else
          let rnext = C.read rn.next in
          if rnext.marked then E.Restart
          else if
            C.cas rn.next ~expected:rnext
              ~desired:{ rnext with marked = true }
          then begin
            (* physical delete; a failure here is benign — a later
               traversal or the recovery will trim the node *)
            ignore
              (C.cas tr.left.next ~expected:cur
                 ~desired:{ marked = false; nx = rnext.nx });
            E.Finish true
          end
          else E.Restart)

  let find_critical tr k =
    match tr.right with
    | Node rn ->
      let k', v = M.read rn.kv in
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
      ~find_entry:(fun _ -> t.head)
      ~traverse:(fun entry (k, _) -> traverse_from entry k)
      ~boundary ~critical:insert_critical (key, value)

  let keyed critical t k =
    E.operation ~find_entry:(fun _ -> t.head) ~traverse:traverse_from
      ~boundary ~critical k

  let delete t k = keyed delete_critical t k
  let find t k = keyed find_critical t k
  let member t k = keyed member_critical t k

  (* ---------------- recovery (Supplement 1) ---------------- *)

  let recover t =
    let rec first_unmarked n =
      match n with
      | Tail -> Tail
      | Node m ->
        let sm = M.read m.next in
        if sm.marked then first_unmarked sm.nx else n
    in
    let rec go u =
      let s = M.read u.next in
      let w = first_unmarked s.nx in
      if w != s.nx then begin
        M.write u.next { marked = false; nx = w };
        P.flush u.next;
        P.fence ()
      end;
      match w with Tail -> () | Node m -> go m
    in
    go t.head

  (* ---------------- quiescent helpers ---------------- *)

  let fold f acc t =
    let rec go acc n =
      match n with
      | Tail -> acc
      | Node m ->
        let s = M.read m.next in
        let acc = if s.marked then acc else f acc (M.read m.kv) in
        go acc s.nx
    in
    go acc (M.read t.head.next).nx

  let to_list t = List.rev (fold (fun acc kv -> kv :: acc) [] t)

  let size t = fold (fun n _ -> n + 1) 0 t

  let check_invariants t =
    let rec go prev n =
      match n with
      | Tail -> ()
      | Node m ->
        let k = key_of m in
        if k <= prev then
          failwith
            (Printf.sprintf "harris_list: keys out of order (%d after %d)" k
               prev);
        go k (M.read m.next).nx
    in
    go min_int (M.read t.head.next).nx
end
