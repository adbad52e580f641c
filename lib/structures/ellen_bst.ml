(* The non-blocking external binary search tree of Ellen, Fatourou,
   Ruppert and van Breugel (PODC 2010), in traversal form.

   Keys live at the leaves; internal nodes route. Every internal node
   carries an [update] descriptor word: an operation first flags the
   relevant internal node(s) (IFlag for insert at the parent, DFlag for
   delete at the grandparent, then Mark at the parent), and any thread
   can complete a flagged operation from its descriptor — giving
   lock-freedom through helping.

   Traversal-form discharge (Section 3):
   - Core Tree: an external BST rooted at a sentinel internal node.
   - Traversal: the search loop reads, per node, the immutable routing
     key and the mutable [update]/child words of the current node only;
     it returns the suffix (gp, p, l) of its path. A Mark or flag placed
     on p after a traversal stopped at l forces a later same-input
     traversal to be redirected at gp or above, satisfying Traversal
     Stability.
   - Disconnection: a delete marks p (after which no field of p changes)
     before the unique disconnecting CAS that swings gp's child edge to
     l's sibling; marked nodes with distinct parents commute.
   - Supplement 1: [recover] helps every pending descriptor to
     completion, which removes every marked node.
   - Supplement 2 is replaced by the Lemma 4.1 optimization with k = 2
     (an insert atomically links an internal node with two leaves):
     ensureReachable flushes the last two parent edges above gp.

   Real keys must be smaller than [infinity1 = max_int - 1]. *)

module Make (M : Nvt_nvm.Memory.S) (P : Nvt_nvm.Persist.Make(M).S) = struct
  module E = Nvt_core.Engine.Make (M) (P)
  module C = E.Critical

  let infinity1 = max_int - 1
  let infinity2 = max_int

  type node = Leaf of leaf | Internal of internal

  and leaf = { lkv : (int * int) M.loc }

  and internal = {
    ikey : int M.loc;  (* immutable once published *)
    left : node M.loc;
    right : node M.loc;
    update : update M.loc;
  }

  and update = Clean of unit ref | IFlag of iinfo | DFlag of dinfo | Mark of dinfo
  (* [Clean] carries a fresh cell so that flag->clean transitions install
     a physically new value: the original algorithm's CLEAN state keeps
     the completed operation's info pointer for exactly this ABA
     reason. *)

  and iinfo = { ip : internal; il : node; inew : node }

  and dinfo = {
    dgp : internal;
    dp : internal;
    dl : node;
    dpupdate : update;  (* the value of p.update the delete saw *)
  }

  type t = { root : internal }

  let leaf_key l = fst (M.read l.lkv)

  let node_key = function
    | Leaf l -> leaf_key l
    | Internal i -> M.read i.ikey

  let is_clean = function Clean _ -> true | IFlag _ | DFlag _ | Mark _ -> false

  (* New-node flushes go through the Protocol 2 wrapper (attributed
     nvt:crit_flush, suppressible by the mutation harness): they are
     part of the critical method's persistence discipline — the fields
     must be persistent before the node can be published. *)
  let new_leaf ~key ~value =
    let lkv = M.alloc (key, value) in
    C.flush lkv;
    { lkv }

  let new_internal ~key ~left:lc ~right:rc =
    let ikey = M.alloc key in
    let left = M.alloc lc in
    let right = M.alloc rc in
    let update = M.alloc (Clean (ref ())) in
    C.flush ikey;
    C.flush left;
    C.flush right;
    C.flush update;
    { ikey; left; right; update }

  let create () =
    let l1 = Leaf (new_leaf ~key:infinity1 ~value:0) in
    let l2 = Leaf (new_leaf ~key:infinity2 ~value:0) in
    let root = new_internal ~key:infinity2 ~left:l1 ~right:l2 in
    P.fence ();
    { root }

  (* ---------------- traverse ---------------- *)

  type tr = {
    gp : internal;  (* [p] itself when l hangs off the root ([depth] 1) *)
    gpupdate : update;
    p : internal;
    pupdate : update;
    l : node;  (* always a leaf; kept as [node] for physical CAS *)
    edge_p : node M.loc;  (* the child word of p holding l *)
    edge_gp : node M.loc;  (* the child word of gp holding p, if [depth] >= 2 *)
    above1 : node M.loc;  (* the parent edges above gp (Lemma 4.1): *)
    above2 : node M.loc;  (* real if [depth] >= 3, resp. >= 4 *)
    depth : int;  (* child words followed from the root to l *)
  }

  (* The [gpupdate] of a traversal that stopped below the root, where
     there is no gp: clean, so no critical method helps or CASes it. *)
  let no_update = Clean (ref ())

  let traverse_from (root : internal) k =
    (* Descend, keeping the last four child words followed, newest
       first: [e0] into l, [e1] into p, [e2] into gp, [e3] into gp's
       parent. The first [depth] are real, the rest placeholders, so
       the walk allocates nothing until it returns. *)
    let rec descend gp gpupdate p pupdate e0 e1 e2 e3 depth l =
      match l with
      | Leaf _ ->
        { gp; gpupdate; p; pupdate; l; edge_p = e0; edge_gp = e1;
          above1 = e2; above2 = e3; depth }
      | Internal i ->
        let u = M.read i.update in
        let edge = if k < M.read i.ikey then i.left else i.right in
        let child = M.read edge in
        descend p pupdate i u edge e0 e1 e2 (depth + 1) child
    in
    let u0 = M.read root.update in
    let edge0 = if k < M.read root.ikey then root.left else root.right in
    let child0 = M.read edge0 in
    descend root no_update root u0 edge0 edge0 edge0 edge0 1 child0

  (* ---------------- boundary ---------------- *)

  (* One of the [n] real reach edges is [e]. *)
  let named_above tr n e =
    (n >= 1 && e == tr.above1) || (n >= 2 && e == tr.above2)

  (* ensureReachable: up to two edges above gp (k = 2); makePersistent:
     gp's edge into p and gp's [update] when there is a gp, then p's
     [update] and its edge into l. *)
  let boundary tr ~clean =
    let n = min 2 (max 0 (tr.depth - 2)) in
    let issued = if n >= 1 then E.reach ~dup:false tr.above1 else 0 in
    let issued =
      if n >= 2 then issued + E.reach ~dup:(tr.above2 == tr.above1) tr.above2
      else issued
    in
    let has_gp = tr.depth >= 2 in
    let issued =
      if has_gp then
        let issued =
          issued + E.persist ~dup:(named_above tr n tr.edge_gp) tr.edge_gp
        in
        issued + E.persist ~dup:false tr.gp.update
      else issued
    in
    let issued =
      issued + E.persist ~dup:(has_gp && tr.p.update == tr.gp.update)
        tr.p.update
    in
    let dup_p =
      named_above tr n tr.edge_p || (has_gp && tr.edge_p == tr.edge_gp)
    in
    E.end_boundary ~clean
      ~mentions:(n + if has_gp then 4 else 2)
      ~issued:(issued + E.persist ~dup:dup_p tr.edge_p)

  (* ---------------- helping (shared by critical and recovery) ------- *)

  (* Same node, as identity of the underlying record: the [node] value
     stored in a child word may be a different variant block wrapping the
     same record (e.g. one rebuilt by a helper). *)
  let same_node a b =
    match (a, b) with
    | Leaf la, Leaf lb -> la == lb
    | Internal ia, Internal ib -> ia == ib
    | Leaf _, Internal _ | Internal _, Leaf _ -> false

  (* CAS the child word of [parent] that currently holds [old_node] over
     to [new_node]; the side is determined by keys as in the original
     algorithm. A no-op if the child has already been swung by a
     helper. *)
  let cas_child (parent : internal) (old_node : node) (new_node : node) =
    let side =
      if node_key new_node < M.read parent.ikey then parent.left
      else parent.right
    in
    let cur = C.read side in
    if same_node cur old_node then
      ignore (C.cas side ~expected:cur ~desired:new_node)

  let help_insert (op : iinfo) (flag : update) =
    cas_child op.ip op.il op.inew;
    ignore (C.cas op.ip.update ~expected:flag ~desired:(Clean (ref ())))

  let help_marked (op : dinfo) (dflag : update) =
    (* Swing gp's edge from p to l's sibling, then unflag gp. *)
    let lchild = C.read op.dp.left in
    let sibling = if lchild == op.dl then C.read op.dp.right else lchild in
    cas_child op.dgp (Internal op.dp) sibling;
    ignore (C.cas op.dgp.update ~expected:dflag ~desired:(Clean (ref ())))

  (* Returns true when the delete described by [op] was completed, false
     when it was backtracked (the caller must retry). [dflag] is the
     DFlag update currently installed at gp. *)
  let help_delete (op : dinfo) (dflag : update) =
    let mark = Mark op in
    let marked =
      C.cas op.dp.update ~expected:op.dpupdate ~desired:mark
      ||
      match C.read op.dp.update with
      | Mark op' when op' == op -> true
      | _ -> false
    in
    if marked then begin
      help_marked op dflag;
      true
    end
    else begin
      (* p changed under us: help whatever is there, then backtrack. *)
      ignore (C.cas op.dgp.update ~expected:dflag ~desired:(Clean (ref ())));
      false
    end

  let help (u : update) =
    match u with
    | Clean _ -> ()
    | IFlag op -> help_insert op u
    | Mark op -> help_marked op (DFlag op)
    | DFlag op -> ignore (help_delete op u)

  (* [help] for Mark above: the DFlag value passed to [help_marked] is
     used only as the expected value of the unflagging CAS at gp; a
     freshly built [DFlag op] can never equal the installed one
     physically, so the unflag is completed by the original deleter or
     by [help] running on gp's own DFlag. That mirrors the original
     algorithm, where HelpMarked's unflag CAS may simply fail. *)

  (* ---------------- critical ---------------- *)

  let insert_critical tr (k, v) =
    if node_key tr.l = k then E.Finish false
    else if not (is_clean tr.pupdate) then begin
      help tr.pupdate;
      E.Restart
    end
    else begin
      let lkey = node_key tr.l in
      let nl = Leaf (new_leaf ~key:k ~value:v) in
      let old_leaf =
        (* re-create the displaced leaf, as in the original algorithm *)
        match tr.l with
        | Leaf lf -> Leaf (new_leaf ~key:lkey ~value:(snd (M.read lf.lkv)))
        | Internal _ -> assert false
      in
      let small, big = if k < lkey then (nl, old_leaf) else (old_leaf, nl) in
      let ninternal =
        Internal (new_internal ~key:(max k lkey) ~left:small ~right:big)
      in
      let op = { ip = tr.p; il = tr.l; inew = ninternal } in
      let flag = IFlag op in
      if C.cas tr.p.update ~expected:tr.pupdate ~desired:flag then begin
        help_insert op flag;
        E.Finish true
      end
      else begin
        help (C.read tr.p.update);
        E.Restart
      end
    end

  let delete_critical tr k =
    if node_key tr.l <> k then E.Finish false
    else if not (is_clean tr.gpupdate) then begin
      help tr.gpupdate;
      E.Restart
    end
    else if not (is_clean tr.pupdate) then begin
      help tr.pupdate;
      E.Restart
    end
    else begin
      assert (tr.depth >= 2);
      let gp = tr.gp in
      let op = { dgp = gp; dp = tr.p; dl = tr.l; dpupdate = tr.pupdate } in
      let dflag = DFlag op in
      if C.cas gp.update ~expected:tr.gpupdate ~desired:dflag then
        if help_delete op dflag then E.Finish true else E.Restart
      else begin
        help (C.read gp.update);
        E.Restart
      end
    end

  let find_critical tr k =
    match tr.l with
    | Leaf lf ->
      let k', v = M.read lf.lkv in
      E.Finish (if k' = k then Some v else None)
    | Internal _ -> assert false

  (* [find_critical] without the option; both verdicts are constants *)
  let member_critical tr k =
    match tr.l with
    | Leaf lf -> if leaf_key lf = k then E.Finish true else E.Finish false
    | Internal _ -> assert false

  (* ---------------- operations ---------------- *)

  let valid_key k = k < infinity1

  let insert t ~key ~value =
    assert (valid_key key);
    E.operation
      ~find_entry:(fun _ -> t.root)
      ~traverse:(fun entry (k, _) -> traverse_from entry k)
      ~boundary ~critical:insert_critical (key, value)

  let keyed critical t k =
    assert (valid_key k);
    E.operation
      ~find_entry:(fun _ -> t.root)
      ~traverse:traverse_from ~boundary ~critical k

  let delete t k = keyed delete_critical t k
  let find t k = keyed find_critical t k
  let member t k = keyed member_critical t k

  (* ---------------- recovery (Supplement 1) ---------------- *)

  let recover t =
    (* Help every pending descriptor until the tree is fully clean; each
       pass completes at least one pending operation, so this
       terminates. *)
    let dirty = ref true in
    while !dirty do
      dirty := false;
      let rec walk n =
        match n with
        | Leaf _ -> ()
        | Internal i ->
          (match M.read i.update with
          | Clean _ -> ()
          | u ->
            dirty := true;
            help u);
          walk (M.read i.left);
          walk (M.read i.right)
      in
      walk (Internal t.root)
    done

  (* ---------------- quiescent helpers ---------------- *)

  let fold f acc t =
    let rec go acc n =
      match n with
      | Leaf lf ->
        let k, v = M.read lf.lkv in
        if k < infinity1 then f acc (k, v) else acc
      | Internal i ->
        let acc = go acc (M.read i.left) in
        go acc (M.read i.right)
    in
    go acc (Internal t.root)

  let to_list t = List.rev (fold (fun acc kv -> kv :: acc) [] t)

  let size t = fold (fun n _ -> n + 1) 0 t

  let check_invariants t =
    let rec go lo hi n =
      match n with
      | Leaf lf ->
        let k = leaf_key lf in
        if not (lo <= k && k <= hi) then
          failwith
            (Printf.sprintf "ellen_bst: leaf key %d outside [%d,%d]" k lo hi)
      | Internal i ->
        let k = M.read i.ikey in
        if not (lo <= k && k <= hi) then
          failwith
            (Printf.sprintf "ellen_bst: internal key %d outside [%d,%d]" k lo
               hi);
        go lo (k - 1) (M.read i.left);
        go k hi (M.read i.right)
    in
    go min_int max_int (Internal t.root)
end
