(* The lock-free external BST of Natarajan and Mittal (PPoPP 2014), in
   traversal form.

   Unlike Ellen et al.'s tree, deletion state lives on *edges*: every
   child word carries a flag bit (the leaf below is being deleted) and a
   tag bit (this edge is frozen while its sibling's delete completes).
   A delete first *injects* by flagging the edge into its leaf, then
   *cleans up* by tagging the sibling edge and swinging the ancestor's
   edge — the last untagged edge above the parent — down to the sibling,
   excising the parent and leaf in one CAS.

   Traversal-form discharge (Section 3):
   - Core Tree: an external BST under sentinels R (key ∞2) and S (∞1).
   - Traversal: the seek reads, per node, the immutable routing key and
     one child word; it returns the path suffix ancestor..successor,
     parent, leaf. Flag/tag bits are valueChanges: a bit set after a
     traversal stopped at a leaf redirects later traversals at the
     ancestor or above (Traversal Stability).
   - Disconnection: the flag on the edge into the leaf is the mark (after
     injection neither the leaf's edge nor — once tagged — its sibling's
     can change); the unique disconnection is the ancestor-edge CAS.
   - Supplement 1: [recover] completes every injected delete and then
     verifies no stray bits remain.
   - Supplement 2 is replaced by the Lemma 4.1 optimization with k = 2
     (an insert links one internal and one new leaf): ensureReachable
     flushes the last two edges above the ancestor.

   The delete's injection/cleanup mode is operation-local state carried
   across attempts, exactly as in the original algorithm (and as in the
   paper's own NM implementation); each attempt still follows the
   findEntry/traverse/critical layout. Real keys must be smaller than
   [max_int - 1]. *)

module Make (M : Nvt_nvm.Memory.S) (P : Nvt_nvm.Persist.Make(M).S) = struct
  module E = Nvt_core.Engine.Make (M) (P)
  module C = E.Critical

  let infinity1 = max_int - 1
  let infinity2 = max_int

  type node = Leaf of leaf | Internal of internal

  and leaf = { lkv : (int * int) M.loc }

  and internal = { ikey : int M.loc; left : word M.loc; right : word M.loc }

  and word = { flag : bool; tag : bool; node : node }

  type t = { r : internal; s : internal }

  let leaf_key lf = fst (M.read lf.lkv)

  let clean n = { flag = false; tag = false; node = n }

  (* New-node flushes go through the Protocol 2 wrapper (attributed
     nvt:crit_flush, suppressible by the mutation harness): the fields
     must be persistent before the node can be published. *)
  let new_leaf ~key ~value =
    let lkv = M.alloc (key, value) in
    C.flush lkv;
    { lkv }

  let new_internal ~key ~left:lc ~right:rc =
    let ikey = M.alloc key in
    let left = M.alloc lc in
    let right = M.alloc rc in
    C.flush ikey;
    C.flush left;
    C.flush right;
    { ikey; left; right }

  let create () =
    let s =
      new_internal ~key:infinity1
        ~left:(clean (Leaf (new_leaf ~key:infinity1 ~value:0)))
        ~right:(clean (Leaf (new_leaf ~key:infinity2 ~value:0)))
    in
    let r =
      new_internal ~key:infinity2 ~left:(clean (Internal s))
        ~right:(clean (Leaf (new_leaf ~key:infinity2 ~value:0)))
    in
    P.fence ();
    { r; s }

  (* ---------------- traverse (seek) ---------------- *)

  type seekrec = {
    anc_edge : word M.loc;  (* the ancestor's child word on the path *)
    succ_word : word;  (* its contents when read (untagged) *)
    parent : internal;
    par_edge : word M.loc;  (* parent's child word holding the leaf *)
    leaf_word : word;  (* its contents when read; its node is the leaf *)
    above0 : word M.loc;  (* the edges above the ancestor (Lemma 4.1), *)
    above1 : word M.loc;  (* newest first; [above] of them are real *)
    above : int;
  }

  let leaf sr =
    match sr.leaf_word.node with Leaf lf -> lf | Internal _ -> assert false

  let seek t k =
    (* [t0] and [t1] are the edge locations above [pe], newest first
       ([nt] of them real, the rest placeholders), so the two edges
       above a freshly promoted ancestor are [t0] and [t1]; [a0] and
       [a1] ([na] real) keep those of the current ancestor. The walk
       allocates nothing until it returns. *)
    let rec descend anc_edge succ_word a0 a1 na parent pe pw t0 t1 nt =
      match pw.node with
      | Leaf _ ->
        { anc_edge; succ_word; parent; par_edge = pe; leaf_word = pw;
          above0 = a0; above1 = a1; above = na }
      | Internal i ->
        let ce = if k < M.read i.ikey then i.left else i.right in
        let cw = M.read ce in
        let nt' = min 2 (nt + 1) in
        if not pw.tag then descend pe pw t0 t1 nt i ce cw pe t0 nt'
        else descend anc_edge succ_word a0 a1 na i ce cw pe t0 nt'
    in
    let rw = M.read t.r.left in
    let sw = M.read t.s.left in
    descend t.r.left rw t.r.left t.r.left 0 t.s t.s.left sw t.r.left t.r.left 1

  (* ---------------- boundary ---------------- *)

  (* One of the real reach edges is [e]. *)
  let named_above sr e =
    (sr.above >= 1 && e == sr.above0) || (sr.above >= 2 && e == sr.above1)

  (* ensureReachable: up to two edges above the ancestor (k = 2);
     makePersistent: the ancestor's edge and the parent's edge, which
     are one entry when the parent is the ancestor. *)
  let boundary sr ~clean =
    let na = sr.above in
    let issued = if na >= 1 then E.reach ~dup:false sr.above0 else 0 in
    let issued =
      if na >= 2 then issued + E.reach ~dup:(sr.above1 == sr.above0) sr.above1
      else issued
    in
    let pe = sr.par_edge in
    if sr.anc_edge == pe then
      E.end_boundary ~clean ~mentions:(na + 1)
        ~issued:(issued + E.persist ~dup:(named_above sr pe) pe)
    else
      let issued =
        issued + E.persist ~dup:(named_above sr sr.anc_edge) sr.anc_edge
      in
      E.end_boundary ~clean ~mentions:(na + 2)
        ~issued:(issued + E.persist ~dup:(named_above sr pe) pe)

  (* ---------------- cleanup (shared by critical and recovery) ------- *)

  (* Complete (or help) the delete of [k]'s leaf recorded in [sr].
     Returns true when the parent/leaf pair is gone. *)
  let cleanup sr k =
    let pkey = M.read sr.parent.ikey in
    let child_addr, sibling_addr =
      if k < pkey then (sr.parent.left, sr.parent.right)
      else (sr.parent.right, sr.parent.left)
    in
    let cw = C.read child_addr in
    (* If the edge into our leaf is not flagged, we are helping a delete
       whose leaf is on the other side. *)
    let sibling_addr = if cw.flag then sibling_addr else child_addr in
    (* Freeze the sibling edge. *)
    let rec tag_edge () =
      let w = C.read sibling_addr in
      if w.tag then w
      else if C.cas sibling_addr ~expected:w ~desired:{ w with tag = true }
      then C.read sibling_addr
      else tag_edge ()
    in
    let sw = tag_edge () in
    (* Swing the ancestor's edge past parent, inheriting the sibling's
       flag and clearing the tag. *)
    C.cas sr.anc_edge ~expected:sr.succ_word
      ~desired:{ flag = sw.flag; tag = false; node = sw.node }

  (* ---------------- critical ---------------- *)

  let insert_critical sr (k, v) =
    if leaf_key (leaf sr) = k then E.Finish false
    else if sr.leaf_word.flag || sr.leaf_word.tag then begin
      ignore (cleanup sr k);
      E.Restart
    end
    else begin
      let lkey = leaf_key (leaf sr) in
      let nl = Leaf (new_leaf ~key:k ~value:v) in
      let old_leaf = sr.leaf_word.node in
      let small, big = if k < lkey then (nl, old_leaf) else (old_leaf, nl) in
      let ni =
        Internal
          (new_internal ~key:(max k lkey) ~left:(clean small)
             ~right:(clean big))
      in
      if C.cas sr.par_edge ~expected:sr.leaf_word ~desired:(clean ni) then
        E.Finish true
      else begin
        let w = C.read sr.par_edge in
        (match w.node with
        | Leaf lf2 when lf2 == leaf sr && (w.flag || w.tag) ->
          ignore (cleanup sr k)
        | Leaf _ | Internal _ -> ());
        E.Restart
      end
    end

  type delete_mode = Injection | Cleanup of leaf

  let delete_critical mode sr k =
    match !mode with
    | Injection ->
      if leaf_key (leaf sr) <> k then E.Finish false
      else if sr.leaf_word.flag || sr.leaf_word.tag then begin
        ignore (cleanup sr k);
        E.Restart
      end
      else if
        C.cas sr.par_edge ~expected:sr.leaf_word
          ~desired:{ sr.leaf_word with flag = true }
      then begin
        mode := Cleanup (leaf sr);
        if cleanup sr k then E.Finish true else E.Restart
      end
      else begin
        let w = C.read sr.par_edge in
        (match w.node with
        | Leaf lf2 when lf2 == leaf sr && (w.flag || w.tag) ->
          ignore (cleanup sr k)
        | Leaf _ | Internal _ -> ());
        E.Restart
      end
    | Cleanup target ->
      if leaf sr != target then E.Finish true
      else if cleanup sr k then E.Finish true
      else E.Restart

  let find_critical sr k =
    let k', v = M.read (leaf sr).lkv in
    E.Finish (if k' = k then Some v else None)

  (* [find_critical] without the option; both verdicts are constants *)
  let member_critical sr k =
    if leaf_key (leaf sr) = k then E.Finish true else E.Finish false

  (* ---------------- operations ---------------- *)

  let valid_key k = k < infinity1

  let insert t ~key ~value =
    assert (valid_key key);
    E.operation
      ~find_entry:(fun _ -> t)
      ~traverse:(fun entry (k, _) -> seek entry k)
      ~boundary ~critical:insert_critical (key, value)

  let keyed critical t k =
    assert (valid_key k);
    E.operation ~find_entry:(fun _ -> t) ~traverse:seek ~boundary ~critical k

  let delete t k = keyed (delete_critical (ref Injection)) t k
  let find t k = keyed find_critical t k
  let member t k = keyed member_critical t k

  (* ---------------- recovery (Supplement 1) ---------------- *)

  (* Complete every injected delete: while some reachable internal node
     has a flagged child edge, excise it by swinging its parent edge to
     the sibling (inheriting the sibling's flag, as cleanup does). *)
  let recover t =
    let removed = ref true in
    while !removed do
      removed := false;
      let rec walk (edge_into : word M.loc) =
        let w = M.read edge_into in
        match w.node with
        | Leaf _ -> ()
        | Internal i ->
          let lw = M.read i.left in
          let rw = M.read i.right in
          let flagged_side =
            if lw.flag then Some (lw, rw) else if rw.flag then Some (rw, lw)
            else None
          in
          (match flagged_side with
          | Some (_, sibling) ->
            removed := true;
            M.write edge_into
              { flag = sibling.flag; tag = false; node = sibling.node };
            P.flush edge_into;
            P.fence ()
          | None ->
            (* clear a stray persisted tag; quiescent, so safe *)
            let untag e =
              let w = M.read e in
              if w.tag then begin
                M.write e { w with tag = false };
                P.flush e;
                P.fence ()
              end
            in
            untag i.left;
            untag i.right;
            walk i.left;
            walk i.right)
      in
      walk t.r.left
    done

  (* ---------------- quiescent helpers ---------------- *)

  let fold f acc t =
    let rec go acc n =
      match n with
      | Leaf lf ->
        let k, v = M.read lf.lkv in
        if k < infinity1 then f acc (k, v) else acc
      | Internal i ->
        let acc = go acc (M.read i.left).node in
        go acc (M.read i.right).node
    in
    go acc (Internal t.r)

  let to_list t = List.rev (fold (fun acc kv -> kv :: acc) [] t)

  let size t = fold (fun n _ -> n + 1) 0 t

  (* Routing sends k < node.key left, so left-subtree keys are <= the
     node key (the sentinel leaf equal to S's key legitimately sits on
     S's left) and right-subtree keys are >= it; real keys are
     additionally strictly increasing in leaf order. *)
  let check_invariants t =
    let rec go lo hi n =
      match n with
      | Leaf lf ->
        let k = leaf_key lf in
        if not (lo <= k && k <= hi) then
          failwith
            (Printf.sprintf "natarajan_bst: leaf key %d outside [%d,%d]" k lo
               hi)
      | Internal i ->
        let k = M.read i.ikey in
        if not (lo <= k && k <= hi) then
          failwith
            (Printf.sprintf "natarajan_bst: internal key %d outside [%d,%d]"
               k lo hi);
        let lw = M.read i.left and rw = M.read i.right in
        if lw.flag || lw.tag || rw.flag || rw.tag then
          failwith "natarajan_bst: flag/tag bit set at quiescence";
        go lo k lw.node;
        go k hi rw.node
    in
    go min_int max_int (Internal t.r);
    let prev = ref min_int in
    List.iter
      (fun (k, _) ->
        if k <= !prev then
          failwith
            (Printf.sprintf "natarajan_bst: leaf keys out of order (%d after %d)"
               k !prev);
        prev := k)
      (to_list t)
end
