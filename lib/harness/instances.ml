(* The single registry of persistence policies and structure
   instantiations over the simulator backend.

   Policies implement {!Nvt_nvm.Policy.S}; [flavours] is the one place
   the policy list exists. The benchmark panels, the experiments,
   the crash laboratory ([Crashlab], [bin/nvtsim.exe]), the examples and
   the crash-sweep/recovery test suites all iterate this registry, so
   adding a policy is one entry here.

   Flavours:
   - [volatile]    the original volatile lock-free algorithm;
   - [nvt]         its NVTraverse transformation (this paper);
   - [izraelevitz] the general transformation of Izraelevitz et al.;
   - [lp]          NVTraverse placement over link-and-persist flushes
                   (the David-et-al-style hand-tuned baseline);
   - [flit]        the FliT per-location-counter instrumentation;
   - [soft]        SOFT (Zuriel et al.), the hand-tuned durable-set
                   contender: a dedicated structure variant per shape
                   ([special]), lists and hashes only ([only]);
   - [det]         detectable recovery: per-operation descriptors
                   wrapped around the nvt-engine structure ([wrap]).

   A flavour is not always policy-only: SOFT rewrites the structure
   around its persistent-node life cycle, and detectable recovery wraps
   any structure in descriptors. The registry expresses both — [only]
   restricts a flavour to the structures it implements, [special]
   substitutes a dedicated variant per structure key, and [wrap]
   transforms the common structure — so every consumer that resolves
   instances through {!structure_for}/{!table} picks the contenders up
   with no per-consumer code.

   The OneFile PTM baseline is a separate *structure* (its persistence
   is built in), not a policy; it appears alongside the registry where
   the paper compares against it (lists only). *)

module Nvm = Nvt_nvm
module Sim_mem = Nvt_sim.Memory

module type SET = Nvt_core.Set_intf.SET
module type POLICY = Nvm.Policy.S

type policy = (module POLICY)

module type STRUCTURE = sig
  module Make (M : Nvm.Memory.S) (P : Nvm.Persist.Make(M).S) : SET
end

(* Hash tables size their directory from this knob so that panels
   sweeping the key range keep roughly one key per bucket, as in the
   paper's low-contention hash experiments. *)
let hash_buckets = ref 1024

module Hash_sized : STRUCTURE = struct
  module Make (M : Nvm.Memory.S) (P : Nvm.Persist.Make(M).S) = struct
    include Nvt_structures.Hash_table.Make (M) (P)

    let create () = create_sized !hash_buckets
  end
end

(* SOFT's structure variants: the list, and the generic bucket
   directory over SOFT lists (the directory is volatile auxiliary
   state, so it composes with SOFT exactly as with Harris lists). *)
module Soft_hash_sized : STRUCTURE = struct
  module Make (M : Nvm.Memory.S) (P : Nvm.Persist.Make(M).S) = struct
    include
      Nvt_structures.Hash_table.Make_generic (Nvt_structures.Soft_list.Make (M) (P))

    let create () = create_sized !hash_buckets
  end
end

let det_wrap (module Str : STRUCTURE) : (module STRUCTURE) =
  (module struct
    module W = Nvt_structures.Detectable_set.Wrap (Str)
    module Make = W.Make
  end)

type flavour = {
  key : string;  (* registry name, also the CLI spelling *)
  label : string;  (* short series label on the panels *)
  policy : policy;
  ops_scale : float;
      (* default shrink factor for the measured-operation count of very
         slow policies (Izraelevitz): throughput is a ratio, so fewer
         samples converge to the same estimate at a fraction of the
         simulation cost. *)
  only : string list option;
      (* structure keys the flavour supports; [None] means all *)
  special : (string * (module STRUCTURE)) list;
      (* per-structure-key dedicated variants (SOFT's rewritten list) *)
  wrap : (module STRUCTURE) -> (module STRUCTURE);
      (* structure transformation (detectable descriptors); identity by
         default *)
}

let fl ?(ops_scale = 1.0) ?only ?(special = []) ?(wrap = fun s -> s) key label
    policy =
  { key; label; policy; ops_scale; only; special; wrap }

let flavours : flavour list =
  [ fl "volatile" "orig" (module Nvm.Policy.Volatile);
    fl "nvt" "nvt" (module Nvm.Policy.Nvtraverse);
    fl ~ops_scale:0.25 "izraelevitz" "izr" (module Nvm.Izraelevitz.Policy);
    fl "lp" "lp" (module Nvm.Link_and_persist.Policy);
    fl "flit" "flit" (module Nvm.Flit.Policy);
    fl "soft" "soft" (module Nvm.Soft.Policy)
      ~only:[ "list"; "hash" ]
      ~special:
        [ ("list", (module Nvt_structures.Soft_list : STRUCTURE));
          ("hash", (module Soft_hash_sized : STRUCTURE)) ];
    fl "det" "det" (module Nvm.Detectable.Policy)
      ~only:[ "list"; "hash" ] ~wrap:det_wrap ]

let durable_flavours =
  List.filter
    (fun f ->
      let (module Pol : POLICY) = f.policy in
      Pol.durable)
    flavours

let flavour key = List.find_opt (fun f -> f.key = key) flavours

(* ------------------------------------------------------------------ *)
(* Generic instantiation                                               *)
(* ------------------------------------------------------------------ *)

let supports f s_key =
  match f.only with None -> true | Some keys -> List.mem s_key keys

(* The structure module a flavour actually runs for a given registry
   structure: its dedicated variant if it has one, else the common
   structure through its wrapper. *)
let structure_for f s_key (str : (module STRUCTURE)) : (module STRUCTURE) =
  match List.assoc_opt s_key f.special with
  | Some special -> special
  | None -> f.wrap str

(* One structure under one policy over the simulator, with the policy's
   recovery hook spliced in front of the structure's own. *)
let instantiate (module Str : STRUCTURE) (module Pol : POLICY) : (module SET) =
  let module A = Pol.Apply (Sim_mem) in
  let module S = Str.Make (A.Mem) (A.P) in
  (module struct
    include S

    let recover t =
      A.recover ();
      S.recover t
  end)

(* Flavour-aware instantiation: resolves the flavour's structure variant
   for the given structure key first. Callers that iterate the registry
   should use this (or {!table}) so SOFT and the detectable wrapper
   resolve correctly; [instantiate] alone is for hand-picked pairs. *)
let instantiate_flavour f s_key (str : (module STRUCTURE)) : (module SET) =
  instantiate (structure_for f s_key str) f.policy

let structures : (string * (module STRUCTURE)) list =
  [ ("list", (module Nvt_structures.Harris_list));
    ("hash", (module Hash_sized));
    ("bst-ellen", (module Nvt_structures.Ellen_bst));
    ("bst-nm", (module Nvt_structures.Natarajan_bst));
    ("skiplist", (module Nvt_structures.Skiplist)) ]

(* Every structure x supporting flavour, for the crash laboratory and
   the CLI. *)
let all_instances =
  lazy
    (List.map
       (fun (s_key, str) ->
         ( s_key,
           List.filter_map
             (fun f ->
               if supports f s_key then
                 Some (f.key, instantiate_flavour f s_key str)
               else None)
             flavours ))
       structures)

let table () = Lazy.force all_instances

(* ------------------------------------------------------------------ *)
(* Named instantiations                                                *)
(* ------------------------------------------------------------------ *)

(* Convenience modules for tests and benches that want a specific
   instance by name rather than through the registry. *)

module A_vol = Nvm.Policy.Volatile.Apply (Sim_mem)
module A_nvt = Nvm.Policy.Nvtraverse.Apply (Sim_mem)
module A_izr = Nvm.Izraelevitz.Policy.Apply (Sim_mem)
module A_lp = Nvm.Link_and_persist.Policy.Apply (Sim_mem)
module A_flit = Nvm.Flit.Policy.Apply (Sim_mem)
module A_soft = Nvm.Soft.Policy.Apply (Sim_mem)
module A_det = Nvm.Detectable.Policy.Apply (Sim_mem)

module Hl = struct
  module Volatile = Nvt_structures.Harris_list.Make (A_vol.Mem) (A_vol.P)
  module Durable = Nvt_structures.Harris_list.Make (A_nvt.Mem) (A_nvt.P)
  module Izraelevitz = Nvt_structures.Harris_list.Make (A_izr.Mem) (A_izr.P)
  module Link_persist = Nvt_structures.Harris_list.Make (A_lp.Mem) (A_lp.P)
  module Flit = Nvt_structures.Harris_list.Make (A_flit.Mem) (A_flit.P)
end

module Eb = struct
  module Volatile = Nvt_structures.Ellen_bst.Make (A_vol.Mem) (A_vol.P)
  module Durable = Nvt_structures.Ellen_bst.Make (A_nvt.Mem) (A_nvt.P)
  module Izraelevitz = Nvt_structures.Ellen_bst.Make (A_izr.Mem) (A_izr.P)
  module Link_persist = Nvt_structures.Ellen_bst.Make (A_lp.Mem) (A_lp.P)
  module Flit = Nvt_structures.Ellen_bst.Make (A_flit.Mem) (A_flit.P)
end

module Nm = struct
  module Volatile = Nvt_structures.Natarajan_bst.Make (A_vol.Mem) (A_vol.P)
  module Durable = Nvt_structures.Natarajan_bst.Make (A_nvt.Mem) (A_nvt.P)
  module Izraelevitz = Nvt_structures.Natarajan_bst.Make (A_izr.Mem) (A_izr.P)
  module Link_persist = Nvt_structures.Natarajan_bst.Make (A_lp.Mem) (A_lp.P)
  module Flit = Nvt_structures.Natarajan_bst.Make (A_flit.Mem) (A_flit.P)
end

module Sl = struct
  module Volatile = Nvt_structures.Skiplist.Make (A_vol.Mem) (A_vol.P)
  module Durable = Nvt_structures.Skiplist.Make (A_nvt.Mem) (A_nvt.P)
  module Izraelevitz = Nvt_structures.Skiplist.Make (A_izr.Mem) (A_izr.P)
  module Link_persist = Nvt_structures.Skiplist.Make (A_lp.Mem) (A_lp.P)
  module Flit = Nvt_structures.Skiplist.Make (A_flit.Mem) (A_flit.P)
end

module Ht = struct
  module Base = Nvt_structures.Hash_table

  module Volatile = struct
    include Base.Make (A_vol.Mem) (A_vol.P)

    let create () = create_sized !hash_buckets
  end

  module Durable = struct
    include Base.Make (A_nvt.Mem) (A_nvt.P)

    let create () = create_sized !hash_buckets
  end

  module Izraelevitz = struct
    include Base.Make (A_izr.Mem) (A_izr.P)

    let create () = create_sized !hash_buckets
  end

  module Link_persist = struct
    include Base.Make (A_lp.Mem) (A_lp.P)

    let create () = create_sized !hash_buckets
  end

  module Flit = struct
    include Base.Make (A_flit.Mem) (A_flit.P)

    let create () = create_sized !hash_buckets
  end
end

(* The SOFT contender, durable and — as the negative control the crash
   tests pin its flush placement with — volatile. *)
module Soft_l = struct
  module Durable = Nvt_structures.Soft_list.Make (A_soft.Mem) (A_soft.P)
  module Volatile = Nvt_structures.Soft_list.Make (A_vol.Mem) (A_vol.P)
end

module Soft_ht = struct
  module Durable = struct
    include Nvt_structures.Hash_table.Make_generic (Soft_l.Durable)

    let create () = create_sized !hash_buckets
  end
end

(* The detectable wrapper over the running-example list; [Volatile] is
   the negative control that shows the descriptor audit bites. *)
module Det_l = struct
  module W = Nvt_structures.Detectable_set.Wrap (Nvt_structures.Harris_list)
  module Durable = W.Make (A_det.Mem) (A_det.P)
  module Volatile = W.Make (A_vol.Mem) (A_vol.P)
end

module Onefile_set = Nvt_baselines.Onefile.Set (Sim_mem)

(* ------------------------------------------------------------------ *)
(* Panel series                                                        *)
(* ------------------------------------------------------------------ *)

type series = {
  label : string;
  set : (module SET);
  ops_scale : float;
  policy : string option;
      (* registry key of the flavour behind the series, when there is
         one; [None] for baselines with built-in persistence (OneFile).
         The JSON emitter uses it to group series across panels. *)
}

let s ?(ops_scale = 1.0) ?policy label set = { label; set; ops_scale; policy }

(* One series per registry flavour for a structure, in registry order;
   [key] is the structure's registry key (flavours resolve their
   variant — and their support — against it), [scale] overrides the
   default per-flavour sampling factor and [skip] drops flavours a
   panel does not plot. *)
let flavour_series ?(suffix = "") ?(scale = fun _ -> None)
    ?(skip = []) ~key (module Str : STRUCTURE) =
  List.filter_map
    (fun f ->
      if List.mem f.key skip || not (supports f key) then None
      else
        Some
          { label = f.label ^ suffix;
            set = instantiate_flavour f key (module Str);
            ops_scale = Option.value (scale f.key) ~default:f.ops_scale;
            policy = Some f.key })
    flavours

let izr_scale v k = if k = "izraelevitz" then Some v else None

let list_series ~with_onefile ~with_lp =
  flavour_series ~key:"list"
    (module Nvt_structures.Harris_list)
    ~scale:(izr_scale 0.1)
    ~skip:(if with_lp then [] else [ "lp" ])
  @
  if with_onefile then
    [ s ~ops_scale:0.25 "onefile" (module Onefile_set : SET) ]
  else []

let hash_series ~with_lp =
  flavour_series ~key:"hash"
    (module Hash_sized)
    ~skip:(if with_lp then [] else [ "lp" ])

let bst_series ~with_onefile ~with_lp =
  (match
     flavour_series ~key:"bst-nm"
       (module Nvt_structures.Natarajan_bst)
       ~suffix:"(nm)"
       ~skip:(if with_lp then [] else [ "lp" ])
   with
  | orig :: rest ->
    (* the second NVTraverse BST of Fig 5e/6m, slotted after the
       volatile baseline *)
    orig :: s ~policy:"nvt" "nvt(ellen)" (module Eb.Durable : SET) :: rest
  | [] -> [])
  @
  (* the PTM set is a sorted list, so on tree-sized key ranges each of
     its operations costs O(n); a small sample suffices for the ratio *)
  if with_onefile then
    [ s ~ops_scale:0.02 "onefile" (module Onefile_set : SET) ]
  else []

let skiplist_series ~with_lp =
  flavour_series ~key:"skiplist"
    (module Nvt_structures.Skiplist)
    ~skip:(if with_lp then [] else [ "lp" ])
