(* Necessity of the transformation's flushes (Section 4.3): "the flush
   and fence instructions we prescribe are necessary; removing any of
   them could violate the correctness of some NVTraverse data
   structure." Each test suppresses exactly one named persistence site
   ({!Nvt_nvm.Suppress}) and drives the crippled structure through the
   mutation laboratory's one driver ({!Nvt_harness.Mutlab.sweep}) over
   the structure target's attacks
   ({!Nvt_harness.Mutlab.structure_target}) to a durability violation —
   while the intact structure survives the identical battery.

   The paper's claim is per-class ("some NVTraverse data structure"),
   so the engine's three sites are exercised on two shapes: the Harris
   list and the Natarajan-Mittal BST. Where the laboratory's measured
   allowlist documents a site as structurally self-covered on a shape
   (e.g. ensureReachable on the BST, whose k = 2 parent edges already
   sit in the persist set), the test asserts exactly that — an
   unkilled site with no documented expectation is still a failure. *)

module I = Nvt_harness.Instances
module Mutlab = Nvt_harness.Mutlab
module Suppress = Nvt_nvm.Suppress

let sc = Mutlab.quick

let target_of structure =
  let str = List.assoc structure I.structures in
  let f = Option.get (I.flavour "nvt") in
  Mutlab.structure_target (I.instantiate str f.policy) sc

(* The three sites the engine itself injects (Algorithm 2); the
   Protocol 2 sites inside critical methods get the same treatment in
   test_mutation.ml across every policy. *)
let engine_sites =
  [ "nvt:ensure_reachable"; "nvt:make_persistent"; "nvt:return_fence" ]

let structures = [ "list"; "bst-nm" ]

let with_suppressed site f =
  Suppress.set (Some site);
  Fun.protect ~finally:(fun () -> Suppress.set None) f

let intact_survives structure () =
  match Mutlab.sweep (target_of structure) with
  | None, runs ->
    if runs < 100 then
      Alcotest.failf "only %d battery runs on intact %s; battery too small"
        runs structure
  | Some (a, detail), _ ->
    Alcotest.failf
      "intact %s lost the battery at %s: %s — the harness, not a \
       suppressed site, is at fault"
      structure
      (Format.asprintf "%a" Mutlab.pp_attack (Structure a))
      detail

let necessity structure site () =
  let t = target_of structure in
  let expected_unkilled =
    Mutlab.expectation ~policy:"nvt" ~structure ~site <> None
  in
  with_suppressed site (fun () ->
      match Mutlab.sweep t with
      | Some _, _ ->
        if expected_unkilled then
          Alcotest.failf
            "suppressing %s on %s WAS killed — its expected-unkilled \
             entry in Mutlab.expected_unkilled is stale"
            site structure
      | None, runs ->
        if not expected_unkilled then
          Alcotest.failf
            "suppressing %s on %s caused no durability violation in %d \
             battery runs — either the site is not exercised there or \
             the adversary is too weak"
            site structure runs)

let suite =
  List.concat_map
    (fun structure ->
      Alcotest.test_case
        (Printf.sprintf "intact %s survives the battery" structure)
        `Quick (intact_survives structure)
      :: List.map
           (fun site ->
             let name =
               if Mutlab.expectation ~policy:"nvt" ~structure ~site <> None
               then Printf.sprintf "%s is self-covered on %s" site structure
               else Printf.sprintf "%s is necessary on %s" site structure
             in
             Alcotest.test_case name `Quick (necessity structure site))
           engine_sites)
    structures
