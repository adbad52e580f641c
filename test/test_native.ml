(* The native Atomic-based backend, exercised with real OCaml domains on
   the durable Harris list. On a single core these test atomicity under
   preemption rather than parallel scaling. *)

module Nvm = Nvt_nvm
module P = Nvm.Persist.Make (Nvm.Native)
module L = Nvt_structures.Harris_list.Make (Nvm.Native) (P.Durable)

let disjoint_inserts () =
  let s = L.create () in
  let domains =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for i = 0 to 999 do
              let k = (d * 10_000) + i in
              if not (L.insert s ~key:k ~value:k) then ok := false
            done;
            !ok))
  in
  List.iter
    (fun d -> Alcotest.(check bool) "all inserts succeed" true (Domain.join d))
    domains;
  L.check_invariants s;
  Alcotest.(check int) "size" 2000 (L.size s);
  let domains =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for i = 0 to 999 do
              if not (L.delete s ((d * 10_000) + i)) then ok := false
            done;
            !ok))
  in
  List.iter
    (fun d -> Alcotest.(check bool) "all deletes succeed" true (Domain.join d))
    domains;
  Alcotest.(check int) "emptied" 0 (L.size s)

let contended_mix () =
  let s = L.create () in
  let domains =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            let rng = Random.State.make [| d; 99 |] in
            for _ = 0 to 2999 do
              let k = Random.State.int rng 32 in
              match Random.State.int rng 3 with
              | 0 -> ignore (L.insert s ~key:k ~value:k)
              | 1 -> ignore (L.delete s k)
              | _ -> ignore (L.member s k)
            done))
  in
  List.iter Domain.join domains;
  L.check_invariants s

let suite =
  [ Alcotest.test_case "disjoint inserts across domains" `Quick
      disjoint_inserts;
    Alcotest.test_case "contended mixed workload" `Quick contended_mix ]
