(* Bechamel microbenchmarks: real (wall-clock) per-operation latency on
   the native Atomic-based backend, single-threaded, for the Harris list
   under each transformation. These complement the simulator panels:
   they measure the constant-factor cost of the injected instructions on
   the host CPU (where flush/fence are counter updates plus optional
   calibrated delays). *)

open Bechamel
open Toolkit

module Nvm = Nvt_nvm
module P = Nvm.Persist.Make (Nvm.Native)
module Izr = Nvm.Izraelevitz.Make (Nvm.Native)
module P_izr = Nvm.Persist.Make (Izr)

module Hl_orig = Nvt_structures.Harris_list.Make (Nvm.Native) (P.Volatile)
module Hl_nvt = Nvt_structures.Harris_list.Make (Nvm.Native) (P.Durable)
module Hl_izr = Nvt_structures.Harris_list.Make (Izr) (P_izr.Volatile)

let size = 512

let make_tests () =
  let mk (type t) name (module S : Nvt_core.Set_intf.SET with type t = t) =
    let s = S.create () in
    for i = 0 to size - 1 do
      ignore (S.insert s ~key:(i * 2) ~value:i)
    done;
    let k = ref 0 in
    [ Test.make
        ~name:(name ^ "/member")
        (Staged.stage (fun () ->
             k := (!k + 7919) mod (size * 2);
             ignore (S.member s !k)));
      Test.make
        ~name:(name ^ "/insert+delete")
        (Staged.stage (fun () ->
             k := (!k + 7919) mod (size * 2);
             let key = !k lor 1 in
             ignore (S.insert s ~key ~value:0);
             ignore (S.delete s key)))
    ]
  in
  Test.make_grouped ~name:"harris_list" ~fmt:"%s %s"
    (mk "orig" (module Hl_orig)
    @ mk "nvt" (module Hl_nvt)
    @ mk "izr" (module Hl_izr))

let run ?json_path () =
  let tests = make_tests () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\n# Microbenchmarks (native backend, ns/op)\n";
  Hashtbl.iter
    (fun name ols_result ->
      Fmt.pr "%-32s %a@." name Analyze.OLS.pp ols_result)
    results;
  match json_path with
  | None -> ()
  | Some path ->
    let module Json = Nvt_harness.Json in
    (* the record exists to compare these three; refuse to write one
       without them *)
    List.iter
      (fun want ->
        if
          not
            (Hashtbl.fold
               (fun name _ found -> found || String.ends_with ~suffix:want name)
               results false)
        then begin
          Printf.eprintf "micro: no %s result; %s not written\n" want path;
          exit 1
        end)
      [ "orig/member"; "nvt/member"; "izr/member" ];
    let rows =
      Hashtbl.fold
        (fun name ols_result acc ->
          let ns_per_op =
            match Analyze.OLS.estimates ols_result with
            | Some (e :: _) -> Json.Float e
            | Some [] | None -> Json.Null
          in
          let r2 =
            match Analyze.OLS.r_square ols_result with
            | Some r -> Json.Float r
            | None -> Json.Null
          in
          Json.Obj
            [ ("name", Json.Str name);
              ("ns_per_op", ns_per_op);
              ("r_square", r2) ]
          :: acc)
        results []
    in
    (* Hashtbl.fold order is unspecified; sort by name for stable output *)
    let name_of = function
      | Json.Obj (("name", Json.Str n) :: _) -> n
      | _ -> ""
    in
    let rows = List.sort (fun a b -> compare (name_of a) (name_of b)) rows in
    Json.write_file path
      (Json.Obj
         [ ("schema", Json.Str "nvtraverse-micro/1");
           ("unit", Json.Str "ns/op");
           ("results", Json.List rows) ]);
    Printf.printf "wrote %s\n%!" path
