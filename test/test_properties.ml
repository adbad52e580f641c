(* Property-based tests (qcheck, registered as alcotest cases).

   The central properties:
   - every structure agrees with a reference model on arbitrary
     operation sequences, under every persistence policy;
   - structural invariants survive arbitrary operation sequences;
   - simulated runs are deterministic in their seed;
   - sequential histories generated from the model are always accepted
     by the linearizability checker;
   - the workload generator respects its mix and prefill contract. *)

open Support

type op = Ins of int * int | Del of int | Mem of int

let op_gen range =
  QCheck.Gen.(
    int_bound (range - 1) >>= fun k ->
    frequency
      [ (3, map (fun v -> Ins (k, v)) (int_bound 1000));
        (2, return (Del k));
        (2, return (Mem k)) ])

let print_op = function
  | Ins (k, v) -> Printf.sprintf "ins(%d,%d)" k v
  | Del k -> Printf.sprintf "del(%d)" k
  | Mem k -> Printf.sprintf "mem(%d)" k

let ops_arbitrary ?(max_len = 400) range =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map print_op l))
    QCheck.Gen.(list_size (int_bound max_len) (op_gen range))

(* Run ops against both the structure and a model; true iff all results
   and the final contents agree and invariants hold. *)
let agrees_with_model (module S : SET) ops =
  let _m = Machine.create () in
  let s = S.create () in
  let model = Hashtbl.create 64 in
  let ok = ref true in
  List.iter
    (fun op ->
      match op with
      | Ins (k, v) ->
        let expected = not (Hashtbl.mem model k) in
        if expected then Hashtbl.replace model k v;
        if S.insert s ~key:k ~value:v <> expected then ok := false
      | Del k ->
        let expected = Hashtbl.mem model k in
        Hashtbl.remove model k;
        if S.delete s k <> expected then ok := false
      | Mem k -> if S.member s k <> Hashtbl.mem model k then ok := false)
    ops;
  S.check_invariants s;
  let final =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] |> List.sort compare
  in
  !ok && final = S.to_list s

let model_prop name set =
  QCheck.Test.make ~count:100 ~name (ops_arbitrary 32) (agrees_with_model set)

(* Sequential histories built from a faithful model must be accepted. *)
let checker_accepts_sequential =
  QCheck.Test.make ~count:200 ~name:"checker accepts sequential histories"
    (ops_arbitrary ~max_len:60 8)
    (fun ops ->
      let h = History.create () in
      let model = Hashtbl.create 16 in
      List.iteri
        (fun i op ->
          let t = i * 10 in
          let record o r =
            let e = History.invoke h ~tid:0 ~time:t o in
            History.respond e ~time:(t + 5) r
          in
          match op with
          | Ins (k, _) ->
            let r = not (Hashtbl.mem model k) in
            if r then Hashtbl.replace model k ();
            record (History.Insert k) r
          | Del k ->
            let r = Hashtbl.mem model k in
            Hashtbl.remove model k;
            record (History.Delete k) r
          | Mem k -> record (History.Member k) (Hashtbl.mem model k))
        ops;
      match Lin.check_set h with Ok () -> true | Error _ -> false)

(* Corrupting one completed insert's result in a dense sequential
   history must be caught (inserting twice / failing on an absent key
   are both visible with this op mix). *)
let checker_rejects_corruption =
  QCheck.Test.make ~count:200 ~name:"checker rejects corrupted results"
    QCheck.(pair (ops_arbitrary ~max_len:50 4) (int_bound 1000))
    (fun (ops, flip_seed) ->
      let events = ref [] in
      let h = History.create () in
      let model = Hashtbl.create 16 in
      List.iteri
        (fun i op ->
          let t = i * 10 in
          let record o r =
            let e = History.invoke h ~tid:0 ~time:t o in
            History.respond e ~time:(t + 5) r;
            events := e :: !events
          in
          match op with
          | Ins (k, _) ->
            let r = not (Hashtbl.mem model k) in
            if r then Hashtbl.replace model k ();
            record (History.Insert k) r
          | Del k ->
            let r = Hashtbl.mem model k in
            Hashtbl.remove model k;
            record (History.Delete k) r
          | Mem k -> record (History.Member k) (Hashtbl.mem model k))
        ops;
      let events = Array.of_list !events in
      if Array.length events = 0 then true
      else begin
        (* flip one member's result: always a genuine violation in a
           sequential history *)
        let members =
          Array.to_list events
          |> List.filter (fun (e : History.event) ->
                 match e.op with History.Member _ -> true | _ -> false)
        in
        match members with
        | [] -> true (* nothing to corrupt; vacuously fine *)
        | _ ->
          let e = List.nth members (flip_seed mod List.length members) in
          e.History.result <- Option.map not e.History.result;
          (match Lin.check_set h with Ok () -> false | Error _ -> true)
      end)

(* Recovery on a quiescent, fully persistent structure is a no-op. *)
let recover_noop name set =
  QCheck.Test.make ~count:50
    ~name:(name ^ ": recover is a no-op when quiescent")
    (ops_arbitrary 32)
    (fun ops ->
      let (module S : SET) = set in
      let m = Machine.create () in
      let s = S.create () in
      List.iter
        (fun op ->
          match op with
          | Ins (k, v) -> ignore (S.insert s ~key:k ~value:v)
          | Del k -> ignore (S.delete s k)
          | Mem k -> ignore (S.member s k))
        ops;
      Machine.persist_all m;
      let before = S.to_list s in
      S.recover s;
      S.check_invariants s;
      S.to_list s = before)

(* FliT's reader-side flush (flush iff the in-flight-writer counter is
   nonzero) must preserve durable linearizability on arbitrary crashed
   histories: random seed, random crash point, eviction adversary on. *)
let flit_durably_linearizable =
  QCheck.Test.make ~count:60
    ~name:"flit: random crashed histories are durably linearizable"
    QCheck.(pair (int_bound 1000) (int_bound 400))
    (fun (seed, crash) ->
      let r =
        run_workload
          (module Hl.Flit)
          ~seed ~threads:4 ~ops:30 ~key_range:8 ~prefill:4
          ~eviction:(Machine.Random_eviction 0.05)
          ~crash_at_step:(50 + crash) ()
      in
      match Lin.check_set ~initial_keys:r.prefilled r.history with
      | Ok () -> true
      | Error _ -> false)

(* The point of FliT: a lookup-only workload observes almost no in-flight
   writers, so its flush count must sit strictly below Izraelevitz et
   al.'s flush-per-load discipline. *)
let flit_flushes_below_izraelevitz () =
  let flushes_per_op set =
    let r =
      Crashlab.run
        { (Crashlab.spec set) with
          threads = 8;
          ops = 2000;
          range = 128;
          mix = Nvt_workload.Workload.updates ~pct:0;
          seed = 7;
          stream_seed = Crashlab.thread_streams;
          jitter = 2 }
    in
    float_of_int r.stats.flushes /. 2000.
  in
  let flit = flushes_per_op (module Hl.Flit : SET) in
  let izr = flushes_per_op (module Hl.Izraelevitz : SET) in
  if flit >= izr then
    Alcotest.failf "flit lookups flush %.2f/op, izraelevitz %.2f/op" flit izr

(* Same seed, same workload: byte-identical outcome. *)
let determinism =
  QCheck.Test.make ~count:20 ~name:"simulation is deterministic in its seed"
    QCheck.(int_bound 1000)
    (fun seed ->
      let go () =
        let r =
          run_workload
            (module Hl.Durable)
            ~seed ~threads:3 ~ops:20 ~key_range:8 ~prefill:4
            ~eviction:(Machine.Random_eviction 0.05) ()
        in
        (r.final, History.length r.history)
      in
      go () = go ())

let workload_contract =
  QCheck.Test.make ~count:100 ~name:"workload generator respects its mix"
    QCheck.(pair (int_bound 100) (int_bound 1000))
    (fun (pct, seed) ->
      let module W = Nvt_workload.Workload in
      let mix = W.updates ~pct in
      let g = W.gen ~seed ~mix ~range:64 in
      let n = 2000 in
      let updates = ref 0 in
      for _ = 1 to n do
        match W.next g with
        | W.Insert _ | W.Delete _ -> incr updates
        | W.Lookup _ -> ()
      done;
      let observed = 100 * !updates / n in
      abs (observed - pct) <= 5)

(* The skewed generator: the empirical mass of the top frequency ranks
   must match the Zipf(s) prediction, steeper skews must concentrate
   more mass, and the draw sequence must be seed-deterministic. *)
let zipf_top_mass ~seed ~s ~range ~n ~top =
  let module W = Nvt_workload.Workload in
  let g = W.gen_dist ~dist:(W.Zipf s) ~seed ~mix:W.default ~range in
  let counts = Array.make range 0 in
  for _ = 1 to n do
    let k = W.next_key g in
    counts.(k) <- counts.(k) + 1
  done;
  let f = Array.copy counts in
  Array.sort (fun a b -> compare b a) f;
  let sum = ref 0 in
  for r = 0 to top - 1 do
    sum := !sum + f.(r)
  done;
  float_of_int !sum /. float_of_int n

let zipf_rank_follows_skew =
  QCheck.Test.make ~count:40 ~name:"zipf frequency rank follows the skew"
    QCheck.(
      pair (int_bound 1000)
        (map (fun x -> 0.5 +. (float_of_int x /. 100.0)) (int_bound 70)))
    (fun (seed, s) ->
      let range = 64 and n = 20_000 and top = 8 in
      let harmonic upto =
        let h = ref 0.0 in
        for r = 1 to upto do
          h := !h +. (1.0 /. Float.pow (float_of_int r) s)
        done;
        !h
      in
      let expected = harmonic top /. harmonic range in
      let observed = zipf_top_mass ~seed ~s ~range ~n ~top in
      Float.abs (observed -. expected) <= 0.06)

let zipf_steeper_is_hotter =
  QCheck.Test.make ~count:30 ~name:"steeper zipf skew concentrates more mass"
    (QCheck.int_bound 1000)
    (fun seed ->
      let mass s = zipf_top_mass ~seed ~s ~range:128 ~n:10_000 ~top:4 in
      mass 1.2 > mass 0.6 +. 0.05)

let zipf_deterministic =
  QCheck.Test.make ~count:30 ~name:"zipf draws are seed-deterministic"
    QCheck.(pair (int_bound 1000) (int_bound 99))
    (fun (seed, s100) ->
      let module W = Nvt_workload.Workload in
      let s = 0.5 +. (float_of_int s100 /. 100.0) in
      let draw () =
        let g = W.gen_dist ~dist:(W.Zipf s) ~seed ~mix:W.default ~range:64 in
        List.init 200 (fun _ -> W.next_key g)
      in
      draw () = draw ())

(* The guide table finds the rank the binary search it replaced
   finds: over random seeds, skews in (0, 2] and ranges 1-4096, for
   draws on both sides of every bucket edge ([j / range]) and of every
   cumulative weight, and for random draws. *)
let zipf_guide_matches_search =
  QCheck.Test.make ~count:60
    ~name:"zipf guide-table rank = binary-search rank"
    QCheck.(
      triple (int_bound 1000)
        (map (fun x -> float_of_int (x + 1) /. 1000.0) (int_bound 1999))
        (map (fun x -> 1 + x) (int_bound 4095)))
    (fun (seed, s, range) ->
      let module Z = Nvt_workload.Workload.Zipf_table in
      let t = Z.make ~seed ~range ~s in
      let cum = Z.cum t in
      (* the search [next_key] used: the least rank with cum >= u *)
      let search u =
        let lo = ref 0 and hi = ref (range - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if cum.(mid) >= u then hi := mid else lo := mid + 1
        done;
        !lo
      in
      let ok u = u < 0. || u >= 1. || Z.rank t u = search u in
      let around x = ok (Float.pred x) && ok x && ok (Float.succ x) in
      let rng = Random.State.make [| seed |] in
      let rec edges j =
        j > range
        || (around (float_of_int j /. float_of_int range) && edges (j + 1))
      in
      let rec weights r = r >= range || (around cum.(r) && weights (r + 1)) in
      let rec random n =
        n = 0 || (ok (Random.State.float rng 1.0) && random (n - 1))
      in
      ok 0. && edges 0 && weights 0 && random 1000)

let prefill_contract =
  QCheck.Test.make ~count:50 ~name:"prefill keys are distinct and in range"
    QCheck.(map (fun n -> 2 + (2 * n)) (int_bound 2000))
    (fun range ->
      let module W = Nvt_workload.Workload in
      let ks = W.prefill_keys ~range in
      List.length ks = range / 2
      && List.length (List.sort_uniq compare ks) = range / 2
      && List.for_all (fun k -> 0 <= k && k < range) ks)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ model_prop "harris list (nvt) = model" (module Hl.Durable : SET);
      model_prop "harris list (izr) = model" (module Hl.Izraelevitz : SET);
      model_prop "harris list (flit) = model" (module Hl.Flit : SET);
      model_prop "ellen bst (nvt) = model" (module Eb.Durable : SET);
      model_prop "natarajan bst (nvt) = model" (module Nm.Durable : SET);
      model_prop "skiplist (nvt) = model" (module Sl.Durable : SET);
      model_prop "hash table (nvt) = model" (module Ht.Durable : SET);
      model_prop "onefile set = model"
        (module Nvt_baselines.Onefile.Set (Sim_mem) : SET);
      recover_noop "harris list" (module Hl.Durable : SET);
      recover_noop "ellen bst" (module Eb.Durable : SET);
      recover_noop "natarajan bst" (module Nm.Durable : SET);
      recover_noop "skiplist" (module Sl.Durable : SET);
      flit_durably_linearizable;
      checker_accepts_sequential;
      checker_rejects_corruption;
      determinism;
      workload_contract;
      zipf_rank_follows_skew;
      zipf_steeper_is_hotter;
      zipf_deterministic;
      zipf_guide_matches_search;
      prefill_contract ]
  @ [ Alcotest.test_case "flit lookups flush less than izraelevitz" `Quick
        flit_flushes_below_izraelevitz ]
