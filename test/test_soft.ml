(* SOFT-specific batteries (Zuriel et al., OOPSLA 2019): the hand-tuned
   contender must survive the same adversary matrix as the engine-placed
   policies — crashes at random points under the eviction and stall
   adversaries, on both structure variants (the rewritten list and the
   bucket directory over it) — and a qcheck property holds durable
   linearizability over random crashed histories. The per-step crash
   sweep already runs SOFT via the registry (test_crash_sweep); these
   cases add the adversary combinations and the property.

   The negative control suppresses soft:persist_insert — SOFT's entire
   insert durability is that one pnode flush, so some crashed run must
   lose an acknowledged insert, proving the property has teeth. *)

open Support

let soft_list = (module I.Soft_l.Durable : SET)
let soft_hash = (module I.Soft_ht.Durable : SET)

(* Crash under each adversary combination, several seeds each: the
   recovered structure must be durably linearizable and well-formed. *)
let adversary_matrix set name ~eviction ~stall () =
  for seed = 1 to 4 do
    let r =
      run_workload set ~seed ~threads:4 ~ops:30 ~key_range:8 ~prefill:4
        ~eviction ?stall
        ~crash_at_step:(60 + (37 * seed))
        ()
    in
    check_linearizable ~what:(Printf.sprintf "%s seed %d" name seed) r
  done

let stall = Some { Machine.probability = 0.05; max_units = 20_000 }

let matrix_cases =
  List.concat_map
    (fun (sname, set) ->
      List.map
        (fun (aname, eviction, stall) ->
          Alcotest.test_case
            (Printf.sprintf "soft %s: crashes under %s" sname aname)
            `Quick
            (adversary_matrix set (sname ^ "/" ^ aname) ~eviction ~stall))
        [ ("no adversary", Machine.No_eviction, None);
          ("eviction", Machine.Random_eviction 0.1, None);
          ("stalls", Machine.No_eviction, stall);
          ("eviction+stalls", Machine.Random_eviction 0.1, stall) ])
    [ ("list", soft_list); ("hash", soft_hash) ]

(* The qcheck durability property: random seed, random crash point,
   eviction adversary on — every crashed history durably linearizable. *)
let soft_durably_linearizable =
  QCheck.Test.make ~count:60
    ~name:"soft: random crashed histories are durably linearizable"
    QCheck.(pair (int_bound 1000) (int_bound 400))
    (fun (seed, crash) ->
      let r =
        run_workload soft_list ~seed ~threads:4 ~ops:30 ~key_range:8
          ~prefill:4
          ~eviction:(Machine.Random_eviction 0.05)
          ~crash_at_step:(50 + crash) ()
      in
      match Lin.check_set ~initial_keys:r.prefilled r.history with
      | Ok () -> true
      | Error _ -> false)

(* Negative control: with the pnode-activation flush suppressed, the
   same property must fail on some (seed, crash) — an acknowledged
   insert whose pnode never persisted vanishes at recovery. *)
let suppressed_insert_loses_data () =
  Nvm.Suppress.set (Some "soft:persist_insert");
  Fun.protect
    ~finally:(fun () -> Nvm.Suppress.set None)
    (fun () ->
      let killed = ref false in
      let seed = ref 1 in
      while (not !killed) && !seed <= 30 do
        let r =
          run_workload soft_list ~seed:!seed ~threads:4 ~ops:30 ~key_range:8
            ~prefill:4
            ~crash_at_step:(40 + (23 * !seed))
            ()
        in
        (match Lin.check_set ~initial_keys:r.prefilled r.history with
        | Ok () -> ()
        | Error _ -> killed := true);
        incr seed
      done;
      if not !killed then
        Alcotest.fail
          "suppressing soft:persist_insert never lost an acknowledged \
           insert — the durability property has no teeth")

(* The headline comparison, pinned at tier-1 scale: SOFT's two pnode
   persists under-flush the generic transformation on the hash
   workload. The contenders experiment quantifies this; the test only keeps
   the direction from regressing. *)
let soft_under_persists_nvt () =
  let per_op set =
    let r =
      Crashlab.run
        { (Crashlab.spec set) with
          ops = 1500;
          mix = Nvt_workload.Workload.updates ~pct:40;
          seed = 11;
          stream_seed = Crashlab.thread_streams;
          jitter = 2 }
    in
    ( float_of_int r.stats.flushes /. 1500.,
      float_of_int r.stats.fences /. 1500. )
  in
  let soft_flushes, soft_fences = per_op soft_hash in
  let nvt_flushes, nvt_fences = per_op (module I.Ht.Durable : SET) in
  if soft_flushes >= nvt_flushes then
    Alcotest.failf "soft flushes %.2f/op, nvt %.2f/op" soft_flushes nvt_flushes;
  if soft_fences >= nvt_fences then
    Alcotest.failf "soft fences %.2f/op, nvt %.2f/op" soft_fences nvt_fences

let suite =
  matrix_cases
  @ [ QCheck_alcotest.to_alcotest soft_durably_linearizable;
      Alcotest.test_case "suppressed persist_insert loses data (control)"
        `Quick suppressed_insert_loses_data;
      Alcotest.test_case "soft under-persists nvt on the hash workload"
        `Quick soft_under_persists_nvt ]
