(* Crash-injection tour: run the same workload on the same structure
   under every persistence policy, crash at many points, and tabulate
   which policies survive with durable linearizability intact.

   This reproduces, as an executable demonstration, the paper's central
   claim: the traversal phase needs no persistence (NVTraverse survives
   every crash with a handful of flushes per operation), while omitting
   its flushes (the volatile original) is detectably unsafe.

   Run with:  dune exec examples/crash_recovery.exe *)

module Machine = Nvt_sim.Machine
module History = Nvt_sim.History
module Crashlab = Nvt_harness.Crashlab
module I = Nvt_harness.Instances

module type SET = Nvt_core.Set_intf.SET

(* Every policy in the registry that supports the list, instantiated
   through its registry entry (so SOFT gets its rewritten list and the
   detectable flavour its descriptor wrapper); a new entry in
   [Instances.flavours] shows up here with no further work. *)
let policies : (string * bool * (module SET)) list =
  List.filter_map
    (fun (f : I.flavour) ->
      let (module Pol : I.POLICY) = f.policy in
      if not (I.supports f "list") then None
      else
        Some
          ( f.key,
            Pol.durable,
            I.instantiate_flavour f "list" (module Nvt_structures.Harris_list)
          ))
    I.flavours

let crashes = 25
let threads = 4
let key_range = 16

let trial set seed =
  let m = Machine.create ~seed ~eviction:(Machine.Random_eviction 0.02) () in
  let r = Crashlab.start set m ~prefill:[ 1; 4; 7; 10; 13 ] in
  let spawn () =
    Crashlab.spawn_uniform r ~threads ~ops:25 ~range:key_range
      ~seed:(fun tid -> [| seed; tid; History.era r.history |])
  in
  spawn ();
  Machine.set_crash_at_step m (150 + (37 * seed));
  match
    match Crashlab.era r with
    | Machine.Completed -> `Unfired
    | Machine.Crashed_at _ -> (
      spawn ();
      match Crashlab.era r with
      | Machine.Crashed_at _ -> assert false
      | Machine.Completed ->
        if Crashlab.verdict r = Linearizable then `Survived
        else `Lost_updates)
  with
  | exception Machine.Corrupt_read _ -> `Corrupt
  | verdict -> verdict

(* Print the matrix; true iff every non-durable policy lost data at
   least once and every durable one survived every crash that fired. *)
let matrix () =
  Printf.printf
    "Crashing a 4-thread list workload at %d points under each policy:\n\n"
    crashes;
  Printf.printf "%-24s %10s %10s %10s %10s\n" "policy" "survived" "unfired"
    "corrupt" "lost-ops";
  List.for_all Fun.id
    (List.map
       (fun (name, durable, set) ->
         let survived = ref 0 and unfired = ref 0 in
         let corrupt = ref 0 and lost = ref 0 in
         for seed = 0 to crashes - 1 do
           incr
             (match trial set seed with
             | `Survived -> survived
             | `Unfired -> unfired
             | `Corrupt -> corrupt
             | `Lost_updates -> lost)
         done;
         Printf.printf "%-24s %10d %10d %10d %10d\n" name !survived !unfired
           !corrupt !lost;
         let lost_data = !corrupt + !lost > 0 in
         let ok = if durable then not lost_data else lost_data in
         if not ok then
           Printf.eprintf "%s: %s\n" name
             (if durable then "a durable policy lost data at a crash"
              else "a non-durable policy lost no data at any crash");
         ok)
       policies
    (* map first, so every row prints *))

let () =
  let ok = matrix () in
  print_newline ();
  if not ok then exit 1;
  print_endline
    "The volatile original loses completed operations (or leaves corrupt \
     memory); every transformed version survives every crash that fired."
