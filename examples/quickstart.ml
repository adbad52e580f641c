(* Quickstart: build a durable set, crash the machine mid-workload,
   recover, and observe that every completed operation survived.

   Run with:  dune exec examples/quickstart.exe *)

module Machine = Nvt_sim.Machine
module Mem = Nvt_sim.Memory
module P = Nvt_nvm.Persist.Make (Mem)

(* The NVTraverse transformation is the [P.Durable] policy; swapping in
   [P.Volatile] recovers the original in-memory algorithm. *)
module Set = Nvt_structures.Harris_list.Make (Mem) (P.Durable)

let () =
  (* A simulated NVRAM machine: memory operations from simulated threads
     are interleaved deterministically and charged virtual time. *)
  let machine = Machine.create ~seed:42 ~cost:Nvt_nvm.Cost_model.nvram () in

  let set = Set.create () in
  for k = 0 to 9 do
    ignore (Set.insert set ~key:k ~value:(k * k))
  done;
  Machine.persist_all machine;
  Printf.printf "before crash: %d keys\n" (Set.size set);

  (* Two threads insert and delete concurrently... *)
  let completed = ref [] in
  for tid = 0 to 1 do
    ignore
      (Machine.spawn machine (fun () ->
           for i = 0 to 19 do
             let k = 100 + (tid * 100) + i in
             if Set.insert set ~key:k ~value:k then
               completed := k :: !completed
           done))
  done;

  (* ...and the power fails mid-run. *)
  Machine.set_crash_at_step machine 400;
  (match Machine.run machine with
  | Machine.Crashed_at t -> Printf.printf "crash at virtual time %d!\n" t
  | Machine.Completed ->
    (* nothing was tested: a run that never crashed cannot show that
       anything survived one *)
    prerr_endline "the crash never fired: the run completed first";
    exit 1);

  (* Volatile contents are gone; recovery trims partial deletions and
     the structure is immediately usable again. *)
  Set.recover set;
  Set.check_invariants set;

  let lost =
    List.filter (fun k -> not (Set.member set k)) !completed
  in
  Printf.printf "after recovery: %d keys; completed inserts lost: %d\n"
    (Set.size set) (List.length lost);
  (match lost with
  | [] -> print_endline "durable linearizability held: nothing was lost."
  | ks ->
    List.iter (Printf.printf "  lost key %d\n") ks;
    failwith "durability violated!");

  (* The flush/fence mix that durability cost us: *)
  let stats = Machine.stats machine in
  Printf.printf "instruction mix: %s\n"
    (Format.asprintf "%a" Nvt_nvm.Stats.pp stats)
