(* Every fiber switch must leave the stack the handlers run on as deep
   as it found it: the yielding fiber's handler resumes the next fiber
   in tail position. Run under a small stack limit (see the dune file),
   this drives millions of switching steps through one [Machine.run]
   and as many through one [Machine.advance_to] with a far horizon,
   then a 64-thread run whose fibers also sleep on a [Wait] and finish,
   so every case of the machine's one handler hands off; a handoff that
   left a frame behind per switch overflows the stack. *)

module Machine = Nvt_sim.Machine
module Mem = Nvt_sim.Memory

let threads = 4
let reads = 1_000_000

(* [threads] threads read one cell [reads] times each: equal costs and
   ties to the lowest tid make every step switch fibers. *)
let drive name advance =
  let m = Machine.create () in
  let c = Mem.alloc 0 in
  Machine.persist_all m;
  for _ = 1 to threads do
    ignore
      (Machine.spawn m (fun () ->
           for _ = 1 to reads do
             ignore (Mem.read c)
           done))
  done;
  let outcome = advance m in
  let steps = Machine.steps m and switches = Machine.switches m in
  if outcome <> `Completed || switches < threads * reads then begin
    Printf.eprintf "%s: %d steps, %d switches, %s\n" name steps switches
      (if outcome = `Completed then "completed" else "did not complete");
    exit 1
  end;
  Printf.printf "%s: %d switching steps\n" name switches

let wide = 64
let wide_reads = 50_000
let nap_every = 16

(* [wide] threads read one cell [wide_reads] times each, every read a
   switch as above, and every [nap_every] reads sleep until three
   quanta have passed: each sleep ends a step in the handler's [Wait]
   case, and its wake resumes the fiber from the scheduler. *)
let drive_wide () =
  let m = Machine.create () in
  let c = Mem.alloc 0 in
  Machine.persist_all m;
  for _ = 1 to wide do
    ignore
      (Machine.spawn m (fun () ->
           for i = 1 to wide_reads do
             ignore (Mem.read c);
             if i mod nap_every = 0 then begin
               let wake = Machine.now m + 30 in
               Machine.sleep m 10 ~until:(fun () -> Machine.now m >= wake)
             end
           done))
  done;
  let completed =
    match Machine.run m with
    | Machine.Completed -> true
    | Machine.Crashed_at _ -> false
  in
  let steps = Machine.steps m and switches = Machine.switches m in
  let naps = wide * (wide_reads / nap_every) in
  if (not completed) || switches < wide * wide_reads
     || steps < switches + (2 * naps)
  then begin
    Printf.eprintf "%d threads: %d steps, %d switches, %s\n" wide steps
      switches (if completed then "completed" else "did not complete");
    exit 1
  end;
  Printf.printf "%d threads: %d switching steps, %d naps\n" wide switches naps

let () =
  drive "run" (fun m ->
      match Machine.run m with
      | Machine.Completed -> `Completed
      | Machine.Crashed_at _ -> `Crashed);
  drive "advance_to" (fun m ->
      match Machine.advance_to m ~time:(max_int / 2) with
      | `Completed -> `Completed
      | `Barrier | `Crashed_at _ -> `Crashed);
  drive_wide ()
