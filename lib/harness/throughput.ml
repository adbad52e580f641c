(* The simulated-throughput runner behind every figure panel.

   A run pre-fills the structure to half its key range, persists
   everything, then spawns N simulated threads each executing a slice of
   the operation budget under the given mix. Throughput is operations
   per unit of simulated makespan; with the cost models calibrated in
   abstract nanoseconds, the reported figure reads as Mops/s.

   Alongside throughput the runner reports flushes and fences per
   operation — the quantities the paper's analysis attributes the
   performance differences to. *)

module Machine = Nvt_sim.Machine
module Stats = Nvt_nvm.Stats
module Workload = Nvt_workload.Workload

module type SET = Nvt_core.Set_intf.SET

type params = {
  threads : int;
  range : int;
  mix : Workload.mix;
  total_ops : int;  (* split across threads *)
}

type result = {
  ops : int;
  makespan : int;
  mops : float;  (* ops per 1e3 simulated time units: Mops/s in ns units *)
  flushes_per_op : float;
  fences_per_op : float;
  cas_failure_rate : float;
  stats : Stats.t;  (* the run's counter delta, with per-site attribution *)
}

let run (module S : SET) ~cost ~seed (p : params) =
  let m = Machine.create ~seed ~cost ~jitter:2 () in
  let s = S.create () in
  List.iter
    (fun k ->
      if k < p.range then ignore (S.insert s ~key:k ~value:k))
    (Workload.prefill_keys ~range:p.range);
  Machine.persist_all m;
  let before = Stats.copy (Machine.stats m) in
  (* Exactly [total_ops] operations run: each thread takes the base
     share and the first [total_ops mod threads] threads take one extra.
     (The old [max 1 (total_ops / threads)] silently dropped the
     remainder — 1000 ops over 64 threads ran 960 — and ran *more* than
     requested whenever [total_ops < threads].) *)
  let base = p.total_ops / p.threads in
  let rem = p.total_ops mod p.threads in
  let ops = p.total_ops in
  for tid = 0 to p.threads - 1 do
    let per_thread = base + if tid < rem then 1 else 0 in
    let g = Workload.gen ~seed:((seed * 977) + tid) ~mix:p.mix ~range:p.range in
    if per_thread > 0 then
      ignore
        (Machine.spawn m (fun () ->
             for _ = 1 to per_thread do
               match Workload.next g with
               | Workload.Insert k -> ignore (S.insert s ~key:k ~value:k)
               | Workload.Delete k -> ignore (S.delete s k)
               | Workload.Lookup k -> ignore (S.member s k)
             done))
  done;
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> assert false);
  let stats = Stats.diff ~after:(Machine.stats m) ~before in
  let makespan = max 1 (Machine.makespan m) in
  let per_op n = float_of_int n /. float_of_int (max 1 ops) in
  { ops;
    makespan;
    mops = 1e3 *. float_of_int ops /. float_of_int makespan;
    flushes_per_op = per_op stats.flushes;
    fences_per_op = per_op stats.fences;
    cas_failure_rate =
      (if stats.cas = 0 then 0.0
       else float_of_int stats.cas_failures /. float_of_int stats.cas);
    stats }
