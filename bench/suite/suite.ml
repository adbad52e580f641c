(* The benchmark suite: four workloads, each run in its own process,
   measured end to end and, with tracing, layer by layer.

   A run draws every input from the seed, then repeats a rep — set-up
   from fresh state, then the measured phase — until the time budget is
   spent (at least three reps). Wall-clock metrics are the median of
   the reps, with quartiles; exact metrics (virtual time, instruction
   counts) must be identical in every rep. A traced run adds
   differential legs (volatile policy, two native domains, crash-free
   and volatile service twins, a rate ladder, merge-epoch and
   domain-count sweeps) and micro-timings of single layer functions,
   all with spans around the calls into each layer.

   Correctness gates run on every rep and every leg: structural
   invariants, size conservation (final size = prefill + successful
   inserts - successful deletes), the service oracle (no violations,
   every request acknowledged, every requested crash fired), the
   declared cache fit of each workload, and a round trip of the record
   through [Nvt_harness.Json.parse]. A failed gate names its metric. *)

module Machine = Nvt_sim.Machine
module Stats = Nvt_nvm.Stats
module Native = Nvt_nvm.Native
module Cost_model = Nvt_nvm.Cost_model
module Workload = Nvt_workload.Workload
module I = Nvt_harness.Instances
module Json = Nvt_harness.Json
module Runner = Nvt_service.Runner
module Service = Nvt_service.Service

module type SET = Nvt_core.Set_intf.SET

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type set_load = {
  structure : string;  (* Instances registry key *)
  range : int;
  update_pct : int;
  threads : int;  (* simulated threads: fibers on one domain *)
  sim_ops : int;
  eviction : float;  (* random-eviction probability per step *)
  native_ops : int;  (* split over the native domains *)
}

type svc_load = {
  config : Runner.config;
  ladder : int;
      (* requests per rung of the arrival-rate ladder; 0: no ladder *)
  store_ops : int;  (* native leg: the store under the request stream *)
}

type load = Set of set_load | Svc of svc_load

type workload = {
  name : string;
  load : load;
  fits_cache : bool;
      (* declared: the simulated working set stays within the cost
         model's capacity_lines, so reads mostly hit *)
}

(* Native inputs are drawn as two streams: the reps run both on one
   domain (a second vCPU is not reliably available on a shared host, so
   two-domain wall times are bimodal); the traced run also runs them on
   two domains for native.scaling_2d. *)
let native_streams = 2

let svc_group =
  { Runner.default_config with
    requests = 200_000;
    key_range = 512;
    checkpoint_interval = 50_000;
    multi_pct = 5;
    rmw_pct = 5;
    watchdog = 100_000_000 }

let workloads =
  [ (* Long traversals: ~510 reads per op against ~5 persistence
       instructions, so the machine's read path, the scheduler and the
       structure do the work and the policy almost none. *)
    { name = "list-traverse";
      load =
        Set
          { structure = "list"; range = 1024; update_pct = 20; threads = 8;
            sim_ops = 20_000; eviction = 0.; native_ops = 100_000 };
      fits_cache = true };
    (* O(1) traversals, so flush/fence/CAS, site attribution, the
       policy, the 64-thread scheduler heap and the dirty set dominate.
       Deleted nodes are never retired, so the working set outgrows the
       cache: the out-of-cache workload. *)
    { name = "hash-update";
      load =
        Set
          { structure = "hash"; range = 2048; update_pct = 50; threads = 64;
            sim_ops = 200_000; eviction = 0.01; native_ops = 1_000_000 };
      fits_cache = false };
    (* Open-loop service with group commit and checkpoints, no crashes:
       ledger, commit, checkpoint, merge loop and oracle do the work. *)
    { name = "svc-group";
      load = Svc { config = svc_group; ladder = 20_000; store_ops = 200_000 };
      fits_cache = false };
    (* Per-op commit with era crashes and crashes during recovery:
       recovery, checkpoint restore, dedup rebuild and re-send. Uniform
       keys and 24 crashes keep its latencies seed-stable: under zipf
       the seed decides which shard holds the hot keys, and with 12
       crashes the p99 sits on the edge of the crash-delayed 1% (both
       move ack_p99_vt by 12-19% from seed to seed). *)
    { name = "svc-crash";
      load =
        Svc
          { config =
              { svc_group with
                mode = Service.Per_op;
                skew = 0.;
                requests = 100_000;
                checkpoint_interval = 20_000;
                crash_steps = List.init 24 (fun _ -> 100_000);
                recovery_crashes = [ 60; 150 ] };
            ladder = 0;
            store_ops = 200_000 };
      fits_cache = false } ]

let names = List.map (fun w -> w.name) workloads

(* ------------------------------------------------------------------ *)
(* Observations and gates                                              *)
(* ------------------------------------------------------------------ *)

type spec = { unit : string; better : string; exact : bool }

let specs : (string, spec) Hashtbl.t = Hashtbl.create 128
let samples : (string, float list) Hashtbl.t = Hashtbl.create 128
let order = ref []

(* Reps run with [recording] off (the traced reps) still check gates. *)
let recording = ref true

let obs ?(exact = false) name unit better v =
  if !recording then begin
    if not (Hashtbl.mem specs name) then begin
      Hashtbl.add specs name { unit; better; exact };
      order := name :: !order
    end;
    Hashtbl.replace samples name
      (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))
  end

let failures = ref []
let attempted = ref 0
let failed = ref 0

let gate metric ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not (ok || List.mem (metric, msg) !failures) then
        failures := (metric, msg) :: !failures)
    fmt

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

(* Ops live off the OCaml heap, encoded as key * 4 + kind, so the
   bench's own buffers do not count towards heap_peak_mb. Stream [i]
   of a [streams] is [offs.(i), offs.(i + 1)). *)
type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type streams = { codes : buf; offs : int array }

let buf n : buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let streams ~total ~n =
  { codes = buf total;
    offs = Array.init (n + 1) (fun i -> (total / n * i) + min i (total mod n)) }

let nstreams s = Array.length s.offs - 1
let length s = s.offs.(nstreams s)

(* Fill stream [i] from the generator seeded with [seed i]. *)
let fill s ~dist ~mix ~range ~seed =
  for i = 0 to nstreams s - 1 do
    let g = Workload.gen_dist ~dist ~seed:(seed i) ~mix ~range in
    for j = s.offs.(i) to s.offs.(i + 1) - 1 do
      s.codes.{j} <-
        (match Workload.next g with
        | Workload.Insert k -> k lsl 2
        | Workload.Delete k -> (k lsl 2) lor 1
        | Workload.Lookup k -> (k lsl 2) lor 2)
    done
  done

(* The size change an op made. *)
let apply (type t) (module S : SET with type t = t) (s : t) code =
  let k = code lsr 2 in
  match code land 3 with
  | 0 -> if S.insert s ~key:k ~value:k then 1 else 0
  | 1 -> if S.delete s k then -1 else 0
  | _ ->
    ignore (S.member s k);
    0

(* Nearest-rank percentile (the Runner's definition) of the first [n]
   entries of [a], by in-place quickselect. *)
let percentile (a : buf) n p =
  let k = max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)) in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let pivot = a.{(!lo + !hi) / 2} in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while a.{!i} < pivot do incr i done;
      while a.{!j} > pivot do decr j done;
      if !i <= !j then begin
        let t = a.{!i} in
        a.{!i} <- a.{!j};
        a.{!j} <- t;
        incr i;
        decr j
      end
    done;
    if k <= !j then hi := !j else if k >= !i then lo := !i else lo := !hi
  done;
  a.{k}

(* ------------------------------------------------------------------ *)
(* Host-speed reference                                                *)
(* ------------------------------------------------------------------ *)

(* A shared host's speed flips between states 1.5x apart every few
   hundred milliseconds, and drifts over minutes; no number of reps
   removes that from a wall-clock throughput. So while a rep's
   simulated leg or one-domain native leg runs, an interval timer
   interrupts it every 10 ms to
   time a short fixed reference loop, whose time is then taken out of
   the leg's wall time. The gated throughput, sim_ops_per_mref, is the
   leg's rate over the reference's rate measured in the same moments.
   The loop has the shape of [Machine.run]'s read path: fibers that
   read a cell, draw from an RNG and yield through an effect, resumed
   from a queue. It is written against the standard library alone, so
   no change to lib/ moves it. *)

type _ Effect.t += Ref_yield : unit Effect.t

let ref_fibers = 8
let ref_cells = 512
let ref_steps = ref_fibers * ref_cells

let ref_lists =
  lazy (Array.init ref_fibers (fun f -> List.init ref_cells (fun i -> ref (i + f))))

(* One reference chunk: [ref_steps] steps, about 0.4 ms. *)
let reference () =
  let rng = Random.State.make [| 0x5eed |] in
  let sum = ref 0 in
  let q = Queue.create () in
  let handler =
    { Effect.Deep.retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Ref_yield ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                Queue.push (fun () -> Effect.Deep.continue k ()) q)
          | _ -> None) }
  in
  Array.iter
    (fun cells ->
      let walk () =
        List.iter
          (fun c ->
            sum := !sum + !c + Random.State.int rng 3;
            Effect.perform Ref_yield)
          cells
      in
      Queue.push (fun () -> Effect.Deep.match_with walk () handler) q)
    (Lazy.force ref_lists);
  while not (Queue.is_empty q) do
    (Queue.pop q) ()
  done;
  ignore (Sys.opaque_identity !sum)

(* The timer's handler stays installed for the whole run and does
   nothing while [ref_on] is off, so a late tick is harmless. *)
let ref_on = ref false
let ref_ns = ref 0
let ref_chunks = ref 0

let tick _ =
  if !ref_on then begin
    ref_on := false;
    let t0 = Span.now_ns () in
    reference ();
    ref_ns := !ref_ns + (Span.now_ns () - t0);
    incr ref_chunks;
    ref_on := true
  end

let interval s =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = s; it_value = s })

(* [f ()] with the reference interleaved (unless [not reference]): its
   result, its wall seconds without the reference's, and the
   reference's steps per second (nan without it). *)
let timed ?(reference = true) f =
  ref_ns := 0;
  ref_chunks := 0;
  if reference then begin
    Sys.set_signal Sys.sigalrm (Sys.Signal_handle tick);
    ref_on := true;
    interval 0.01
  end;
  let t0 = Span.now_ns () in
  let x =
    Fun.protect
      ~finally:(fun () ->
        ref_on := false;
        if reference then interval 0.)
      f
  in
  let wall = Span.now_ns () - t0 - !ref_ns in
  ( x,
    float_of_int wall *. 1e-9,
    float_of_int (!ref_chunks * ref_steps) /. (float_of_int !ref_ns *. 1e-9) )

(* ------------------------------------------------------------------ *)
(* Instances                                                           *)
(* ------------------------------------------------------------------ *)

let structure key = List.assoc key I.structures

let policy key =
  match I.flavour key with
  | Some f -> f.I.policy
  | None -> invalid_arg ("suite: unknown policy " ^ key)

let sim_set s p = I.instantiate (structure s) (policy p)

let native_set s p : (module SET) =
  let (module Str : I.STRUCTURE) = structure s in
  let (module Pol : I.POLICY) = policy p in
  let module A = Pol.Apply (Native) in
  let module S = Str.Make (A.Mem) (A.P) in
  (module S)

(* Invariants and size conservation of a quiescent set. *)
let check_set (type t) (module S : SET with type t = t) (s : t) ~leg ~expect
    ~ops =
  let ok =
    match S.check_invariants s with
    | () ->
      gate "error_rate" (S.size s = expect) "%s: size %d, expected %d" leg
        (S.size s) expect;
      S.size s = expect
    | exception Failure e ->
      gate "error_rate" false "%s: invariant violated: %s" leg e;
      false
  in
  attempted := !attempted + ops;
  if not ok then failed := !failed + ops

(* ------------------------------------------------------------------ *)
(* Legs                                                                *)
(* ------------------------------------------------------------------ *)

type sim = {
  s_wall : float;  (* Machine.run, without the reference's time *)
  s_ref_rate : float;  (* reference steps per second meanwhile *)
  s_stats : Stats.t;
  s_makespan : int;
  s_steps : int;
  s_live : int;
  s_lat50 : int;  (* per-op virtual latency, invocation to return *)
  s_lat99 : int;
}

(* Prefill a fresh machine and spawn one fiber per stream; the
   returned closure is the measured phase. *)
let prepare_sim ~seed (l : set_load) (module S : SET) (inp : streams) ~vt_lat =
  let eviction =
    if l.eviction > 0. then Machine.Random_eviction l.eviction
    else Machine.No_eviction
  in
  let m = Machine.create ~seed ~cost:Cost_model.nvram ~eviction ~jitter:2 () in
  let s = S.create () in
  let keys = Workload.prefill_keys ~range:l.range in
  Span.with_ "prefill" (fun () ->
      List.iter (fun k -> ignore (S.insert s ~key:k ~value:k)) keys;
      Machine.persist_all m);
  let before = Stats.copy (Machine.stats m) in
  let delta = ref 0 in
  for t = 0 to nstreams inp - 1 do
    ignore
      (Machine.spawn m (fun () ->
           for i = inp.offs.(t) to inp.offs.(t + 1) - 1 do
             let t0 = Machine.now m in
             delta := !delta + apply (module S) s inp.codes.{i};
             vt_lat.{i} <- Machine.now m - t0
           done))
  done;
  fun ~leg ->
    let outcome, s_wall, s_ref_rate =
      timed (fun () -> Span.with_ "machine.run" (fun () -> Machine.run m))
    in
    (match outcome with
    | Machine.Completed -> ()
    | Machine.Crashed_at _ -> failwith "suite: unrequested crash");
    let ops = length inp in
    check_set (module S) s ~leg ~expect:(List.length keys + !delta) ~ops;
    { s_wall;
      s_ref_rate;
      s_stats = Stats.diff ~after:(Machine.stats m) ~before;
      s_makespan = Machine.makespan m;
      s_steps = Machine.steps m;
      s_live = Machine.live_cells m;
      s_lat50 = percentile vt_lat ops 0.50;
      s_lat99 = percentile vt_lat ops 0.99 }

type native = {
  n_wall : float;  (* without the reference's time *)
  n_ref_rate : float;  (* reference steps per second meanwhile *)
  n_ops : int;
  n_p50 : int;
  n_p99 : int;
}

(* Prefill a native structure; the returned closure runs stream [i] on
   domain [i mod domains] and times every op. Consecutive clock reads
   bracket consecutive ops, so one read per op suffices. *)
let prepare_native ~range (module S : SET) (inp : streams) ~lat =
  let s = S.create () in
  let keys = Workload.prefill_keys ~range in
  List.iter (fun k -> ignore (S.insert s ~key:k ~value:k)) keys;
  fun ~leg ~domains ->
    let body d () =
      let delta = ref 0 in
      let start = Span.now_ns () in
      let prev = ref start in
      for i = 0 to nstreams inp - 1 do
        if i mod domains = d then
          for j = inp.offs.(i) to inp.offs.(i + 1) - 1 do
            delta := !delta + apply (module S) s inp.codes.{j};
            let t = Span.now_ns () in
            lat.{j} <- t - !prev;
            prev := t
          done
      done;
      (!delta, start, !prev)
    in
    let results, n_wall, n_ref_rate =
      timed ~reference:(domains = 1) (fun () ->
          let spawned =
            List.init (domains - 1) (fun d -> Domain.spawn (body (d + 1)))
          in
          let mine = body 0 () in
          mine :: List.map Domain.join spawned)
    in
    List.iteri
      (fun d (_, start, stop) ->
        Span.add ~tid:d ~name:(Printf.sprintf "native.domain-%d" d) ~start ~stop ())
      results;
    let delta = List.fold_left (fun n (d, _, _) -> n + d) 0 results in
    let n_ops = length inp in
    check_set (module S) s ~leg ~expect:(List.length keys + delta) ~ops:n_ops;
    { n_wall;
      n_ref_rate;
      n_ops;
      n_p50 = percentile lat n_ops 0.50;
      n_p99 = percentile lat n_ops 0.99 }

(* The reference is not interleaved with a runner on several domains:
   the timer's signal would interrupt whichever domain it reaches. *)
let run_service ~leg (c : Runner.config) =
  let r, wall, ref_rate =
    timed ~reference:(c.domains = 1) (fun () ->
        Span.with_ "runner.run" (fun () -> Runner.run c))
  in
  gate "error_rate" (r.violations = []) "%s: oracle: %s" leg
    (String.concat "; " r.violations);
  gate "error_rate" (r.acked = c.requests) "%s: %d of %d requests acked" leg
    r.acked c.requests;
  gate "error_rate"
    (r.crashes_fired = r.crashes_requested
    && r.recovery_crashes_fired = r.recovery_crashes_requested)
    "%s: crashes fired %d/%d, recovery crashes %d/%d" leg r.crashes_fired
    r.crashes_requested r.recovery_crashes_fired r.recovery_crashes_requested;
  attempted := !attempted + c.requests;
  if r.violations <> [] then failed := !failed + c.requests
  else failed := !failed + (c.requests - r.acked);
  (r, wall, ref_rate)

(* ------------------------------------------------------------------ *)
(* One rep                                                             *)
(* ------------------------------------------------------------------ *)

let per n d = float_of_int n /. float_of_int (max 1 d)

let site_metric site field =
  "site." ^ String.map (function ':' -> '-' | c -> c) site ^ "." ^ field

(* The instruction mix per op, overall and per site. *)
let obs_stats (st : Stats.t) ~ops =
  let exact = true in
  obs ~exact "flushes_per_op" "1/op" "lower" (per st.flushes ops);
  obs ~exact "fences_per_op" "1/op" "lower" (per st.fences ops);
  obs ~exact "structure.reads_per_op" "1/op" "lower" (per st.reads ops);
  obs ~exact "structure.writes_per_op" "1/op" "lower" (per st.writes ops);
  obs ~exact "structure.cas_per_op" "1/op" "lower" (per st.cas ops);
  obs ~exact "structure.allocs_per_op" "1/op" "lower" (per st.allocs ops);
  obs ~exact "structure.cas_success_ratio" "ratio" "higher"
    (per (st.cas - st.cas_failures) st.cas);
  let sites = Stats.sites st in
  obs ~exact "stats.sites" "count" "lower" (float_of_int (List.length sites));
  List.iter
    (fun (site, (x : Stats.site)) ->
      obs ~exact (site_metric site "flushes_per_op") "1/op" "lower"
        (per x.s_flushes ops);
      obs ~exact (site_metric site "fences_per_op") "1/op" "lower"
        (per x.s_fences ops))
    sites

let obs_machine ~ops ~steps ~makespan ~wall ~live ~fits_cache =
  let exact = true in
  obs ~exact "machine.steps_per_op" "1/op" "lower" (per steps ops);
  obs ~exact "machine.makespan_vt" "vt" "lower" (float_of_int makespan);
  obs "machine.steps_per_s" "1/s" "higher" (float_of_int steps /. wall);
  obs ~exact "machine.live_cells" "count" "lower" (float_of_int live);
  let capacity = Cost_model.nvram.capacity_lines in
  obs ~exact "machine.capacity_ratio" "ratio" "lower" (per live capacity);
  gate "machine.live_cells"
    (fits_cache = (live <= capacity))
    "declared %s capacity_lines, but %d live cells against %d"
    (if fits_cache then "to fit" else "to exceed")
    live capacity

(* Simulated throughput, raw and against the host-speed reference. *)
let obs_sim_rate ~ops ~wall ~ref_rate =
  let rate = float_of_int ops /. wall in
  obs "sim_ops_per_s" "1/s" "higher" rate;
  obs "sim_ops_per_mref" "op/Mref" "higher" (rate /. ref_rate *. 1e6);
  obs "host.ref_steps_per_s" "1/s" "higher" ref_rate

let obs_native (n : native) =
  let rate = float_of_int n.n_ops /. n.n_wall in
  obs "native_ops_per_s" "1/s" "higher" rate;
  obs "native_ops_per_mref" "op/Mref" "higher" (rate /. n.n_ref_rate *. 1e6);
  obs "native_p50_ns" "ns" "lower" (float_of_int n.n_p50);
  obs "native_p99_ns" "ns" "lower" (float_of_int n.n_p99)

(* The buffers of one workload, allocated once and refilled by every
   rep from the same seeds. *)
type bufs = { sim_in : streams; vt_lat : buf; nat_in : streams; nat_lat : buf }

let bufs = function
  | Set l ->
    let sim_in = streams ~total:l.sim_ops ~n:l.threads in
    let nat_in = streams ~total:l.native_ops ~n:native_streams in
    { sim_in; vt_lat = buf l.sim_ops; nat_in; nat_lat = buf l.native_ops }
  | Svc l ->
    let nat_in = streams ~total:l.store_ops ~n:native_streams in
    { sim_in = streams ~total:0 ~n:1; vt_lat = buf 0; nat_in;
      nat_lat = buf l.store_ops }

let set_inputs ~seed (l : set_load) b =
  let mix = Workload.updates ~pct:l.update_pct in
  let gen s = fill s ~dist:Workload.Uniform ~mix ~range:l.range in
  gen b.sim_in ~seed:(fun t -> (seed * 977) + t);
  gen b.nat_in ~seed:(fun d -> (seed * 977) + d)

(* The service's own key and op stream (its generator and seed), run
   against its store structure and policy. *)
let store_inputs (c : Runner.config) b =
  let dist = if c.skew <= 0. then Workload.Uniform else Workload.Zipf c.skew in
  fill b.nat_in ~dist ~mix:(Workload.updates ~pct:c.update_pct)
    ~range:c.key_range ~seed:(fun d -> c.seed + 1 + d)

(* Setup: draw inputs, build state. Returns (setup seconds, draw
   seconds, the measured phase). *)
let setup ~draws f =
  let t0 = Span.now_ns () in
  Span.with_ "workload" draws;
  let draw_s = Span.seconds_since t0 in
  let measured = f () in
  (Span.seconds_since t0, draw_s, measured)

let set_rep ~seed w (l : set_load) b =
  let setup_s, draw_s, (sim, nat) =
    setup
      ~draws:(fun () -> set_inputs ~seed l b)
      (fun () ->
        ( prepare_sim ~seed l (sim_set l.structure "nvt") b.sim_in
            ~vt_lat:b.vt_lat,
          prepare_native ~range:l.range (native_set l.structure "nvt") b.nat_in
            ~lat:b.nat_lat ))
  in
  let s = sim ~leg:"sim" in
  let n = Span.with_ "native" (fun () -> nat ~leg:"native" ~domains:1) in
  let ops = l.sim_ops in
  obs "setup_s" "s" "lower" setup_s;
  obs "workload.ns_per_draw" "ns" "lower"
    (draw_s *. 1e9 /. float_of_int (l.sim_ops + l.native_ops));
  obs_sim_rate ~ops ~wall:s.s_wall ~ref_rate:s.s_ref_rate;
  obs_native n;
  obs ~exact:true "virt_mops" "op/kvt" "higher" (1e3 *. per ops s.s_makespan);
  obs ~exact:true "ack_p50_vt" "vt" "lower" (float_of_int s.s_lat50);
  obs ~exact:true "ack_p99_vt" "vt" "lower" (float_of_int s.s_lat99);
  obs_stats s.s_stats ~ops;
  obs_machine ~ops ~steps:s.s_steps ~makespan:s.s_makespan ~wall:s.s_wall
    ~live:s.s_live ~fits_cache:w.fits_cache;
  s

let svc_rep (c : Runner.config) w (l : svc_load) b =
  let setup_s, draw_s, nat =
    setup
      ~draws:(fun () -> store_inputs c b)
      (fun () ->
        prepare_native ~range:c.key_range (native_set c.structure c.flavour)
          b.nat_in ~lat:b.nat_lat)
  in
  let r, wall, ref_rate = run_service ~leg:"service" c in
  let live = Machine.live_cells (Machine.get ()) in
  let n = Span.with_ "native" (fun () -> nat ~leg:"store" ~domains:1) in
  let req = c.requests in
  obs "setup_s" "s" "lower" setup_s;
  obs "workload.ns_per_draw" "ns" "lower" (draw_s *. 1e9 /. float_of_int l.store_ops);
  obs_sim_rate ~ops:req ~wall ~ref_rate;
  obs_native n;
  obs ~exact:true "virt_mops" "op/kvt" "higher" (1e3 *. per req r.makespan);
  obs ~exact:true "ack_p50_vt" "vt" "lower" (float_of_int r.latency.p50);
  obs ~exact:true "ack_p99_vt" "vt" "lower" (float_of_int r.latency.p99);
  obs_stats r.stats ~ops:req;
  (* one domain: the runner's only machine is the current one *)
  obs_machine ~ops:req ~steps:r.steps ~makespan:r.makespan ~wall ~live
    ~fits_cache:w.fits_cache;
  let exact = true in
  let svc_fences =
    List.fold_left
      (fun n (site, (x : Stats.site)) ->
        if String.starts_with ~prefix:"svc:" site then n + x.s_fences else n)
      0 (Stats.sites r.stats)
  in
  obs ~exact "service.steps_per_req" "1/op" "lower" (per r.steps req);
  obs ~exact "service.svc_fences_per_req" "1/op" "lower" (per svc_fences req);
  List.iter
    (fun (name, v) -> obs ~exact ("service." ^ name) "count" "lower" (float_of_int v))
    [ ("checkpoints", r.checkpoints); ("truncated", r.truncated);
      ("resent", r.resent); ("dedup_acks", r.dedup_acks);
      ("replayed", r.replayed); ("recovery_steps", r.recovery_steps) ];
  if r.crashes_fired > 0 then
    obs ~exact "service.recovery_vt" "vt" "lower" (per r.recovery_time r.crashes_fired);
  obs "runner.us_per_req" "us" "lower" (wall *. 1e6 /. float_of_int req);
  r

(* ------------------------------------------------------------------ *)
(* Traced legs                                                         *)
(* ------------------------------------------------------------------ *)

let median_of xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  Record.median a

let sample name = median_of (Hashtbl.find samples name)

(* Mean ns per call of [f] over [n] calls, median of five timings. *)
let micro n f =
  median_of
    (List.init 5 (fun _ ->
         let t0 = Span.now_ns () in
         for i = 1 to n do
           f i
         done;
         float_of_int (Span.now_ns () - t0) /. float_of_int n))

let micro_legs ~sites =
  Span.with_ "leg.micro" (fun () ->
      let n = 1_000_000 in
      let l = Native.alloc 0 in
      obs "native.read_ns" "ns" "lower" (micro n (fun _ -> ignore (Native.read l)));
      let cur = ref 0 in
      obs "native.cas_ns" "ns" "lower"
        (micro n (fun i ->
             ignore (Native.cas l ~expected:!cur ~desired:i);
             cur := i));
      obs "native.flush_ns" "ns" "lower" (micro n (fun _ -> Native.flush l));
      obs "native.fence_ns" "ns" "lower" (micro n (fun _ -> Native.fence ()));
      obs "native.alloc_ns" "ns" "lower" (micro n (fun i -> ignore (Native.alloc i)));
      (* the workload's own site names, through the full tag-and-count
         path the backends take per flush, fence and CAS *)
      let sites = Array.of_list (if sites = [] then [ Stats.app_site ] else sites) in
      let st = Stats.zero () in
      obs "stats.record_ns" "ns" "lower"
        (micro n (fun i ->
             Stats.set_site sites.(i mod Array.length sites);
             let site = Stats.take_site () in
             match i mod 3 with
             | 0 -> Stats.record_flush st ~site
             | 1 -> Stats.record_fence st ~site
             | _ -> Stats.record_cas st ~site ~ok:true)))

let instr_per_op (st : Stats.t) ~ops = per (st.flushes + st.fences + st.cas) ops

(* The two-domain legs run only where the host has a second core, so
   no run uses more domains than nproc; elsewhere their metrics read 0. *)
let two_domains = Domain.recommended_domain_count () >= 2

(* Native legs beside the reps' one-domain leg: the volatile policy on
   one domain, and the measured policy on two. Returns the reps' wall
   per op. *)
let native_legs ~range ~structure ~policy:pol b =
  Span.with_ "leg.native" (fun () ->
      let ops_per_s p ~domains =
        median_of
          (List.init 3 (fun _ ->
               let run =
                 prepare_native ~range (native_set structure p) b.nat_in
                   ~lat:b.nat_lat
               in
               let n = run ~leg:(Printf.sprintf "native-%s-%dd" p domains) ~domains in
               float_of_int n.n_ops /. n.n_wall))
      in
      let one = sample "native_ops_per_s" in
      let vol = ops_per_s "volatile" ~domains:1 in
      obs "policy.native_ns_per_op" "ns" "lower" (((1. /. one) -. (1. /. vol)) *. 1e9);
      if two_domains then
        obs "native.scaling_2d" "ratio" "higher" (ops_per_s pol ~domains:2 /. one);
      1. /. one)

(* Differential legs of a set workload, on the last rep's inputs. *)
let set_legs ~seed (l : set_load) b (s : sim) =
  let ops = l.sim_ops in
  let sim_per_op = 1. /. sample "sim_ops_per_s" in
  Span.with_ "leg.volatile" (fun () ->
      let runs =
        List.init 3 (fun _ ->
            prepare_sim ~seed l (sim_set l.structure "volatile") b.sim_in
              ~vt_lat:b.vt_lat ~leg:"sim-volatile")
      in
      let v = List.hd runs in
      let vol_per_op =
        median_of (List.map (fun r -> r.s_wall) runs) /. float_of_int ops
      in
      obs ~exact:true "policy.virt_ratio" "ratio" "lower"
        (per s.s_makespan v.s_makespan);
      obs ~exact:true "policy.virt_ns_per_op" "vt" "lower"
        (float_of_int ((s.s_makespan - v.s_makespan) * l.threads)
        /. float_of_int ops);
      obs "policy.sim_ns_per_op" "ns" "lower" ((sim_per_op -. vol_per_op) *. 1e9));
  let native_per_op =
    native_legs ~range:l.range ~structure:l.structure ~policy:"nvt" b
  in
  obs "machine.overhead_ns_per_op" "ns" "lower"
    ((sim_per_op -. native_per_op) *. 1e9);
  micro_legs ~sites:(List.map fst (Stats.sites s.s_stats));
  obs "stats.share" "ratio" "lower"
    (sample "stats.record_ns" *. 1e-9 *. instr_per_op s.s_stats ~ops
    /. native_per_op)

let ladder_gaps = [ 1200; 900; 600; 450; 300 ]

(* A rung passes when its p99 is within [ladder_limit] and its slowest
   request within [backlog_limit]: a growing backlog makes the last
   requests wait longer and longer, so it shows in the maximum. *)
let ladder_limit = 40_000
let backlog_limit = 2 * ladder_limit

(* Differential legs of a service workload. *)
let svc_legs (c : Runner.config) (l : svc_load) b (r : Runner.report) =
  let req = c.requests in
  let wall = sample "runner.us_per_req" *. 1e-6 *. float_of_int req in
  let crash_free = { c with crash_steps = []; recovery_crashes = [] } in
  let nvt_wall =
    if c.crash_steps = [] then wall
    else
      Span.with_ "leg.crash-free" (fun () ->
          let _, w, _ = run_service ~leg:"crash-free" crash_free in
          obs "service.crash_wall_s" "s" "lower" (wall -. w);
          w)
  in
  Span.with_ "leg.volatile" (fun () ->
      let _, w, _ =
        run_service ~leg:"service-volatile" { crash_free with flavour = "volatile" }
      in
      obs "policy.sim_ns_per_op" "ns" "lower"
        ((nvt_wall -. w) *. 1e9 /. float_of_int req));
  Span.with_ "leg.epoch-2000" (fun () ->
      let _, w, _ = run_service ~leg:"epoch-2000" { c with merge_epoch = 2000 } in
      obs "runner.epoch_speedup" "ratio" "higher" (wall /. w));
  if two_domains then
    Span.with_ "leg.domains-2" (fun () ->
        let _, w, _ = run_service ~leg:"domains-2" { c with domains = 2 } in
        obs "domain_pool.speedup_2d" "ratio" "higher" (wall /. w));
  if l.ladder > 0 then
    Span.with_ "leg.ladder" (fun () ->
        let best =
          List.fold_left
            (fun best gap ->
              let rung = { crash_free with mean_gap = gap; requests = l.ladder } in
              let x, _, _ =
                Span.with_ (Printf.sprintf "ladder.gap-%d" gap) (fun () ->
                    run_service ~leg:(Printf.sprintf "ladder-%d" gap) rung)
              in
              obs ~exact:true (Printf.sprintf "service.p99_vt_gap-%d" gap) "vt" "lower"
                (float_of_int x.latency.p99);
              if x.latency.p99 <= ladder_limit && x.latency.lmax <= backlog_limit
              then 1e6 /. float_of_int gap
              else best)
            0. ladder_gaps
        in
        obs ~exact:true "service.max_rate" "op/Mvt" "higher" best);
  let native_per_op =
    native_legs ~range:c.key_range ~structure:c.structure ~policy:c.flavour b
  in
  obs "machine.overhead_ns_per_op" "ns" "lower"
    ((wall /. float_of_int req -. native_per_op) *. 1e9);
  micro_legs ~sites:(List.map fst (Stats.sites r.stats));
  obs "stats.share" "ratio" "lower"
    (sample "stats.record_ns" *. 1e-9 *. instr_per_op r.stats ~ops:req
    /. (wall /. float_of_int req))

(* ------------------------------------------------------------------ *)
(* A run                                                               *)
(* ------------------------------------------------------------------ *)

(* The checked-out revision, read without starting a process;
   "unknown" outside a git clone. *)
let git_rev () =
  let read p = String.trim (In_channel.with_open_text p In_channel.input_all) in
  try
    let head = read ".git/HEAD" in
    if not (String.starts_with ~prefix:"ref: " head) then head
    else
      let r = String.sub head 5 (String.length head - 5) in
      try read (".git/" ^ r)
      with Sys_error _ ->
        read ".git/packed-refs" |> String.split_on_char '\n'
        |> List.find (String.ends_with ~suffix:(" " ^ r))
        |> String.split_on_char ' ' |> List.hd
  with Sys_error _ | Not_found -> "unknown"

let rows ~workload =
  List.rev_map
    (fun name ->
      let sp = Hashtbl.find specs name in
      let a = Array.of_list (Hashtbl.find samples name) in
      Array.sort compare a;
      if sp.exact then
        gate name
          (a.(0) = a.(Array.length a - 1))
          "exact metric differs across reps: %.17g .. %.17g" a.(0)
          a.(Array.length a - 1);
      let q1, q3 = Record.quartiles a in
      { Record.workload;
        layer =
          (match String.index_opt name '.' with
          | None -> "e2e"
          | Some i -> (
            match String.sub name 0 i with "site" -> "stats" | l -> l));
        metric = name;
        value = Record.median a;
        q1;
        q3;
        samples = Array.length a;
        unit = sp.unit;
        exact = sp.exact;
        better = sp.better })
    !order

(* The metrics of the closing JSON line: every end-to-end metric of the
   manifest, or with tracing every per-layer one (0 where the workload
   does not exercise the layer). *)
let result_metrics (m : Record.manifest) ~trace rows =
  List.map
    (fun (sp : Record.spec) ->
      let v =
        match List.find_opt (fun (r : Record.row) -> r.metric = sp.name) rows with
        | Some r ->
          gate sp.name (r.unit = sp.unit) "unit %s, manifest says %s" r.unit
            sp.unit;
          r.value
        | None ->
          gate sp.name trace "not measured";
          0.
      in
      (sp.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str sp.unit) ]))
    (if trace then m.per_layer else m.end_to_end)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
  manifest : Record.manifest;
}

let run o =
  let w =
    match List.find_opt (fun w -> w.name = o.workload) workloads with
    | Some w -> w
    | None -> invalid_arg ("suite: unknown workload " ^ o.workload)
  in
  let b = bufs w.load in
  let rep () =
    (* no rep pays for the previous one's garbage *)
    Gc.compact ();
    let t0 = Span.now_ns () in
    let last =
      match w.load with
      | Set l -> `Set (l, set_rep ~seed:o.seed w l b)
      | Svc l ->
        let c = { l.config with seed = o.seed } in
        `Svc (c, l, svc_rep c w l b)
    in
    (last, Span.seconds_since t0)
  in
  let t0 = Span.now_ns () in
  let first = rep () in
  (* the peak of one rep: later reps could only raise it by GC timing *)
  obs "heap_peak_mb" "MB" "lower"
    (float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. 1048576.);
  let rec reps acc =
    if List.length acc >= 3 && Span.seconds_since t0 >= o.seconds
    then acc
    else reps (rep () :: acc)
  in
  let done_ = reps [ first ] in
  let walls = List.map snd done_ in
  if o.trace then begin
    Span.enabled := true;
    recording := false;
    let traced =
      List.init (min 3 (List.length walls)) (fun i ->
          Span.with_ (Printf.sprintf "rep-%d" i) (fun () -> snd (rep ())))
    in
    recording := true;
    obs "trace.overhead" "ratio" "lower" ((median_of traced /. median_of walls) -. 1.);
    match fst (List.hd done_) with
    | `Set (l, s) -> set_legs ~seed:o.seed l b s
    | `Svc (c, l, r) -> svc_legs c l b r
  end;
  obs ~exact:true "error_rate" "ratio" "lower" (per !failed !attempted);
  let rows = rows ~workload:w.name in
  let meta =
    [ ("workload", Json.Str w.name);
      ("git_rev", Json.Str (git_rev ()));
      ("host", Json.Str (Unix.gethostname ()));
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("seed", Json.Int o.seed);
      ("reps", Json.Int (List.length walls));
      ("seconds", Json.Float o.seconds);
      ("trace", Json.Bool o.trace) ]
  in
  let out = Option.value o.out ~default:(Printf.sprintf "BENCH_suite_%s.json" w.name) in
  Record.write_file out (Record.json ~meta rows);
  gate "record"
    (match Record.load out with
    | back -> back = rows
    | exception Json.Parse_error e ->
      prerr_endline e;
      false)
    "%s does not round-trip through Json.parse" out;
  let metrics = result_metrics o.manifest ~trace:o.trace rows in
  Printf.printf "# suite %s: seed %d, %d reps, %s\n" w.name o.seed
    (List.length walls) (if o.trace then "traced" else "untraced");
  List.iter
    (fun (r : Record.row) ->
      Printf.printf "%-40s %.6g %s%s\n" r.metric r.value r.unit
        (if r.exact || r.samples < 2 then ""
         else Printf.sprintf "   [q1 %.6g, q3 %.6g]" r.q1 r.q3))
    rows;
  Printf.printf "# record: %s\n" out;
  if o.trace then begin
    let path = Printf.sprintf "BENCH_suite_trace_%s.json" w.name in
    Record.write_file path (Span.chrome_json ());
    Printf.printf "# trace: %s\n# %-30s %6s %12s %12s\n" path "span" "count"
      "total_s" "self_s";
    List.iter
      (fun (name, n, tot, self) ->
        Printf.printf "# %-30s %6d %12.6f %12.6f\n" name n tot self)
      (Span.table ())
  end;
  List.iter
    (fun (metric, msg) -> Printf.eprintf "GATE FAILED %s: %s\n" metric msg)
    (List.rev !failures);
  print_endline
    (Record.to_string
       (Json.Obj
          [ ("correct", Json.Bool (!failures = []));
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ("metrics", Json.Obj metrics) ]));
  !failures = []
