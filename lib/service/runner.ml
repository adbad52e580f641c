(* The open-loop load harness and crash laboratory for the service.

   Requests arrive at Poisson times (exponential inter-arrival gaps,
   seeded) over a configurable number of sequential client sessions; a
   client with an outstanding request backlogs later arrivals, and
   latency is measured from the *scheduled* arrival, so queueing delay
   counts — the open-loop discipline.

   Execution model: the service's shards are striped over [domains]
   groups (clamped to the shard count); each group is one
   {!Service.create} slice living on its own {!Machine} instance, and
   each machine runs on its own OCaml domain through a
   {!Nvt_sim.Domain_pool}. The main domain owns every piece of
   cross-group state — client sessions, arrival schedule, oracle,
   crash clock — and touches it only at virtual-time merge barriers:

     every [merge_epoch] units of virtual time, all machines advance
     to the same barrier (Machine.advance_to), then the main domain
     drains the per-group apply/ack event buffers, merges them in
     effective-time order, releases due arrivals into the owning
     group's shard queues, and decides stop/crash/watchdog.

   Determinism contract. A crash-free run's per-shard apply histories
   and oracle verdict are independent of the domain count: shards are
   disjoint, worker virtual time depends only on the worker's own
   operations, requests enter shard queues only at barriers, and
   acknowledgement release times are quantized to domain-count-
   independent boundaries (see [effective]). Crashed runs stay
   verdict-stable but not history-identical: each machine coin-flips
   its own pending write-backs at the crash.

   Crashes are injected per era as in [Crashlab], except the trigger
   is checked at merge barriers: the era's first barrier at which the
   machines' aggregate step count reaches the configured threshold
   force-crashes every machine at the same virtual time. Before the
   crash fires, all collected and deferred acknowledgements are
   processed — they are durably committed, so deferring them past the
   crash would re-send already-acknowledged requests. After recovery
   the next era re-sends every outstanding request, exactly what a
   real client would do. {!Oracle} checks exactly-once semantics over
   the merged events, at every recovered quiescent point and on the
   final state, then audits every client's last acknowledged request.

   Eras, recovery passes and the audit share one barrier driver
   ([drive]); its watchdog turns a phase that runs [watchdog] aggregate
   steps without completing into a stall violation instead of
   simulating forever. *)

module Machine = Nvt_sim.Machine
module Stats = Nvt_nvm.Stats
module Workload = Nvt_workload.Workload
module I = Nvt_harness.Instances

type config = {
  structure : string;  (* registry key, e.g. "hash" *)
  flavour : string;  (* registry key, e.g. "nvt" *)
  shards : int;
  clients : int;
  requests : int;
  mean_gap : int;  (* mean inter-arrival gap, simulated time units *)
  skew : float;  (* 0 = uniform keys; else Zipf skew parameter *)
  update_pct : int;
  key_range : int;
  mode : Service.mode;
  seed : int;
  crash_steps : int list;  (* one crash per era, like Crashlab *)
  cost : Nvt_nvm.Cost_model.t;
  eviction : Machine.eviction;
  watchdog : int;  (* max aggregate steps per era before a stall *)
  domains : int;  (* shard groups on real domains; clamped to shards *)
  merge_epoch : int;  (* virtual time units between merge barriers *)
  checkpoint_interval : int;  (* 0: no checkpoints *)
  recovery_crashes : int list;  (* step thresholds of crashes fired
                                   *during* recovery (double-crash) *)
  plan : Nvt_nvm.Optimizer.plan option;
      (* optimizer plan installed on every machine; [None]: no plan *)
  multi_pct : int;  (* % of requests issued as same-shard multi-puts *)
  multi_k : int;  (* keys per multi-put (capped at the shard's pool) *)
  rmw_pct : int;  (* % of requests issued as read-modify-writes *)
  detect : bool;  (* descriptor-based (detectable) recovery *)
}

let default_config =
  { structure = "hash";
    flavour = "nvt";
    shards = 4;
    clients = 16;
    requests = 1000;
    mean_gap = 600;
    skew = 0.99;
    update_pct = 50;
    key_range = 256;
    mode = Service.Group { timeout = 2000 };
    seed = 1;
    crash_steps = [];
    cost = Nvt_nvm.Cost_model.nvram;
    eviction = Machine.No_eviction;
    watchdog = 2_000_000;
    domains = 1;
    merge_epoch = 500;
    checkpoint_interval = 0;
    recovery_crashes = [];
    plan = None;
    multi_pct = 0;
    multi_k = 4;
    rmw_pct = 0;
    detect = false }

type latency = { p50 : int; p95 : int; p99 : int; lmax : int; mean : float }

(* One shard's apply history, digested: the applies counted and their
   (client, seq) pairs folded, oldest first, into a 63-bit digest. *)
type history = { count : int; digest : int }

(* A 63-bit finalizer in the style of splitmix64's: every input bit
   reaches every output bit, so a reordered or changed pair moves the
   digest. *)
let mix x =
  let x = (x lxor (x lsr 31)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 29)) * 0x14c9a5b6e2df3f47 in
  x lxor (x lsr 32)

let digest_seed = 0x2545f4914f6cdd1d
let digest_step d ~client ~seq = mix (mix (d lxor client) + seq)

let history_of pairs =
  List.fold_left
    (fun h (client, seq) ->
      { count = h.count + 1; digest = digest_step h.digest ~client ~seq })
    { count = 0; digest = digest_seed }
    pairs

type report = {
  config : config;
  acked : int;
  applies : int;  (* store applications, including crash re-sends *)
  resent : int;
  multi_puts : int;  (* requests issued as same-shard multi-puts *)
  multi_keys : int;  (* keys those multi-puts carry, summed *)
  rmws : int;  (* requests issued as read-modify-writes *)
  dedup_acks : int;  (* re-sends answered from the ledger *)
  audit_acks : int;
  crashes_requested : int;
  crashes_fired : int;
  recovery_crashes_requested : int;
  recovery_crashes_fired : int;
  checkpoints : int;  (* checkpoints durably committed *)
  truncated : int;  (* log slots dropped by checkpoints *)
  replayed : int;  (* log entries replayed by recovery passes *)
  recovery_steps : int;  (* aggregate steps spent inside recovery *)
  recovery_time : int;  (* virtual time consumed by recovery passes *)
  eras : int;
  makespan : int;
  steps : int;
  committed : int;
  latency : latency;
  stats : Stats.t;  (* main-run window (prefill and audit excluded) *)
  violations : string list;
  histories : history array;  (* per global shard *)
}

(* ------------------------------------------------------------------ *)

(* The element of rank [k] of [a]'s first [n], by in-place quickselect
   over [lo, n): it leaves every element below [k] no greater than
   [a.(k)] and every one above no less, so a later call for a higher
   rank may start at [k]. Typed [int array], so its comparisons are
   machine compares, not calls to the polymorphic compare. *)
let select (a : int array) n lo k =
  let lo = ref lo and hi = ref (n - 1) in
  while !lo < !hi do
    let pivot = a.((!lo + !hi) / 2) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    if k <= !j then hi := !j else if k >= !i then lo := !i else lo := !hi
  done;
  a.(k)

(* Nearest-rank p50/p95/p99, max and mean of the first [len]
   latencies; reorders them. *)
let summarize ?len lat =
  let n = Option.value len ~default:(Array.length lat) in
  if n = 0 then { p50 = 0; p95 = 0; p99 = 0; lmax = 0; mean = 0.0 }
  else begin
    let rank p =
      max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))
    in
    let r50 = rank 0.50 and r95 = rank 0.95 and r99 = rank 0.99 in
    let p50 = select lat n 0 r50 in
    let p95 = select lat n r50 r95 in
    let p99 = select lat n r95 r99 in
    let lmax = ref min_int and sum = ref 0 in
    for i = 0 to n - 1 do
      lmax := Int.max !lmax lat.(i);
      sum := !sum + lat.(i)
    done;
    { p50;
      p95;
      p99;
      lmax = !lmax;
      mean = float_of_int !sum /. float_of_int n }
  end

let exponential rng mean =
  let u = 1.0 -. Random.State.float rng 1.0 (* (0, 1] *) in
  Int.max 1 (int_of_float (Float.round (-.float_of_int mean *. log u)))

(* The arrival schedule: a pure function of the configuration. Poisson
   arrival times, a uniformly drawn client per request (its seq is its
   rank among that client's arrivals), and the workload's op stream,
   optionally remixed into multi-puts and read-modify-writes; written
   column by column, arrival number [i] at index [i]. *)
let schedule (c : config) : Oracle.arrivals =
  let dist =
    if c.skew <= 0.0 then Workload.Uniform else Workload.Zipf c.skew
  in
  let wl =
    Workload.gen_dist ~dist ~seed:(c.seed + 1)
      ~mix:(Workload.updates ~pct:c.update_pct)
      ~range:c.key_range
  in
  let arr_rng = Random.State.make [| c.seed; 0xa11 |] in
  let cli_rng = Random.State.make [| c.seed; 0xc11 |] in
  let op_rng = Random.State.make [| c.seed; 0x0b7 |] in
  (* keys of each global shard, for building same-shard multi-puts *)
  let by_shard =
    lazy
      (let a = Array.make c.shards [] in
       for k = c.key_range - 1 downto 0 do
         let g = Service.global_shard ~shards:c.shards k in
         a.(g) <- k :: a.(g)
       done;
       Array.map Array.of_list a)
  in
  (* Each op is a function of its kind and one key: the schedule builds
     each distinct op once and shares it, instead of holding a block per
     request. [code] numbers them, and indexes the table of ops built so
     far: [kind] is 0-2 for put, del and get, 3 for the multi-put
     starting at key [k], 4-10 for [Rmw (k, 1..7)]. *)
  let ops = Array.make (11 * c.key_range) None in
  let intern kind k make =
    let code = (11 * k) + kind in
    match ops.(code) with
    | Some op -> op
    | None ->
      let op = make () in
      ops.(code) <- Some op;
      op
  in
  let column x = Array.make c.requests x in
  let a = { Oracle.a_op = column (Service.Get 0); a_stamp = column 0 } in
  let clock = ref 0 in
  for i = 0 to c.requests - 1 do
    clock := !clock + exponential arr_rng c.mean_gap;
    let client = Random.State.int cli_rng c.clients in
    let op =
      match Workload.next wl with
      | Workload.Insert k -> intern 0 k (fun () -> Service.Put (k, k + 1))
      | Workload.Delete k -> intern 1 k (fun () -> Service.Del k)
      | Workload.Lookup k -> intern 2 k (fun () -> Service.Get k)
    in
    let op =
      (* [op_rng] is consumed only when the mixed ops are enabled, so
         default configurations keep their exact histories *)
      if c.multi_pct + c.rmw_pct <= 0 then op
      else begin
        let roll = Random.State.int op_rng 100 in
        let k = Service.key_of_op op in
        if roll < c.multi_pct then begin
          let pool =
            (Lazy.force by_shard).(Service.global_shard ~shards:c.shards k)
          in
          let n = Array.length pool in
          let kk = max 1 (min c.multi_k n) in
          let start = Random.State.int op_rng n in
          (* the pools partition the keys, so the first key names the
             batch *)
          intern 3 pool.(start) (fun () ->
              Service.Multi_put
                (List.init kk (fun j ->
                     let k' = pool.((start + j) mod n) in
                     (k', k' + 1))))
        end
        else if roll < c.multi_pct + c.rmw_pct then begin
          let d = 1 + Random.State.int op_rng 7 in
          intern (3 + d) k (fun () -> Service.Rmw (k, d))
        end
        else op
      end
    in
    a.a_op.(i) <- op;
    a.a_stamp.(i) <- Oracle.stamp ~client ~time:!clock
  done;
  a

(* ---- the merge loop ---- *)

module Merge = struct
  (* A group's event buffer, as int columns with [n] live rows: the
     worker-side hooks append what happened and at which virtual time;
     the main domain merges and interprets the rows at the next
     barrier. [kind] is 0 for an apply, 1 for a commit, 2 for an ack;
     [a] is the global shard of an apply or a commit and the result
     value of an ack; [b] is the slot of a commit and, for an ack, the
     result tag times 2 plus the dedup bit; [eff] is the effective
     release time. *)
  type cols = {
    mutable kind : int array;
    mutable client : int array;
    mutable seq : int array;
    mutable a : int array;
    mutable b : int array;
    mutable time : int array;
    mutable eff : int array;
    mutable n : int;
  }

  type t = {
    groups : cols array;  (* per group, filled by the hooks *)
    deferred : cols;  (* collected, released at a later barrier *)
    mutable deferred_min : int;  (* least [eff] in [deferred], or max_int *)
    ready : cols;  (* reused by every release *)
    mutable order : int array;  (* the release order of [ready]'s rows *)
    counts : int array;  (* per global shard: [history.count] *)
    digests : int array;  (* and [history.digest] *)
    shards : int;
    ack_interval : int option;
        (* group mode: the commit interval fresh acks are released at *)
  }

  type handler = {
    on_apply : client:int -> seq:int -> unit;
    on_commit : client:int -> seq:int -> shard:int -> slot:int -> unit;
    on_ack :
      client:int ->
      seq:int ->
      tag:int ->
      value:int ->
      dedup:bool ->
      time:int ->
      unit;
  }

  let cols () =
    let z () = Array.make 64 0 in
    { kind = z (); client = z (); seq = z (); a = z (); b = z ();
      time = z (); eff = z (); n = 0 }

  let add c ~kind ~client ~seq ~a ~b ~time ~eff =
    let n = c.n in
    if n = Array.length c.kind then begin
      let grow x =
        let y = Array.make (2 * n) 0 in
        Array.blit x 0 y 0 n;
        y
      in
      c.kind <- grow c.kind;
      c.client <- grow c.client;
      c.seq <- grow c.seq;
      c.a <- grow c.a;
      c.b <- grow c.b;
      c.time <- grow c.time;
      c.eff <- grow c.eff
    end;
    c.kind.(n) <- kind;
    c.client.(n) <- client;
    c.seq.(n) <- seq;
    c.a.(n) <- a;
    c.b.(n) <- b;
    c.time.(n) <- time;
    c.eff.(n) <- eff;
    c.n <- n + 1

  let create ~groups ~shards ~ack_interval =
    { groups = Array.init groups (fun _ -> cols ());
      deferred = cols ();
      deferred_min = max_int;
      ready = cols ();
      order = Array.make 64 0;
      counts = Array.make shards 0;
      digests = Array.make shards digest_seed;
      shards;
      ack_interval }

  (* The hooks: append one row to group [g]'s buffer. *)

  let apply m g (req : Service.request) ~time =
    let gs = Service.global_shard ~shards:m.shards (Service.key_of_op req.op) in
    add m.groups.(g) ~kind:0 ~client:req.client ~seq:req.seq ~a:gs ~b:0 ~time
      ~eff:time

  let commit m g (req : Service.request) ~shard ~slot ~time =
    add m.groups.(g) ~kind:1 ~client:req.client ~seq:req.seq ~a:shard ~b:slot
      ~time ~eff:time

  (* A group ack's effective release time is the commit-interval
     boundary its commit fired at, rounded up from the true ack time
     (which includes the batch's slice-dependent fence cost); per-op and
     dedup acks are worker-local and release at their true time. *)
  let ack m g (req : Service.request) res ~dedup ~time =
    let eff =
      match m.ack_interval with
      | Some i when not dedup -> ((time / i) + 1) * i
      | _ -> time
    in
    add m.groups.(g) ~kind:2 ~client:req.client ~seq:req.seq
      ~a:(Oracle.result_value res)
      ~b:((Oracle.result_tag res lsl 1) lor Bool.to_int dedup)
      ~time ~eff

  let copy src i dst =
    add dst ~kind:src.kind.(i) ~client:src.client.(i) ~seq:src.seq.(i)
      ~a:src.a.(i) ~b:src.b.(i) ~time:src.time.(i) ~eff:src.eff.(i)

  let histories m =
    Array.init m.shards (fun gs ->
        { count = m.counts.(gs); digest = m.digests.(gs) })

  (* Whether row [i] of [r] is released before row [j]: effective time,
     client, seq, then apply < commit < ack, then collection order. *)
  let before r i j =
    let c = Int.compare r.eff.(i) r.eff.(j) in
    if c <> 0 then c < 0
    else
      let c = Int.compare r.client.(i) r.client.(j) in
      if c <> 0 then c < 0
      else
        let c = Int.compare r.seq.(i) r.seq.(j) in
        if c <> 0 then c < 0
        else
          let c = Int.compare r.kind.(i) r.kind.(j) in
          if c <> 0 then c < 0 else i < j

  let swap (p : int array) i j =
    let x = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- x

  (* Sift position [i] of the max-heap [p.(0 .. n - 1)] down. *)
  let rec sift r p i n =
    let l = (2 * i) + 1 in
    if l < n then begin
      let c = if l + 1 < n && before r p.(l) p.(l + 1) then l + 1 else l in
      if before r p.(i) p.(c) then begin
        swap p i c;
        sift r p c n
      end
    end

  (* Heapsort of [p]'s first [n] row numbers by [before], a total
     order, in place. *)
  let sort r p n =
    for i = (n / 2) - 1 downto 0 do
      sift r p i n
    done;
    for e = n - 1 downto 1 do
      swap p 0 e;
      sift r p 0 e
    done

  (* Route row [i] of [src]: released by this barrier, or deferred. *)
  let route m ~all t_bar src i =
    let eff = src.eff.(i) in
    if all || eff <= t_bar then copy src i m.ready
    else begin
      copy src i m.deferred;
      if eff < m.deferred_min then m.deferred_min <- eff
    end

  (* Drain every buffered event, recording applies in the histories
     unless [audit], and hand [h] those released by barrier [t_bar] (or
     all of them, with [all]) in release order, ties kept in collection
     order: the deferred events first, then each group's buffer in
     turn; the rest stays deferred, in that order, for a later
     barrier. *)
  let release m ~audit ~all t_bar h =
    let collected =
      ref (m.deferred.n > 0 && (all || m.deferred_min <= t_bar))
    in
    for k = 0 to Array.length m.groups - 1 do
      if m.groups.(k).n > 0 then collected := true
    done;
    if !collected then begin
      (* the kept rows move down in place: row [i] goes to a row at
         most [i] *)
      let d = m.deferred in
      let kept = d.n in
      d.n <- 0;
      m.deferred_min <- max_int;
      for i = 0 to kept - 1 do
        route m ~all t_bar d i
      done;
      for k = 0 to Array.length m.groups - 1 do
        let g = m.groups.(k) in
        for i = 0 to g.n - 1 do
          if g.kind.(i) = 0 && not audit then begin
            let gs = g.a.(i) in
            m.counts.(gs) <- m.counts.(gs) + 1;
            m.digests.(gs) <-
              digest_step m.digests.(gs) ~client:g.client.(i) ~seq:g.seq.(i)
          end;
          route m ~all t_bar g i
        done;
        g.n <- 0
      done;
      let r = m.ready in
      let n = r.n in
      if Array.length m.order < n then
        m.order <- Array.make (max n (2 * Array.length m.order)) 0;
      let p = m.order in
      for i = 0 to n - 1 do
        p.(i) <- i
      done;
      sort r p n;
      r.n <- 0;
      for k = 0 to n - 1 do
        let i = p.(k) in
        let client = r.client.(i) and seq = r.seq.(i) in
        match r.kind.(i) with
        | 0 -> h.on_apply ~client ~seq
        | 1 -> h.on_commit ~client ~seq ~shard:r.a.(i) ~slot:r.b.(i)
        | _ ->
          let b = r.b.(i) in
          h.on_ack ~client ~seq ~tag:(b lsr 1) ~value:r.a.(i)
            ~dedup:(b land 1 = 1) ~time:r.time.(i)
      done
    end
end

(* ---- the barrier driver ---- *)

type cluster = {
  machines : Machine.t array;  (* one per shard group *)
  pool : Nvt_sim.Domain_pool.t;
  results : [ `Barrier | `Completed | `Crashed_at of int ] array;
  epoch : int;
  watchdog : int;
  mutable vtime : int;  (* the last barrier *)
}

let total_steps cl =
  Array.fold_left (fun n m -> n + Machine.steps m) 0 cl.machines

let crash_all cl =
  Array.iter (fun m -> ignore (Machine.force_crash m)) cl.machines

(* The one barrier loop, shared by eras, recovery passes and the audit:
   advance every machine to the next barrier, then stop with [`Crash]
   once the steps taken since the call reach [threshold]; otherwise
   call [at_barrier] and stop with [`Completed] once every machine ran
   out of threads, or [`Stalled] once the steps reach the watchdog —
   armed whether or not there is a threshold, so a phase that deadlocks
   before its crash fires still surfaces as a stall. *)
let drive cl ~threshold ~at_barrier =
  let base = total_steps cl in
  let advance g =
    cl.results.(g) <- Machine.advance_to cl.machines.(g) ~time:cl.vtime
  in
  let rec loop () =
    cl.vtime <- cl.vtime + cl.epoch;
    Nvt_sim.Domain_pool.run cl.pool advance;
    let steps = total_steps cl - base in
    match threshold with
    | Some s when steps >= s -> `Crash
    | _ ->
      at_barrier cl.vtime;
      let completed = ref true in
      for g = 0 to Array.length cl.results - 1 do
        if cl.results.(g) <> `Completed then completed := false
      done;
      if !completed then `Completed
      else if steps >= cl.watchdog then `Stalled
      else loop ()
  in
  loop ()

(* Per global shard, the slices' durable state. *)
let durable_view ~shards services =
  let view =
    Array.make shards
      { Service.dv_base = 0; dv_pairs = []; dv_covered = []; dv_log = [] }
  in
  Array.iter
    (fun svc ->
      Array.iteri
        (fun li d -> view.(Service.global_of_local svc li) <- d)
        (Service.durable_state svc))
    services;
  view

let resolve (c : config) =
  let structure =
    match List.assoc_opt c.structure I.structures with
    | Some s -> s
    | None -> invalid_arg (Printf.sprintf "service: unknown structure %S" c.structure)
  in
  let flavour =
    match I.flavour c.flavour with
    | Some f -> f
    | None -> invalid_arg (Printf.sprintf "service: unknown policy %S" c.flavour)
  in
  if not (I.supports flavour c.structure) then
    invalid_arg
      (Printf.sprintf "service: policy %S does not support structure %S"
         c.flavour c.structure);
  (* resolve the flavour's structure variant (SOFT's rewritten list, the
     detectable wrapper) before the slices instantiate stores *)
  (I.structure_for flavour c.structure structure, flavour)

(* The number of machines a run uses: [domains] clamped to the shard
   count, and at least one. *)
let effective_domains c = max 1 (min c.domains c.shards)

let run_with ~on_machine (c : config) : report =
  let structure, flavour = resolve c in
  let domains = effective_domains c in
  let epoch = max 1 c.merge_epoch in
  (* The group commit interval and the checkpoint interval, rounded up
     to whole epochs: commit and checkpoint boundaries fall on barriers,
     so a group ack's release time and a checkpoint's cost land the same
     way for every domain count. *)
  let whole_epochs i = (i + epoch - 1) / epoch * epoch in
  let commit_interval =
    match c.mode with
    | Service.Group { timeout } -> whole_epochs (max 1 timeout)
    | Service.Per_op -> epoch
  in
  let checkpoint =
    if c.checkpoint_interval <= 0 then 0 else whole_epochs c.checkpoint_interval
  in
  (* Each machine gets its own optimizer context with the plan
     pre-installed: machines run on worker domains, and sharing one
     context across domains would race its counters. *)
  let machines =
    Array.init domains (fun g ->
        Machine.create ~seed:(c.seed + (1031 * g)) ~cost:c.cost
          ~eviction:c.eviction
          ~optimizer:(Nvt_nvm.Optimizer.of_plan c.plan) ())
  in
  Array.iter on_machine machines;
  (* Building a slice allocates its ledger cells on the calling
     domain's current machine; group g's slice must live on machine g. *)
  let services =
    Array.init domains (fun g ->
        Machine.set_current machines.(g);
        Service.create ~slice:(g, domains) ~commit_interval ~checkpoint
          ~detect:c.detect ~structure ~flavour ~shards:c.shards ~mode:c.mode ())
  in
  let prefill =
    List.filter (fun k -> k < c.key_range)
      (Workload.prefill_keys ~range:c.key_range)
  in
  Array.iteri
    (fun g svc ->
      Machine.set_current machines.(g);
      Service.prefill svc prefill;
      Machine.persist_all machines.(g))
    services;
  let arrivals = schedule c in
  let oracle =
    Oracle.create ~clients:c.clients ~crashes:(c.crash_steps <> []) arrivals
  in

  (* ---- client sessions: one outstanding request, a backlog behind it ---- *)
  let group_of_key k = Service.global_shard ~shards:c.shards k mod domains in
  let submit_route (r : Service.request) =
    Service.submit services.(group_of_key (Service.key_of_op r.op)) r
  in
  (* each client's outstanding request, or [idle] *)
  let idle = { Service.client = -1; seq = -1; op = Service.Get 0 } in
  let issued = Array.make c.clients idle in
  (* each client's released but not yet issued arrival numbers *)
  let backlog : int Queue.t array =
    Array.init c.clients (fun _ -> Queue.create ())
  in
  let issue i =
    let r = Oracle.request oracle i in
    issued.(r.client) <- r;
    submit_route r
  in
  let cursor = ref 0 in
  let release_arrivals t_bar =
    while
      !cursor < c.requests && Oracle.time_of arrivals.a_stamp.(!cursor) <= t_bar
    do
      let i = !cursor in
      incr cursor;
      let client = Oracle.client_of arrivals.a_stamp.(i) in
      if issued.(client) != idle then Queue.push i backlog.(client)
      else issue i
    done
  in

  (* ---- event merging ---- *)
  let merge =
    Merge.create ~groups:domains ~shards:c.shards
      ~ack_interval:
        (match c.mode with
        | Service.Group _ -> Some commit_interval
        | Service.Per_op -> None)
  in
  Array.iteri
    (fun g svc ->
      let mg = machines.(g) in
      Service.set_on_apply svc (fun req _res ->
          Merge.apply merge g req ~time:(Machine.now mg));
      Service.set_on_commit svc (fun req ~shard ~slot ->
          Merge.commit merge g req
            ~shard:(Service.global_of_local svc shard)
            ~slot ~time:(Machine.now mg));
      Service.set_on_ack svc (fun req res ~dedup ->
          Merge.ack merge g req res ~dedup ~time:(Machine.now mg)))
    services;
  let handler =
    { Merge.on_apply =
        (fun ~client ~seq -> Oracle.note_apply oracle ~client ~seq);
      on_commit =
        (fun ~client ~seq ~shard ~slot ->
          Oracle.note_commit oracle ~client ~seq ~shard ~slot);
      on_ack =
        (fun ~client ~seq ~tag ~value ~dedup ~time ->
          if Oracle.note_ack oracle ~client ~seq ~tag ~value ~dedup ~time
          then begin
            issued.(client) <- idle;
            let q = backlog.(client) in
            if not (Queue.is_empty q) then issue (Queue.pop q)
          end) }
  in
  let process_ready ~all t_bar =
    Merge.release merge ~audit:(Oracle.auditing oracle) ~all t_bar handler
  in

  (* ---- eras and recovery ---- *)
  let before = Array.map (fun m -> Stats.copy (Machine.stats m)) machines in
  let pool = Nvt_sim.Domain_pool.create domains in
  Fun.protect ~finally:(fun () -> Nvt_sim.Domain_pool.shutdown pool)
  @@ fun () ->
  let cl =
    { machines; pool; results = Array.make domains `Barrier; epoch;
      watchdog = c.watchdog; vtime = 0 }
  in
  let resent = ref 0 and fired = ref 0 and eras = ref 0 in
  let rc_left = ref c.recovery_crashes and rc_fired = ref 0 in
  let recovery_steps = ref 0 and recovery_time = ref 0 in
  (* Parallel recovery: each shard's pass runs as a simulated thread on
     its slice's machine — recovery consumes virtual time (the
     availability gap the recovery experiment measures) and shards
     recover concurrently. A pending [recovery_crashes] threshold fires
     a crash *during* recovery, after which recovery restarts from the
     durable state (it is read-only plus volatile resets, so restarting
     is always safe). *)
  let rec recover () =
    Array.iteri
      (fun g svc ->
        Machine.set_current machines.(g);
        Service.spawn_recovery svc machines.(g))
      services;
    let base_steps = total_steps cl and base_vtime = cl.vtime in
    let threshold = match !rc_left with s :: _ -> Some s | [] -> None in
    let outcome = drive cl ~threshold ~at_barrier:ignore in
    recovery_steps := !recovery_steps + (total_steps cl - base_steps);
    recovery_time := !recovery_time + (cl.vtime - base_vtime);
    match outcome with
    | `Crash ->
      rc_left := List.tl !rc_left;
      incr rc_fired;
      crash_all cl;
      recover ()
    | `Completed -> ()
    | `Stalled -> Oracle.stall oracle ~in_recovery:true ~watchdog:c.watchdog
  in
  let status ~client ~seq op =
    let svc = services.(group_of_key (Service.key_of_op op)) in
    fst (Service.op_status svc ~client ~seq)
  in
  (* One era (or the audit): start the services, re-send outstanding
     requests, then drive the machines until they complete, the era's
     crash threshold fires, or the watchdog trips. *)
  let era threshold =
    Array.iteri (fun g svc -> Service.start svc machines.(g)) services;
    Array.iter
      (fun r ->
        if r != idle then begin
          incr resent;
          submit_route r
        end)
      issued;
    let at_barrier t_bar =
      process_ready ~all:false t_bar;
      release_arrivals t_bar;
      if Oracle.settled oracle then Array.iter Service.request_stop services
    in
    match drive cl ~threshold ~at_barrier with
    | `Crash ->
      (* Everything collected is durably done; processing it now keeps
         already-acknowledged requests out of the re-send. *)
      process_ready ~all:true cl.vtime;
      crash_all cl;
      incr fired;
      recover ();
      if not (Oracle.stalled oracle) then
        Oracle.check_recovered oracle
          (durable_view ~shards:c.shards services)
          ~status:(if c.detect then Some status else None)
    | `Completed ->
      (* quiescent: sweep any acks still deferred past this barrier *)
      process_ready ~all:true cl.vtime
    | `Stalled ->
      Oracle.stall oracle ~in_recovery:false ~watchdog:c.watchdog;
      crash_all cl
  in
  let live () =
    Oracle.acked oracle < c.requests && not (Oracle.stalled oracle)
  in
  List.iter
    (fun s ->
      if live () then begin
        incr eras;
        era (Some s)
      end)
    c.crash_steps;
  if live () then begin
    incr eras;
    era None
  end;
  let steps = total_steps cl in
  let makespan =
    Array.fold_left (fun n m -> max n (Machine.makespan m)) 0 machines
  in
  let stats = Stats.zero () in
  Array.iteri
    (fun g m ->
      Stats.accumulate ~into:stats
        (Stats.diff ~after:(Machine.stats m) ~before:before.(g)))
    machines;

  (* ---- final state, then the audit pass ---- *)
  if not (Oracle.stalled oracle) then begin
    let invariant =
      match Array.iter Service.check_invariants services with
      | () -> None
      | exception Failure msg -> Some msg
    in
    let durable = durable_view ~shards:c.shards services in
    Oracle.check_final oracle ~invariant ~crash_free:(!fired = 0) ~prefill
      ~durable
      ~contents:(Array.to_list services |> List.concat_map Service.contents)
  end;
  (if (not (Oracle.stalled oracle)) && Oracle.acked oracle = c.requests then
     match Oracle.start_audit oracle with
     | [] -> ()
     | resend ->
       List.iter submit_route resend;
       era None);

  let sum f = Array.fold_left (fun n svc -> n + f svc) 0 services in
  let count f = Array.fold_left (fun n op -> n + f op) 0 arrivals.a_op in
  { config = c;
    acked = Oracle.acked oracle;
    applies = Oracle.applies oracle;
    resent = !resent;
    multi_puts = count (function Service.Multi_put _ -> 1 | _ -> 0);
    multi_keys =
      count (function Service.Multi_put kvs -> List.length kvs | _ -> 0);
    rmws = count (function Service.Rmw _ -> 1 | _ -> 0);
    dedup_acks = Oracle.dedup_acks oracle;
    audit_acks = Oracle.audit_acks oracle;
    crashes_requested = List.length c.crash_steps;
    crashes_fired = !fired;
    recovery_crashes_requested = List.length c.recovery_crashes;
    recovery_crashes_fired = !rc_fired;
    checkpoints = sum Service.checkpoints_taken;
    truncated = sum Service.truncated_slots;
    replayed = sum Service.replayed_slots;
    recovery_steps = !recovery_steps;
    recovery_time = !recovery_time;
    eras = !eras;
    makespan;
    steps;
    committed = sum Service.committed_total;
    latency = summarize ~len:(Oracle.acked oracle) (Oracle.latencies oracle);
    stats;
    violations = Oracle.violations oracle;
    histories = Merge.histories merge }

let run c = run_with ~on_machine:ignore c

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let fences_per_op r =
  if r.acked = 0 then 0.0
  else float_of_int r.stats.Stats.fences /. float_of_int r.acked

let flushes_per_op r =
  if r.acked = 0 then 0.0
  else float_of_int r.stats.Stats.flushes /. float_of_int r.acked

let pp_report ppf r =
  let c = r.config in
  Format.fprintf ppf
    "@[<v>service %s/%s shards=%d domains=%d clients=%d mode=%s%s dist=%s\n"
    c.structure c.flavour c.shards (effective_domains c) c.clients
    (Service.mode_name c.mode)
    (if c.detect then "+detect" else "")
    (if c.skew <= 0.0 then "uniform" else Printf.sprintf "zipf(%.2f)" c.skew);
  Format.fprintf ppf
    "  acked %d/%d  applies %d  resent %d  dedup %d  audit %d@,"
    r.acked c.requests r.applies r.resent r.dedup_acks r.audit_acks;
  if r.multi_puts > 0 || r.rmws > 0 then
    Format.fprintf ppf "  mixed ops: %d multi-put(%g keys)  %d rmw@,"
      r.multi_puts
      (float_of_int r.multi_keys /. float_of_int (max 1 r.multi_puts))
      r.rmws;
  Format.fprintf ppf "  crashes %d/%d  eras %d  steps %d  makespan %d@,"
    r.crashes_fired r.crashes_requested r.eras r.steps r.makespan;
  if c.checkpoint_interval > 0 || r.recovery_crashes_requested > 0 then
    Format.fprintf ppf
      "  checkpoints %d  truncated %d  recovery crashes %d/%d@,"
      r.checkpoints r.truncated r.recovery_crashes_fired
      r.recovery_crashes_requested;
  if r.crashes_fired > 0 || r.recovery_crashes_fired > 0 then
    Format.fprintf ppf
      "  recovery: replayed %d entries in %d steps (%d time units)@,"
      r.replayed r.recovery_steps r.recovery_time;
  Format.fprintf ppf
    "  latency p50 %d  p95 %d  p99 %d  max %d  mean %.1f@,"
    r.latency.p50 r.latency.p95 r.latency.p99 r.latency.lmax r.latency.mean;
  Format.fprintf ppf "  fences/op %.3f  flushes/op %.3f  committed %d@,"
    (fences_per_op r) (flushes_per_op r) r.committed;
  Format.fprintf ppf "  %a@," Stats.pp r.stats;
  Format.fprintf ppf "  sites:@,    %a@," Stats.pp_sites r.stats;
  (match r.violations with
  | [] -> Format.fprintf ppf "  exactly-once: OK@,"
  | vs ->
    Format.fprintf ppf "  VIOLATIONS (%d):@," (List.length vs);
    List.iter (fun v -> Format.fprintf ppf "    %s@," v) vs);
  Format.fprintf ppf "@]"
