(* A simulated multiprocessor with non-volatile main memory.

   Threads are cooperative fibers (effect handlers) preempted at every
   shared-memory access; the scheduler always resumes the runnable thread
   with the least accumulated virtual time (ties to the lowest tid), so
   execution is a faithful discrete-event simulation of parallel threads
   under the cost model. The runnable threads live in a winner tree
   ({!Sched_heap}) keyed on (vtime, tid): this scheduler runs at every
   shared-memory step of every benchmark panel, so its cost is the floor
   on simulation speed — see the benchmark suite's [machine.steps_per_s]
   (bench/suite). The thread that runs stays in the tree, and a single
   tree call after its step re-keys it and names the next root. That
   call is made where the step ends, in [yield]: when the thread is
   still the root, it runs on into its next step without leaving its
   fiber. Only a change of root switches fibers, and then the yielding
   fiber's handler dispatches the next step itself ([dispatch]): it
   resumes the next thread's fiber in tail position, so the CPU passes
   straight from one fiber to the next with no return to a step loop.
   One effect handler serves every fiber of a machine: it finds the
   stepping thread by the machine's [running] tid, and a thread that
   switches out parks its continuation in its own record, so a switch
   touches only the handler, the thread record and the fiber, and
   allocates nothing beyond the continuation the runtime makes.

   Every shared mutable word is a [cell] holding both a volatile value
   (what reads and writes touch) and a persistent value (what survives a
   crash). [flush] initiates a write-back of the current volatile value;
   the write-back completes at the thread's next [fence]. Write-backs of
   the same cell serialize as cache coherence serializes them on real
   hardware: each carries a sequence number drawn at flush time from
   the machine's one counter, and completing one is a no-op if a newer
   write-back of that cell has already persisted. Independently, an
   eviction adversary may persist the current value of any dirty cell
   at any scheduling step, modelling uncontrolled cache evictions. A
   cell is a 7-word block (6 fields and a header), since cells are most
   of what a large structure allocates.

   On a crash, each pending (flushed but not yet fenced) write-back
   completes with probability 1/2, everything else volatile is lost, and
   a cell whose content was never persisted becomes *corrupt*: reading it
   afterwards raises. This is the mechanism by which missing flushes in a
   supposedly durable algorithm are detected.

   A step allocates nothing but the continuation made at a fiber switch,
   and a run-on step makes none (see DESIGN.md §3): no boxed values,
   coins or pending write-backs, and no scratch outside a machine or
   thread, which domains never share. *)

module Stats = Nvt_nvm.Stats
module Cost_model = Nvt_nvm.Cost_model

exception Corrupt_read = Nvt_nvm.Memory.Corrupt_read
(** Raised when reading a cell whose contents were lost in a crash.
    Rebinds {!Nvt_nvm.Memory.Corrupt_read} so recovery code written
    against the backend-agnostic interface catches the same exception. *)

exception Crashed
(* Used internally to tear down fibers at a crash. *)

type eviction =
  | No_eviction  (** only explicit flush+fence persists anything *)
  | Random_eviction of float
      (** at each step, with this probability, one random dirty cell is
          persisted behind the program's back *)

(* One shared word: 6 fields, 7 words with the header.

   [meta] is the line state in one int: bit 0 says the content was lost
   in a crash (corrupt), bit 1 that the line was flushed or evicted out
   of the cache (invalid: the next read misses), and the bits above
   hold the last writer's tid + 1, 0 when the line is shared. A valid
   line the running thread wrote last reads [owned tid], a shared one 0,
   so the read path tells a hit from a corrupt, invalid or foreign line
   by comparing one word with those two.

   [pst_seq] is the sequence of the write-back that persisted [pst].
   Sequences are drawn from the machine's counter ([next_wb_seq]) as
   one more than both the counter and the cell's own [pst_seq], so the
   write-backs of one cell carry increasing sequences in issue order,
   and only write-backs of the same cell are ever compared. Every
   stale-write-back decision is then the one a per-cell counter makes.
   The [pst_seq] term covers a cell persisted under one machine and
   written back under another (a structure built on one machine, run
   on the next): its next write-back still outranks the persisted one.
   No write-back of such a cell can still be pending from the first
   machine. A pending write-back sits in a thread of its machine's
   current era, and only that thread's fence or that machine's crash
   completes it. Two machines touch the same cells only one after the
   other: a driver that runs several at once (the service runner, the
   interleaved tests) gives each its own cells. *)
type 'a cell = {
  mutable vol : 'a;
  mutable meta : int;
  mutable pst : 'a;  (* the persisted value, if [pst_seq > 0] *)
  mutable pst_seq : int;  (* 0: never persisted *)
  mutable dirty_ix : int;  (* slot in the machine's dirty set; -1 if clean *)
  cid : int;
}

type any_cell = Any_cell : 'a cell -> any_cell [@@unboxed]

let corrupt_bit = 1
let invalid_bit = 2

(* The [meta] of a valid line [tid] wrote last; setup mode's -1 gives
   0, shared. *)
let owned tid = (tid + 1) lsl 2

let dummy_cell =
  { vol = (); meta = 0; pst = (); pst_seq = 0; dirty_ix = -1; cid = -1 }

(* The dirty table: an intrusive swap-remove array over type-erased
   cells, giving O(1) closure-free [mark_dirty] and O(1) random victim
   choice for the eviction adversary (the old Hashtbl table allocated
   two closures per marking and walked its buckets per eviction). *)
module Dirty = Dirty_set.Make (struct
  type elt = any_cell

  let index (Any_cell c) = c.dirty_ix
  let set_index (Any_cell c) i = c.dirty_ix <- i
  let dummy = Any_cell dummy_cell
end)

type pending = {
  mutable p_cell : any_cell;
  mutable p_val : Obj.t;
  mutable p_seq : int;
}
(* One flushed-but-unfenced write-back: the cell, the value captured at
   flush time, and the write-back sequence drawn when the flush was
   issued. Write-backs of one line serialize through cache
   coherence, so completing an *older* write-back after a newer one has
   already persisted must be a no-op — without the sequence check, a
   thread that stalls between flush and fence could overwrite another
   thread's newer flushed-and-fenced value with its stale snapshot
   (observed as lost acknowledged inserts under the stall adversary).
   Slots are reused, so the value is type-erased; it is only ever
   written back into [p_cell], whose type it has. *)

(* A thread keeps its [Ready]/[Suspended]/[Waiting] state while it
   runs; the machine's [running] tid, not the state, says which thread
   is mid-step. A [Suspended] or [Waiting] thread's continuation is in
   its record's [k]. A [Waiting] thread is suspended in [sleep ~until]:
   its dispatch re-arms its quantum without resuming it until the
   predicate holds. *)
type thread_state =
  | Ready of (unit -> unit)
  | Suspended
  | Waiting of int * (unit -> bool)
  | Finished
  | Failed of exn * Printexc.raw_backtrace

type thread = {
  tid : int;
  mutable vtime : int;
  mutable state : thread_state;
  mutable k : (unit, unit) Effect.Deep.continuation;
      (* where the fiber switched out; [never_resumed] before its first
         switch, and the spent one once it has been resumed *)
  mutable pending : pending array;
      (* reusable FIFO of write-backs awaiting fence; the first
         [pending_count] slots are live *)
  mutable pending_count : int;
}

(* The [k] of a thread that has not switched out yet, captured once
   when the module loads. Nothing resumes it: [dispatch] resumes [k]
   only from [Suspended] or [Waiting], and a switch-out sets [k]
   before either. *)
type _ Effect.t += Never_resumed : unit Effect.t

let never_resumed : (unit, unit) Effect.Deep.continuation =
  let captured : (unit, unit) Effect.Deep.continuation option ref =
    ref None
  in
  Effect.Deep.match_with Effect.perform Never_resumed
    { Effect.Deep.retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Never_resumed -> Some (fun k -> captured := Some k)
          | _ -> None) };
  Option.get !captured

let dummy_thread =
  { tid = -1; vtime = 0; state = Finished; k = never_resumed; pending = [||];
    pending_count = 0 }

let push_pending th c v seq =
  let n = Array.length th.pending in
  if th.pending_count >= n then
    th.pending <-
      Array.init (max 8 (2 * n)) (fun i ->
          if i < n then th.pending.(i)
          else { p_cell = Any_cell dummy_cell; p_val = Obj.repr 0; p_seq = 0 });
  let p = th.pending.(th.pending_count) in
  p.p_cell <- Any_cell c;
  p.p_val <- Obj.repr v;
  p.p_seq <- seq;
  th.pending_count <- th.pending_count + 1

type outcome = Completed | Crashed_at of int

(* A bounded event trace: when enabled, the machine records one event
   per write/flush/fence/eviction/crash into a ring buffer, so tests and
   [nvtsim --trace] can inspect *which* instructions ran around a point
   of interest without paying for an unbounded log. Flush and fence
   events carry the attribution site consumed by the counter. *)
type event =
  | Ev_write of { step : int; tid : int; cid : int }
  | Ev_flush of { step : int; tid : int; cid : int; site : string }
  | Ev_fence of { step : int; tid : int; site : string }
  | Ev_evict of { step : int; cid : int }
  | Ev_crash of { step : int; time : int }

type tracer = {
  ring : event option array;
  mutable total : int;  (* events ever recorded; ring keeps the tail *)
}

type stall = {
  probability : float;  (* per scheduling step *)
  max_units : int;  (* stall duration drawn uniformly from [1, max] *)
}
(* Models OS preemption / SMT interference: a thread can lose the CPU
   for a long stretch at any instruction boundary. Lock-free algorithms
   must tolerate this, and several durability windows (e.g. building on
   a not-yet-fenced link) only open when one thread stalls between its
   CAS and its fence. *)

type t = {
  rng : Random.State.t;
  cost : Cost_model.t;
  eviction : eviction;
  stall : stall option;
  jitter : int;  (* 0..jitter extra units per op, to break lockstep ties *)
  mutable threads : thread list;  (* this era's threads, newest first *)
  mutable by_tid : thread array;  (* tid -> thread, across all eras *)
  heap : Sched_heap.t;  (* exactly the runnable threads, keyed (vtime, tid) *)
  dirty : Dirty.t;
  mutable live_cells : int;  (* allocs minus retires: the working set *)
  mutable wb_seq : int;  (* the sequence the latest write-back drew *)
  mutable next_tid : int;
  mutable next_cid : int;
  mutable steps : int;
  mutable quanta_settled : int;  (* steps [settle_idle] counted *)
  mutable switches : int;  (* steps that resumed a fiber *)
  mutable clock : int;  (* virtual time of the last scheduled action *)
  mutable settled : int;
      (* the latest idle quantum settled in place (see [settle_idle]);
         folded into [clock] at a barrier or completion (a crash
         trigger keeps the machine from settling any) *)
  mutable running : int;
      (* tid of the fiber that is mid-step, -1 when none ("setup
         mode"); an immediate int, so setting it at every step needs no
         write barrier *)
  mutable horizon : int;
      (* the [time] of the advance in progress, which lets a step run on
         ([yield]); [min_int] while [crash] tears fibers down. Read only
         while a fiber runs, which is inside [advance_to] or [crash]. *)
  mutable handed : int;
      (* the root a [yield] computed before it switched out, for its
         handler to dispatch without re-keying again; -1 when the
         handler must re-key the stepped thread itself *)
  mutable stop : [ `Barrier | `Completed | `Crashed_at of int ];
      (* why the last chain of dispatches ended, for [advance_to] *)
  mutable crash_at_time : int option;
  mutable crash_at_step : int option;
  mutable scheduler : (t -> int list -> int) option;
      (* override: given the runnable tids (ascending), choose the next
         thread; used by the systematic explorer. Default: least virtual
         time. *)
  stats : Stats.t;
  suppress : Nvt_nvm.Suppress.t;
      (* the machine's suppression context, installed alongside the
         machine by [set_current] so two machines on two domains (or
         interleaved on one) never share counters or suppression state *)
  optimizer : Nvt_nvm.Optimizer.t;
      (* same story for the optimizer: the plan and its savings
         counters belong to the machine, not the domain *)
  mutable tracer : tracer option;
  mutable on_step : (int -> int -> unit) option;
      (* called with (step, tid) at every executed scheduling step; the
         determinism tests use it to record the exact schedule. *)
  mutable handler : (unit, unit) Effect.Deep.handler;
      (* the one handler every fiber of the machine runs under, built
         by [create] *)
}

type _ Effect.t +=
  | Yield : unit Effect.t
  | Wait : int * (unit -> bool) -> unit Effect.t

(* The current machine is domain-local: each domain routes its memory
   operations to its own machine, which is what lets the service runner
   advance one machine per domain in parallel. The slot also holds the
   domain's pending-tag cell, so a counted CAS, flush or fence finds its
   machine and its site with one lookup. *)
type current = { mutable machine : t option; pending : Stats.pending }

let current_machine : current Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { machine = None; pending = Stats.pending () })

let set_current m =
  (Domain.DLS.get current_machine).machine <- Some m;
  Nvt_nvm.Suppress.use m.suppress;
  Nvt_nvm.Optimizer.use m.optimizer

let machine_of cur =
  match cur.machine with
  | Some m -> m
  | None -> failwith "Sim: no current machine"

let get () = machine_of (Domain.DLS.get current_machine)

let suppress m = m.suppress
let optimizer m = m.optimizer

let clock m = m.clock
let steps m = m.steps
let visits m = m.steps - m.quanta_settled
let switches m = m.switches
let stats m = m.stats
let makespan m = m.clock

let current_tid m = m.running

let now m = if m.running < 0 then m.clock else m.by_tid.(m.running).vtime

let set_trace m ~capacity =
  m.tracer <- Some { ring = Array.make (max 1 capacity) None; total = 0 }

(* Callers test [tracing] before building the event, so an untraced
   run allocates no events and never resolves a site id to its name. *)
let tracing m = m.tracer != None

let record_event m e =
  match m.tracer with
  | None -> ()
  | Some tr ->
    tr.ring.(tr.total mod Array.length tr.ring) <- Some e;
    tr.total <- tr.total + 1

let trace m =
  match m.tracer with
  | None -> []
  | Some tr ->
    let cap = Array.length tr.ring in
    let n = min tr.total cap in
    List.filter_map
      (fun i -> tr.ring.((tr.total - n + i) mod cap))
      (List.init n Fun.id)

let trace_dropped m =
  match m.tracer with
  | None -> 0
  | Some tr -> max 0 (tr.total - Array.length tr.ring)

let pp_event ppf = function
  | Ev_write { step; tid; cid } ->
    Fmt.pf ppf "step %-6d t%d write  cell %d" step tid cid
  | Ev_flush { step; tid; cid; site } ->
    Fmt.pf ppf "step %-6d t%d flush  cell %d [%s]" step tid cid site
  | Ev_fence { step; tid; site } ->
    Fmt.pf ppf "step %-6d t%d fence  [%s]" step tid site
  | Ev_evict { step; cid } ->
    Fmt.pf ppf "step %-6d    evict  cell %d" step cid
  | Ev_crash { step; time } ->
    Fmt.pf ppf "step %-6d    CRASH  at time %d" step time

let set_schedule_hook m f = m.on_step <- f

let set_crash_at_time m t = m.crash_at_time <- Some t
let set_crash_at_step m n = m.crash_at_step <- Some n

let clear_crash m =
  m.crash_at_time <- None;
  m.crash_at_step <- None

(* ------------------------------------------------------------------ *)
(* Memory primitives                                                   *)
(* ------------------------------------------------------------------ *)

let charge m c =
  if m.running >= 0 then begin
    let th = m.by_tid.(m.running) in
    let j = if m.jitter > 0 then Random.State.int m.rng (m.jitter + 1) else 0 in
    th.vtime <- th.vtime + c + j
  end

let cell_is_clean c = c.pst_seq > 0 && c.pst == c.vol

(* [Random.State.float rng 1.0 < p] without boxing the float: the same
   53-bit draw and retry on zero, so the same decision and rng state.
   [Random.State.bits64] inlines to the unboxed primitive. *)
let rec coin rng p =
  let n = Int64.shift_right_logical (Random.State.bits64 rng) 11 in
  if n <> 0L then Int64.to_float n *. 0x1.p-53 < p else coin rng p

let set_pst m c v seq =
  c.pst_seq <- seq;
  c.pst <- v;
  if c.dirty_ix >= 0 && cell_is_clean c then Dirty.remove m.dirty (Any_cell c)

(* The sequence of a write-back of [c] issued now: above every
   sequence this machine drew and above the one [c] persisted with
   (see [cell]). *)
let next_wb_seq m c =
  let s = 1 + Int.max m.wb_seq c.pst_seq in
  m.wb_seq <- s;
  s

(* Direct persistence of the current value (setup flushes, [persist_all],
   eviction): initiate and complete a write-back in one step, so it is
   by construction the newest for its cell. *)
let persist_value m c v = set_pst m c v (next_wb_seq m c)

let maybe_evict m =
  match m.eviction with
  | No_eviction -> ()
  | Random_eviction p ->
    if coin m.rng p then begin
      let n = Dirty.size m.dirty in
      if n > 0 then begin
        let (Any_cell c) = Dirty.get m.dirty (Random.State.int m.rng n) in
        if tracing m then
          record_event m (Ev_evict { step = m.steps; cid = c.cid });
        persist_value m c c.vol;
        (* an eviction removes the line from the cache, so the next
           read must miss — exactly like the clwb-style flush paths,
           and gated on the same cost-model switch so the free/uniform
           profiles (which model no cache at all) are unaffected *)
        if m.cost.flush_invalidates then c.meta <- c.meta lor invalid_bit
      end
    end

let crash_due m th =
  (match m.crash_at_step with Some n -> m.steps >= n | None -> false)
  || match m.crash_at_time with Some t -> th.vtime >= t | None -> false

(* The step prologue, the one definition [dispatch] and a run-on
   [yield] share: count the step, report it to the hook, advance the
   clock to the thread's time, then draw the eviction coin, before the
   jitter the step's own charges draw. *)
let begin_step m th =
  m.steps <- m.steps + 1;
  (match m.on_step with Some f -> f m.steps th.tid | None -> ());
  if th.vtime > m.clock then m.clock <- th.vtime;
  maybe_evict m

(* The end of the running thread [tid]'s step. It re-keys the thread —
   the tree call [dispatch] would make next — and when the thread is
   still the root, below the advance's horizon and not due to crash, it
   runs on: the next step's prologue runs here and the fiber carries on
   without a switch. Otherwise the root goes to the fiber's handler in
   [handed] and the fiber switches out, so a barrier or a crash is met
   in [dispatch] as before. A scheduler override or a stall adversary
   decides each step in [dispatch], so under either the fiber switches
   at every step. *)
let end_step m tid =
  if m.horizon = min_int || Option.is_some m.scheduler
     || Option.is_some m.stall
  then Effect.perform Yield
  else begin
    let th = m.by_tid.(tid) in
    let next =
      Sched_heap.reschedule m.heap ~tid ~vtime:th.vtime ~runnable:true
    in
    if next = tid && th.vtime < m.horizon && not (crash_due m th) then
      begin_step m th
    else begin
      m.handed <- next;
      Effect.perform Yield
    end
  end

(* Small enough to inline, so a setup-mode access pays one test. *)
let yield m =
  let tid = m.running in
  if tid >= 0 then end_step m tid

(* Complete a pending slot's write-back if [persist] — unless a newer
   write-back of the same cell already persisted, in which case the
   stale one is dropped (same-line write-backs serialize; see
   [pending]) — and clear the slot so it does not retain a dead cell. *)
let settle_pending m p ~persist =
  let (Any_cell c) = p.p_cell in
  if persist && p.p_seq > c.pst_seq then set_pst m c (Obj.obj p.p_val) p.p_seq;
  p.p_cell <- Any_cell dummy_cell;
  p.p_val <- Obj.repr 0

(* Lose the volatile line: shared, valid, and corrupt unless it was
   ever persisted. *)
let wipe_cell c =
  if c.pst_seq > 0 then begin
    c.vol <- c.pst;
    c.meta <- c.meta land corrupt_bit
  end
  else c.meta <- corrupt_bit

let mark_dirty m c =
  if c.dirty_ix < 0 && not (cell_is_clean c) then Dirty.add m.dirty (Any_cell c)

let alloc v =
  let m = get () in
  let cid = m.next_cid in
  m.next_cid <- cid + 1;
  m.live_cells <- m.live_cells + 1;
  let c =
    { vol = v; meta = owned (current_tid m); pst = v; pst_seq = 0;
      dirty_ix = -1; cid }
  in
  mark_dirty m c;
  m.stats.allocs <- m.stats.allocs + 1;
  charge m m.cost.alloc;
  yield m;
  c

(* The working-set model counts a cell as live until [retire] is told
   otherwise; the service ledger and checkpoint report frees through
   {!Nvt_nvm.Memory.reclaimed}. Without this, freed cells would
   inflate the miss probability forever. *)
let retire m n = if n > 0 then m.live_cells <- Int.max 0 (m.live_cells - n)

let live_cells m = m.live_cells

let check_corrupt c =
  if c.meta land corrupt_bit <> 0 then begin
    (* An instrumentation layer may have tagged this access just
       before it raised; consume the tag here or it would
       mis-attribute the next counted access. *)
    Stats.clear_site ();
    raise (Corrupt_read c.cid)
  end

(* Working-set model: with more live lines than cache capacity, a read
   hits with probability capacity/live (uniform-access approximation). *)
let capacity_miss m =
  m.running >= 0
  && m.live_cells > m.cost.capacity_lines
  && Random.State.int m.rng m.live_cells >= m.cost.capacity_lines

(* A line that is neither shared and valid (0) nor valid and the
   reader's own is corrupt, invalid or another thread's: only then is
   it tested for corruption, and it misses. A miss leaves it shared. *)
let read c =
  let m = get () in
  let meta = c.meta in
  let foreign = meta <> 0 && meta <> owned (current_tid m) in
  if foreign then check_corrupt c;
  m.stats.reads <- m.stats.reads + 1;
  if foreign || capacity_miss m then begin
    c.meta <- 0;
    charge m m.cost.read_miss
  end
  else charge m m.cost.read_hit;
  let v = c.vol in
  yield m;
  v

let write c v =
  let m = get () in
  m.stats.writes <- m.stats.writes + 1;
  if tracing m then
    record_event m
      (Ev_write { step = m.steps; tid = current_tid m; cid = c.cid });
  let me = current_tid m in
  if c.meta lsr 2 <> me + 1 then charge m m.cost.read_miss;
  (* the writer owns a valid line; overwriting a corrupted cell
     redefines its contents *)
  c.meta <- owned me;
  c.vol <- v;
  mark_dirty m c;
  charge m m.cost.write;
  yield m

let cas c ~expected ~desired =
  let cur = Domain.DLS.get current_machine in
  let m = machine_of cur in
  check_corrupt c;
  let site = Stats.take_at cur.pending in
  let me = current_tid m in
  if c.meta lsr 2 <> me + 1 then charge m m.cost.read_miss;
  c.meta <- owned me;
  charge m m.cost.cas;
  let ok = c.vol == expected in
  Stats.record_cas m.stats ~site ~ok;
  if ok then begin
    c.vol <- desired;
    mark_dirty m c;
    if tracing m then
      record_event m (Ev_write { step = m.steps; tid = me; cid = c.cid })
  end;
  yield m;
  ok

let flush c =
  let cur = Domain.DLS.get current_machine in
  let m = machine_of cur in
  check_corrupt c;
  let site = Stats.take_at cur.pending in
  Stats.record_flush m.stats ~site;
  if tracing m then
    record_event m
      (Ev_flush
         { step = m.steps; tid = current_tid m; cid = c.cid;
           site = Stats.name site });
  let v = c.vol in
  if m.cost.flush_invalidates then c.meta <- c.meta lor invalid_bit;
  if cell_is_clean c then
    (* no write-back occurs for a clean line; only the instruction (and
       the invalidation above) is paid *)
    charge m m.cost.flush_clean
  else begin
    (if m.running >= 0 then
       push_pending m.by_tid.(m.running) c v (next_wb_seq m c)
     else
       (* setup mode: flushes take effect immediately *)
       persist_value m c v);
    charge m m.cost.flush
  end;
  yield m

(* A timed wait: the thread gives up [n] units of virtual time and
   yields, without touching memory. This is how service threads model
   polling backoff and batch timeouts — a spin on a real cell would pay
   a read (and a scheduling step) per unit of waiting. With [~until]
   the thread keeps sleeping [n]-unit quanta until the predicate holds
   at a wake; [dispatch] re-arms each quantum itself, so an idle poll
   costs no switch into the fiber, and a quiet machine settles a run of
   them in one visit ([settle_idle]). *)
let sleep ?until m n =
  if m.running >= 0 && n > 0 then begin
    charge m n;
    match until with
    | None -> Effect.perform Yield
    | Some until -> Effect.perform (Wait (n, until))
  end

let fence () =
  let cur = Domain.DLS.get current_machine in
  let m = machine_of cur in
  let site = Stats.take_at cur.pending in
  Stats.record_fence m.stats ~site;
  if tracing m then
    record_event m
      (Ev_fence
         { step = m.steps; tid = current_tid m; site = Stats.name site });
  (if m.running >= 0 then begin
     let th = m.by_tid.(m.running) in
     charge m
       (m.cost.fence_base + (m.cost.fence_per_pending * th.pending_count));
     (* complete the write-backs in flush order *)
     for i = 0 to th.pending_count - 1 do
       settle_pending m th.pending.(i) ~persist:true
     done;
     th.pending_count <- 0
   end);
  yield m

(* Persist every dirty cell immediately; used after pre-filling a
   structure so that runs start from a fully persistent state.
   Persisting a cell's current value always removes it from the set, so
   draining from the back terminates. *)
let persist_all m =
  while Dirty.size m.dirty > 0 do
    let (Any_cell c) = Dirty.get m.dirty (Dirty.size m.dirty - 1) in
    persist_value m c c.vol
  done

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

let spawn m f =
  let tid = m.next_tid in
  m.next_tid <- tid + 1;
  let th =
    { tid; vtime = m.clock; state = Ready f; k = never_resumed; pending = [||];
      pending_count = 0 }
  in
  m.threads <- th :: m.threads;
  if tid >= Array.length m.by_tid then begin
    let b = Array.make (max 8 (2 * Array.length m.by_tid)) dummy_thread in
    Array.blit m.by_tid 0 b 0 (Array.length m.by_tid);
    m.by_tid <- b
  end;
  m.by_tid.(tid) <- th;
  Sched_heap.add m.heap ~vtime:th.vtime ~tid;
  tid

let set_scheduler m f = m.scheduler <- Some f
let clear_scheduler m = m.scheduler <- None

(* A scheduler override's choice of the next tid (-1: nothing is
   runnable). The pick stays in the tree like the default root does;
   the tree call after its step re-keys it wherever it sits. *)
let pick_override m choose =
  match Sched_heap.tids_ascending m.heap with
  | [] -> -1
  | tids ->
    let tid = choose m tids in
    if Sched_heap.mem m.heap ~tid then tid
    else
      (* A buggy exploration schedule used to fall through to "nothing
         runnable" here and read as a clean completion with threads
         still suspended; fail loudly instead. *)
      invalid_arg
        (Printf.sprintf
           "Machine: scheduler override chose tid %d, which is not runnable"
           tid)

let crash m =
  (* Tear down every live fiber, then resolve the fate of flushed-but-
     unfenced write-backs by coin flip, then lose all volatile state.
     The [min_int] horizon makes a fiber that ends, or yields while it
     unwinds, switch straight out: its handler records its state and
     returns here without dispatching. *)
  m.horizon <- min_int;
  List.iter
    (fun th ->
      (if th.tid <> m.running then
         (* the running fiber, if any, is the caller: not torn down *)
         match th.state with
         | Suspended | Waiting _ ->
           m.running <- th.tid;
           (try Effect.Deep.discontinue th.k Crashed with Crashed -> ());
           th.state <- Finished;
           m.running <- -1
         | Ready _ -> th.state <- Finished
         | Finished | Failed _ -> ());
      for i = 0 to th.pending_count - 1 do
        settle_pending m th.pending.(i) ~persist:(Random.State.bool m.rng)
      done;
      th.pending_count <- 0)
    m.threads;
  m.threads <- [];
  Sched_heap.clear m.heap;
  Dirty.iter (fun (Any_cell c) -> wipe_cell c) m.dirty;
  Dirty.clear m.dirty

(* Frees are reported through [Nvt_nvm.Memory.reclaimed]; route them
   to the calling domain's current machine's working-set
   estimate. The hook is installed once per process; the DLS lookup at
   call time keeps it correct on every domain. *)
let () =
  Nvt_nvm.Memory.on_reclaim :=
    fun n ->
      match (Domain.DLS.get current_machine).machine with
      | Some m -> retire m n
      | None -> ()

(* Raise a failed fiber's exception. At a barrier this does not wait
   for the era to end, so an external driver interleaving machines
   surfaces a [Corrupt_read] (or any bug) promptly instead of spinning
   other machines forever. *)
let raise_any_failed m =
  List.iter
    (fun th ->
      match th.state with
      | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
      | _ -> ())
    m.threads

(* Fail loudly if a fiber died on an unexpected exception, then close
   the era: a clean completion leaves no threads behind. *)
let finish m =
  raise_any_failed m;
  m.threads <- []

let do_crash m t =
  if t > m.clock then m.clock <- t;
  record_event m (Ev_crash { step = m.steps; time = t });
  crash m;
  m.crash_at_time <- None;
  m.crash_at_step <- None

(* Nothing but the threads' own code acts on a quiet machine's steps:
   no jitter, eviction or stall draw, no schedule hook, scheduler
   override, crash trigger or event trace. Its idle quanta draw no rng
   and nothing observes their step numbers, so where they are counted
   relative to other threads' steps cannot show. *)
let quiet m =
  m.jitter = 0
  && (match m.eviction with No_eviction -> true | Random_eviction _ -> false)
  && Option.is_none m.stall && Option.is_none m.on_step
  && Option.is_none m.scheduler && Option.is_none m.crash_at_time
  && Option.is_none m.crash_at_step && Option.is_none m.tracer

(* A waiting thread [th] on a quiet machine whose wake just found
   nothing, re-armed at [th.vtime]: settle its following quanta in
   place, one step each, asking [until] once per quantum at the
   quantum's time, up to the advance's horizon [time]. A wake that finds
   work leaves the thread [Suspended] at that quantum, so the next
   dispatch of it resumes the fiber without asking again. Exact under
   the contract [sleep] states: [until] reads only the thread's own
   {!now} and state the driver changes between advances, so other
   threads' steps below [time] cannot change its answers. *)
let rec settle_idle m th ~time n until =
  let v = th.vtime in
  if v < time then
    if until () then th.state <- Suspended
    else begin
      m.steps <- m.steps + 1;
      m.quanta_settled <- m.quanta_settled + 1;
      if v > m.settled then m.settled <- v;
      th.vtime <- v + n;
      settle_idle m th ~time n until
    end

(* The clock the settled quanta would have set, had each been a visit
   of its own. *)
let fold_settled m = if m.settled > m.clock then m.clock <- m.settled

(* The scheduler. [dispatch m next] takes one scheduling decision and
   runs it: [next] is the tree's root as the previous step's tree call
   left it (-1: nothing runnable); a scheduler override ignores it and
   picks its own. The stepped thread stays in the tree throughout — at
   the root on the default schedule — and [Sched_heap.reschedule]
   re-keys it (or drops it when it finished) and returns the next root.
   A fiber that ended its step in [yield] made that call already: it
   either ran on into its next steps, each the same checks and prologue
   as a dispatch, or switched out and [handed] the root it computed.

   There is no step loop. [advance_to] calls [dispatch] once, and from
   then on each dispatch runs where the previous step ended: in the
   machine's handler, for the fiber that yielded, waited, returned or
   raised ([step_ended]), or as a tail self-call after a stall draw or
   an idle re-arm. It resumes the next fiber with [continue], or starts it with
   [match_with], in tail position, so the handler hands the CPU
   straight to the next thread, and the stack the handlers run on
   stays one frame deep however many steps the advance takes. A
   resume that anything follows — a [try], a [Fun.protect], a trailing
   expression — would grow that stack by a frame per switch (the tail
   guard under test/ catches it). The chain ends at a barrier, at
   completion or at a due crash: the last dispatch records why in
   [stop] and returns, through every handler it ran in, to
   [advance_to], which closes the era or fires the crash outside any
   handler. An exception raised in a dispatch (an override's bad pick,
   say) propagates to [advance_to]'s caller the same way.

   Per step, the rng-draw order — barrier check, crash check, stall
   draw, step count, [on_step], clock, eviction draw, then the jitter in
   the fiber's charges — matches the historical run loop exactly: the
   golden-schedule tests pin it bit for bit. A stall draw is a
   scheduling action: the thread loses the CPU instead of acting, and
   someone else may be scheduled first. A [spawn] during a step enters
   at (clock, higher tid), above the runner's key, so the runner stays
   the root.

   A [Waiting] thread's step evaluates its predicate where the fiber
   would have resumed; while it is false the dispatch charges the next
   quantum itself, drawing the jitter exactly as the fiber's [sleep]
   would, so the step is indistinguishable from a poll that found
   nothing to do. On a quiet machine it then settles the thread's
   following quanta in the same visit ([settle_idle]) and re-keys it
   once; their clock updates are folded in before the advance returns.
   The dispatched steps keep their clocks; their step numbers shift by
   the quanta settled ahead of them, which only a hook, a trace or a
   step trigger could see, and none is installed. *)
let rec dispatch m next =
  let tid =
    match m.scheduler with
    | None -> next
    | Some choose -> pick_override m choose
  in
  if tid < 0 then m.stop <- `Completed
  else begin
    let th = m.by_tid.(tid) in
    if th.vtime >= m.horizon then m.stop <- `Barrier
    else if crash_due m th then m.stop <- `Crashed_at th.vtime
    else
      match m.stall with
      | Some { probability; max_units } when coin m.rng probability ->
        th.vtime <- th.vtime + 1 + Random.State.int m.rng max_units;
        dispatch m
          (Sched_heap.reschedule m.heap ~tid ~vtime:th.vtime ~runnable:true)
      | Some _ | None -> (
        begin_step m th;
        m.running <- tid;
        match th.state with
        | Suspended -> resume m th
        | Waiting (n, until) ->
          if until () then resume m th
          else begin
            charge m n;
            if quiet m then settle_idle m th ~time:m.horizon n until;
            m.running <- -1;
            dispatch m
              (Sched_heap.reschedule m.heap ~tid ~vtime:th.vtime
                 ~runnable:true)
          end
        | Ready f ->
          m.switches <- m.switches + 1;
          Effect.Deep.match_with f () m.handler
        | Finished | Failed _ -> assert false)
  end

and resume m th =
  m.switches <- m.switches + 1;
  Effect.Deep.continue th.k ()

(* The end of a step that left [th]'s fiber, run in its handler once its
   state is recorded: dispatch the root [yield] handed over, or re-key
   the thread to find it. While [crash] tears fibers down, a fiber that
   ends or yields only records its state, and its handler returns to
   the teardown. *)
and step_ended m th ~runnable =
  m.running <- -1;
  if m.horizon <> min_int then begin
    let next = m.handed in
    if next >= 0 then begin
      m.handed <- -1;
      dispatch m next
    end
    else
      dispatch m
        (Sched_heap.reschedule m.heap ~tid:th.tid ~vtime:th.vtime ~runnable)
  end

(* Built once per machine, by [create]: every fiber of the machine runs
   under it, and each case finds the thread that stepped as
   [m.by_tid.(m.running)] — dispatch, a resume and [crash]'s teardown
   all set [running] before the fiber runs. The [Yield] case returns
   the same preallocated [Some suspend] at every yield, which parks the
   continuation in the thread's own record; a [Wait] (one per idle
   period, not per step) allocates its state. Every case ends in
   [step_ended], in tail position. *)
and handler m =
  let suspend =
    Some
      (fun k ->
        let th = m.by_tid.(m.running) in
        th.k <- k;
        (match th.state with
        | Suspended -> ()
        | _ -> th.state <- Suspended);
        step_ended m th ~runnable:true)
  in
  { Effect.Deep.retc =
      (fun () ->
        let th = m.by_tid.(m.running) in
        th.state <- Finished;
        step_ended m th ~runnable:false);
    exnc =
      (fun e ->
        let th = m.by_tid.(m.running) in
        (match e with
        | Crashed -> th.state <- Finished
        | _ -> th.state <- Failed (e, Printexc.get_raw_backtrace ()));
        step_ended m th ~runnable:false);
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | Yield -> suspend
        | Wait (n, until) ->
          Some
            (fun k ->
              let th = m.by_tid.(m.running) in
              th.k <- k;
              th.state <- Waiting (n, until);
              step_ended m th ~runnable:true)
        | _ -> None) }

(* What [create] fills the [handler] field with before it builds the
   machine's own. *)
let no_handler : (unit, unit) Effect.Deep.handler =
  { Effect.Deep.retc = ignore; exnc = raise; effc = (fun _ -> None) }

let create ?(seed = 0) ?(cost = Cost_model.nvram) ?(eviction = No_eviction)
    ?stall ?(jitter = 0) ?(suppress = Nvt_nvm.Suppress.ambient ())
    ?(optimizer = Nvt_nvm.Optimizer.ambient ()) () =
  let m =
    { rng = Random.State.make [| seed; 0x5eed |];
      cost;
      eviction;
      stall;
      jitter;
      threads = [];
      by_tid = Array.make 8 dummy_thread;
      heap = Sched_heap.create ();
      dirty = Dirty.create ();
      live_cells = 0;
      wb_seq = 0;
      next_tid = 0;
      next_cid = 0;
      steps = 0;
      quanta_settled = 0;
      switches = 0;
      clock = 0;
      settled = 0;
      running = -1;
      horizon = min_int;
      handed = -1;
      stop = `Completed;
      crash_at_time = None;
      crash_at_step = None;
      scheduler = None;
      stats = Stats.zero ();
      suppress;
      optimizer;
      tracer = None;
      on_step = None;
      handler = no_handler }
  in
  m.handler <- handler m;
  set_current m;
  m

let advance_to m ~time =
  set_current m;
  m.horizon <- time;
  dispatch m (Option.value (Sched_heap.min_tid m.heap) ~default:(-1));
  match m.stop with
  | `Completed ->
    fold_settled m;
    finish m;
    `Completed
  | `Barrier ->
    fold_settled m;
    raise_any_failed m;
    `Barrier
  | `Crashed_at t as crashed ->
    do_crash m t;
    crashed
let run m =
  match advance_to m ~time:max_int with
  | `Completed -> Completed
  | `Crashed_at t -> Crashed_at t
  | `Barrier -> assert false

let force_crash m =
  set_current m;
  let t = m.clock in
  do_crash m t;
  t
