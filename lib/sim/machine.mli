(** A simulated multiprocessor with non-volatile main memory.

    Threads are cooperative fibers (effect handlers) preempted at every
    shared-memory access; the scheduler resumes the runnable thread with
    the least accumulated virtual time, making execution a
    discrete-event simulation of parallel threads under a
    {!Nvt_nvm.Cost_model}. Every shared mutable word ({!type:cell}) has
    both a volatile and a persistent value; [flush]/[fence] and an
    eviction adversary move values between them, and a crash wipes
    volatile state — corrupting cells that were never persisted.

    The memory operations below are normally reached through
    {!module:Memory}, the backend with the same interface as
    {!Nvt_nvm.Native}. A thread that stays the one to run next takes
    its next step without leaving its fiber; only a change of thread
    switches fibers (see {!switches}), and then the yielding fiber's
    handler resumes the next thread's fiber directly. A step allocates
    nothing but the continuation the runtime makes at such a switch. *)

exception Corrupt_read of int
(** Reading a cell whose contents were lost in a crash. The payload is
    the cell id. Implemented as a rebinding of
    {!Nvt_nvm.Memory.Corrupt_read}, so code written against the
    backend-agnostic memory interface catches the same exception. *)

type eviction =
  | No_eviction  (** only explicit flush+fence persists anything *)
  | Random_eviction of float
      (** at each step, with this probability, one random dirty cell is
          persisted behind the program's back *)

type stall = {
  probability : float;  (** per scheduling step *)
  max_units : int;  (** stall duration drawn uniformly from [1, max] *)
}
(** Models OS preemption: a thread can lose the CPU for a long stretch
    at any instruction boundary. Several durability windows (building on
    a not-yet-fenced link) only open under stalls. *)

type 'a cell
(** One shared mutable word with volatile and persistent state. *)

type outcome = Completed | Crashed_at of int

(** One entry of the bounded event trace (see {!set_trace}). Flush and
    fence events carry the name of the attribution site consumed by the
    counters (see {!Nvt_nvm.Stats.take_site}), resolved from its id only
    while a trace is installed; a successful CAS records a write event.
    Without a trace no event is built at all. *)
type event =
  | Ev_write of { step : int; tid : int; cid : int }
  | Ev_flush of { step : int; tid : int; cid : int; site : string }
  | Ev_fence of { step : int; tid : int; site : string }
  | Ev_evict of { step : int; cid : int }
  | Ev_crash of { step : int; time : int }

type t

val create :
  ?seed:int ->
  ?cost:Nvt_nvm.Cost_model.t ->
  ?eviction:eviction ->
  ?stall:stall ->
  ?jitter:int ->
  ?suppress:Nvt_nvm.Suppress.t ->
  ?optimizer:Nvt_nvm.Optimizer.t ->
  unit ->
  t
(** A fresh machine, installed as the calling domain's current one.
    [jitter] adds 0..n random extra cost units per operation to break
    scheduling ties. [suppress] is the machine's mutation-suppression
    context and [optimizer] its persistence-optimizer context (default:
    the calling domain's ambient contexts, so a suppression or plan set
    up before creating the machine stays in force). *)

val set_current : t -> unit
(** Route subsequent {!module:Memory} operations on the calling domain
    to this machine, and install its suppression and optimizer
    contexts. The current machine is domain-local state: machines on
    different domains never share it. *)

val get : unit -> t
(** The calling domain's current machine; raises if none was created. *)

val suppress : t -> Nvt_nvm.Suppress.t
(** The machine's suppression context. *)

val optimizer : t -> Nvt_nvm.Optimizer.t
(** The machine's persistence-optimizer context. *)

(** {1 Threads and execution} *)

val spawn : t -> (unit -> unit) -> int
(** Register a simulated thread; returns its tid. Threads only run
    inside {!run}. *)

val run : t -> outcome
(** Schedule until every thread finished or a crash fired. A thread that
    died on an unexpected exception re-raises it here. *)

val advance_to : t -> time:int -> [ `Barrier | `Completed | `Crashed_at of int ]
(** Schedule until the next runnable thread's virtual time has reached
    [time] ([`Barrier]: nothing at a virtual time below [time] is left
    to execute), every thread finished ([`Completed], re-raising a
    failed fiber's exception as {!run} does), or a crash trigger fired.
    An external driver interleaves several machines deterministically by
    advancing each to the same sequence of virtual-time barriers; at a
    barrier a failed fiber's exception is re-raised immediately rather
    than at era end, so corruption on one machine surfaces promptly.
    [advance_to ~time:max_int] is exactly {!run}. *)

val force_crash : t -> int
(** Crash the machine now (tear down fibers, coin-flip pending
    write-backs, wipe volatile state), regardless of crash triggers;
    returns the crash's virtual time. The parallel runner uses it to
    fire a crash at a virtual-time barrier across every machine. *)

val set_crash_at_time : t -> int -> unit
(** Crash when the next scheduled thread's virtual time reaches this. *)

val set_crash_at_step : t -> int -> unit
(** Crash at the given global scheduling step. *)

val clear_crash : t -> unit
(** Cancel a pending crash trigger (fired triggers clear themselves). *)

val set_scheduler : t -> (t -> int list -> int) -> unit
(** Override scheduling: given the runnable tids (ascending), return the
    tid to run next. Used by {!Explore}. Returning a tid that is not in
    the runnable list makes {!run} raise [Invalid_argument] naming the
    tid — a buggy schedule must not read as a clean completion with
    threads still suspended. *)

val clear_scheduler : t -> unit

val set_schedule_hook : t -> (int -> int -> unit) option -> unit
(** Install (or clear) a callback invoked with [(step, tid)] at every
    executed scheduling step, before the step's memory access runs. The
    determinism tests use it to record the exact schedule; it does not
    perturb the simulation. On a step that runs on ({!switches}) it is
    called from inside the stepping thread's fiber, so it must not
    perform a simulated memory access or raise. *)

(** {1 Introspection} *)

val now : t -> int
(** The running thread's virtual time (or the global clock outside a
    thread) — the timestamp to record in histories. *)

val current_tid : t -> int
(** The running thread's tid, or [-1] in setup mode. *)

val clock : t -> int
val steps : t -> int

val visits : t -> int
(** How many steps were not settled in place: {!steps} minus the idle
    quanta a quiet machine settled (see {!sleep}). Equal to {!steps} on
    a machine that never settled one. *)

val switches : t -> int
(** How many steps switched into a fiber. A step whose thread is still
    the next to run — the least-virtual-time runnable thread, below the
    advance's [time] and not due to crash — runs on in the same fiber:
    it counts in {!steps} and {!visits} but not here. A one-thread
    {!run} makes one switch, its first step. Under a {!set_scheduler}
    override or a [stall] adversary every step that resumes a thread
    switches; a wake that finds nothing (see {!sleep}) resumes none. *)

val makespan : t -> int
(** Virtual time of the latest scheduled action: the parallel makespan. *)

val stats : t -> Nvt_nvm.Stats.t

val retire : t -> int -> unit
(** Tell the working-set model that [n] cells were reclaimed: the
    capacity-miss probability is [1 - capacity/live] and [live] is
    allocations minus retirements. The service ledger and checkpoint
    report their frees through {!Nvt_nvm.Memory.reclaimed}, which
    reaches this on the calling domain's machine; call this directly to
    report frees to a specific machine. *)

val live_cells : t -> int
(** The working-set model's current live-cell estimate. *)

(** {1 Event trace} *)

val set_trace : t -> capacity:int -> unit
(** Start recording write/flush/fence/evict/crash events into a ring of
    the given capacity; only the most recent [capacity] events are
    kept. Off by default — tracing costs one array store per shared
    access. *)

val trace : t -> event list
(** The recorded events, oldest first (at most the trace capacity). *)

val trace_dropped : t -> int
(** How many events were evicted from the ring since {!set_trace}. *)

val pp_event : Format.formatter -> event -> unit

val persist_all : t -> unit
(** Persist every dirty cell immediately; call after pre-filling so runs
    start from a fully persistent state. *)

val coin : Random.State.t -> float -> bool
(** [Random.State.float rng 1.0 < p], same rng state after, unboxed: the
    eviction and stall adversaries' per-step draw. *)

val sleep : ?until:(unit -> bool) -> t -> int -> unit
(** Advance the calling thread's virtual time by [n] units and yield: a
    timed wait that touches no memory. Service threads use it for
    polling backoff and batch timeouts. No-op outside {!run} (setup
    mode) or when [n <= 0].

    With [~until], the thread sleeps [n]-unit quanta until [until ()]
    holds, exactly like [sleep m n; while not (until ()) do sleep m n
    done] with the loop in the fiber:
    - each quantum is one scheduling step: it adds one to {!steps},
      and the run's histories, step count, clock and rng streams match
      the hand-written loop bit for bit;
    - the predicate is evaluated once per quantum, including the first,
      in the step where the thread would have resumed, and {!now}
      returns that quantum's virtual time;
    - while it is false the scheduler re-arms the next quantum without
      resuming the fiber, which is what makes an idle wait cheap.

    The predicate runs outside the fiber: it may read plain OCaml
    state (a queue, a flag, {!now}) but must not perform a simulated
    memory access, which would raise [Effect.Unhandled], and must not
    raise. A crash tears a waiting thread down like any suspended one,
    and a {!set_scheduler} override that picks it runs the same wake.

    {b Contract.} [until] reads only the waiting thread's own {!now}
    and state that the code driving the machine changes between calls
    to {!advance_to} (or before {!run}) — never state another thread on
    the machine writes. Under it, a wake's answer does not depend on
    what other threads did in between, and the machine takes a fast
    path when it is quiet: no [jitter], no eviction adversary, no
    [stall], no {!set_schedule_hook} hook, no {!set_scheduler}
    override, no crash trigger and no {!set_trace}. There, a wake that
    finds nothing keeps settling the thread's following quanta in the
    same scheduler visit, asking [until] at each quantum's time, until
    a wake finds work or the next quantum reaches the advance's
    [time]; the thread is then re-keyed once. Each settled quantum
    still counts as a step in {!steps} (not in {!visits}), and its
    clock update is folded into {!clock} before {!advance_to} returns.
    What such a quantum does not do is run at its place in the global
    step order, which only the quiet machine's absent observers (a
    hook, a trace, a step trigger) could see. A machine that is not
    quiet runs every quantum as its own step, in order: its schedule
    hook call, clock update, stall, eviction and jitter draws and its
    crash and barrier checks. *)

(** {1 Memory operations}

    These implement the {!Nvt_nvm.Memory.S} semantics on the current
    machine; inside [run] they are charged to and interleaved with the
    running thread, outside they execute immediately (setup mode). *)

val alloc : 'a -> 'a cell
val read : 'a cell -> 'a
val write : 'a cell -> 'a -> unit
val cas : 'a cell -> expected:'a -> desired:'a -> bool
val flush : 'a cell -> unit
val fence : unit -> unit
