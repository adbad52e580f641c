(* FliT (Wei, Ben-David, Friedman, Blelloch, Petrank, PPoPP 2022): a
   per-location flush-instrumentation layer. Every shared word carries a
   volatile counter of in-flight writer protocols ([Policy.tagged] with
   an int):

   - a writer increments the counter, installs its value, writes the
     line back, and decrements the counter once its write-back is
     complete;
   - a reader that observes a zero counter pays nothing — the value it
     read is already persistent;
   - a reader that observes a nonzero counter flushes the word itself
     before returning, so flushes are paid only on genuinely racy words.

   Like the Izraelevitz et al. wrapper this is a full transformation —
   the volatile algorithm runs against it unchanged and every value is
   persistent before anything can depend on it — but where Izraelevitz
   pays a flush and fence per shared *load*, FliT pays them only per
   *update* (plus the rare racy read), which is what makes its lookups
   competitive with the undurable original.

   Correctness of the counter: each protocol instance performs exactly
   one increment and, after its flush + fence, one decrement, so the
   counter counts protocols whose write-back is not yet known complete.
   When it reads zero, the protocol that installed the current value has
   flushed after installing it (a flush writes back the *current*
   volatile value, so later protocols' flushes cover earlier values) and
   fenced — hence the value is persistent. A decrement can run after a
   racing protocol replaced the value; that only transfers the count to
   the newer protocol, which still flushes and fences before its own
   decrement. *)

open Policy

module Make (M : Memory.S) :
  Memory.S with type 'a loc = ('a, int) tagged M.loc = struct
  module T = Tagged_word (M)

  type 'a loc = ('a, int) tagged M.loc

  type any = Any : 'a loc -> any

  (* Every flush/fence pair passes through the {!Guard} (the mutation
     harness removes one site at a time); the counter CASes are only
     tagged — they are the algorithm's synchronization, not
     persistence. *)
  module Pm = Persist.Make (M)
  module G = Pm.Sited (Pm.Durable)

  let alloc_site = Stats.intern "flit:alloc"
  let racy_read_site = Stats.intern "flit:racy_read"
  let write_back_site = Stats.intern "flit:write_back"
  let install_site = Stats.intern "flit:install"
  let decrement_site = Stats.intern "flit:decrement"

  (* Initializing stores are writes like any other: the location must be
     persistent before the algorithm can publish a pointer to it. *)
  let alloc v =
    let l = M.alloc { v; tag = 0 } in
    G.persist alloc_site l;
    l

  let read l =
    let c = M.read l in
    if c.tag > 0 then G.persist racy_read_site l;
    c.v

  let rec decrement l =
    let c = M.read l in
    if c.tag > 0 then begin
      Stats.tag decrement_site;
      if not (M.cas l ~expected:c ~desired:{ c with tag = c.tag - 1 }) then
        decrement l
    end

  let write_back l =
    G.persist write_back_site l;
    decrement l

  let rec write l v =
    let c = M.read l in
    Stats.tag install_site;
    if M.cas l ~expected:c ~desired:{ v; tag = c.tag + 1 } then write_back l
    else begin
      (* the failed CAS consumed the tag; retry re-tags *)
      write l v
    end

  let cas l ~expected ~desired =
    if T.cas l ~site:install_site ~retag:(fun t -> t + 1) ~expected ~desired
    then begin
      write_back l;
      true
    end
    else false

  let flush = M.flush
  let fence = M.fence
  let flush_any (Any l) = flush l
end

module Policy : Policy.S = struct
  let name = "flit"

  let summary =
    "FliT: per-location dirty counters; only racy reads pay a flush"

  let durable = true

  let discipline =
    "flush + fence per update (counter-bracketed); reads flush only \
     when they observe a nonzero in-flight-writer counter"

  module Apply (M : Memory.S) = struct
    module Mem = Make (M)
    module Persist_m = Persist.Make (Mem)
    module P = Persist_m.Volatile

    (* The counters are volatile state: the simulator's crash discards
       the cache, and a counter value that happened to be persisted with
       its word merely causes one conservative flush on first read. *)
    let recover () = ()
  end
end
