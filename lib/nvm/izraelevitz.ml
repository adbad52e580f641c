(* The general transformation of Izraelevitz et al. (DISC 2016), as a
   memory wrapper: a flush and fence accompany every access to shared
   mutable memory. Running the *volatile* form of an algorithm against
   this memory yields their durably linearizable construction — the
   baseline the paper's evaluation compares NVTraverse against.

   The transformation persists a value before any instruction that depends
   on it can execute: loads flush-and-fence the location read, and stores
   and CAS are flushed and fenced immediately after taking effect. A
   node's initializing stores are stores like any other under the
   transformation, so a fresh location is persisted immediately. *)

module Make (M : Memory.S) : Memory.S with type 'a loc = 'a M.loc =
  Policy.Instrument
    (M)
    (struct
      (* Attribution sites: every flush/fence pair names the access
         class that triggered it, so the per-site table shows where the
         transformation's cost concentrates (loads, overwhelmingly).
         Both halves of the pair pass through the {!Guard}, so the
         mutation harness can remove an access class wholesale. *)
      module Pm = Persist.Make (M)
      module G = Pm.Sited (Pm.Durable)

      let alloc_site = Stats.intern "izr:alloc"
      let load_site = Stats.intern "izr:load"
      let update_site = Stats.intern "izr:update"
      let after_alloc l = G.persist alloc_site l
      let after_read l = G.persist load_site l
      let before_update () = ()
      let after_update l = G.persist update_site l
      let flush = M.flush
      let fence = M.fence
    end)

module Policy : Policy.S = struct
  let name = "izraelevitz"

  let summary =
    "Izraelevitz et al.'s general transformation: persist everything, \
     everywhere"

  let durable = true

  let discipline =
    "flush + fence after every shared load, store, CAS and allocation; \
     nothing is left for the engine to inject"

  module Apply (M : Memory.S) = struct
    module Mem = Make (M)
    module Persist_m = Persist.Make (Mem)
    module P = Persist_m.Volatile

    let recover () = ()
  end
end
