(* Link-and-persist (David et al., ATC 2018; Wang et al., ICDE 2018): a
   durability-bit optimization that avoids flushing clean cache lines.

   Every stored value carries a clean tag ([Policy.tagged] with a bool).
   [flush] on a clean location is free; on a dirty one it pays the real
   flush, a fence, and an extra CAS to set the tag so that later flushes
   of the unchanged word can be skipped. Writes and CAS dirty the word
   again.

   This reproduces the tradeoff the paper's DRAM experiments explore: the
   tag saves flushes when many threads persist the same word (high
   contention, small structures) but charges an extra CAS for every
   genuinely dirty flush (dominant at low contention or write-heavy
   workloads).

   The hand-tuned structures of David et al. are modelled in this repo as
   NVTraverse-placed persistence over this memory: the flush *placement*
   is the same provably sufficient set, while the flush *mechanism* is
   their tagged-word scheme. *)

open Policy

module Make (M : Memory.S) :
  Memory.S with type 'a loc = ('a, bool) tagged M.loc = struct
  module T = Tagged_word (M)

  type 'a loc = ('a, bool) tagged M.loc

  type any = Any : 'a loc -> any

  let alloc v = M.alloc { v; tag = false }
  let read = T.read
  let write l v = M.write l { v; tag = false }

  let cas l ~expected ~desired =
    T.cas l ~site:Stats.app ~retag:(fun _ -> false) ~expected ~desired

  let flush_site = Stats.intern "lp:flush"
  let drain_site = Stats.intern "lp:drain"
  let mark_clean_site = Stats.intern "lp:mark_clean"

  (* A clean-line flush issues no instruction at all, so any site tag
     the engine set for its placement must be dropped here rather than
     leak onto an unrelated later access; the dirty path claims its own
     mechanism sites. *)
  let flush l =
    Stats.clear_site ();
    let c = M.read l in
    if not c.tag then begin
      (* The flush and drain pass through the {!Guard}; the mark-clean
         CAS always runs — suppressing it would change the algorithm,
         and a mutated flush that still marks the word clean is exactly
         the dangerous variant the mutation harness wants: every later
         flush of the word is then skipped as "clean". *)
      if Guard.admit Flush flush_site then M.flush l;
      if Guard.admit Fence drain_site then M.fence ();
      Stats.tag mark_clean_site;
      ignore (M.cas l ~expected:c ~desired:{ c with tag = true })
    end

  let fence = M.fence
  let flush_any (Any l) = flush l
end

module Policy : Policy.S = struct
  let name = "lp"

  let summary =
    "link-and-persist: NVTraverse flush placement over durability-bit \
     tagged words (the David et al. stand-in)"

  let durable = true

  let discipline =
    "engine-placed flushes, but a flush on a clean word is free and a \
     flush on a dirty word pays an extra CAS to mark it clean"

  module Apply (M : Memory.S) = struct
    module Mem = Make (M)
    module Persist_m = Persist.Make (Mem)
    module P = Persist_m.Durable

    let recover () = ()
  end
end
