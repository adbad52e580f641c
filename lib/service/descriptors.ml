(* Detect mode's durable completion descriptors: each client's last
   completion, kept in simulated NVRAM so that recovery can rebuild the
   dedup table without replaying the log, and can answer [Not_applied]
   for a request that never committed.

   A descriptor is one {!Types.completion} written whole into a single
   cell (cell = cache-line granularity, so identity, position and
   result persist atomically). Each client owns a pair of cells written
   round-robin: the previous committed descriptor survives until the
   next one's commit fence has passed, so a crash between a
   descriptor's flush and its batch's commit fence can invalidate at
   most the newer cell. A descriptor is {e valid} iff its slot is below
   its shard's durable commit index — the flush rides the batch's
   ledger fence, strictly before the index commits, so validity is
   exactly "this completion durably happened".

   The table and each pair's turn counter are plain OCaml — NVRAM
   allocator metadata, like a registry of roots; they carry no
   durability information (recovery re-derives validity from the cells
   and the durable indices, and re-aims the turn at the losing cell). *)

module Stats = Nvt_nvm.Stats
module Guard = Nvt_nvm.Guard
open Types

let flush_site = Stats.intern "svc:desc_flush"
let fence_site = Stats.intern "svc:desc_fence"

let null = no_completion

module Make (M : Nvt_nvm.Memory.S) = struct
  (* client -> its cell pair and the pair's turn *)
  type t = (int, completion M.loc array * int ref) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let flush c = if Guard.admit Flush flush_site then M.flush c

  (* Write and flush the client's next cell; the caller's ledger fence
     makes it durable. *)
  let put (t : t) client r =
    let pair, turn =
      match Hashtbl.find_opt t client with
      | Some p -> p
      | None ->
        let p = ([| M.alloc null; M.alloc null |], ref 0) in
        Hashtbl.add t client p;
        p
    in
    let c = pair.(!turn) in
    turn := 1 - !turn;
    M.write c r;
    flush c

  (* Merge the shard's valid descriptors into the dedup table, read
     through [find] (a client it has not seen: {!Types.no_completion})
     and written through [replace], and durably null its stale ones.
     Recovery rebuilds the table from descriptors alone, so it holds
     each client's best merged seq so far across the per-shard passes
     (plain OCaml between simulated accesses, hence atomic under the
     fiber scheduler): the turn ends up aimed away from the overall
     winner even when a client's two cells live on different shards. *)
  let recover (t : t) ~shard ~index ~find ~replace =
    let stale = ref [] in
    Hashtbl.iter
      (fun client (pair, turn) ->
        Array.iteri
          (fun ci c ->
            match M.read c with
            | exception Nvt_nvm.Memory.Corrupt_read _ ->
              (* never persisted: equivalent to an absent descriptor *)
              ()
            | r ->
              if r.shard = shard then
                if r.seq >= 0 && r.slot < index then begin
                  let best = (find client : completion).seq in
                  if r.seq >= best then replace client r;
                  if r.seq > best then turn := 1 - ci
                end
                else
                  (* A readable descriptor whose slot the durable index
                     does not cover claims a completion that never
                     durably happened. It must be nulled *now*, durably,
                     before the service commits anything new: truncation
                     re-uses slot numbers, so a later era's advancing
                     index would otherwise lend it false validity. *)
                  stale := c :: !stale)
          pair)
      t;
    List.iter
      (fun c ->
        M.write c null;
        flush c)
      !stale;
    if !stale <> [] && Guard.admit Fence fence_site then M.fence ()
end
