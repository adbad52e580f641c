(** Durable per-shard checkpoints for the service ledger.

    A checkpoint snapshots a shard's committed state — store (key,
    value) pairs plus the shard's deduplication entries — into chunked
    cells of the active policy's memory, committed by a two-fence
    protocol with its own named persistence sites:

    {v
    alloc+write+flush chunks    svc:ckpt_flush
    fence                       svc:ckpt_fence          chunks durable
    write+flush descriptor      svc:ckpt_commit_flush
    fence                       svc:ckpt_commit_fence   commit point
    v}

    After the commit point the caller may truncate the covered log
    prefix; recovery restores the snapshot and replays only the suffix.
    Superseded and crash-interrupted chunk generations are retired
    through {!Nvt_nvm.Memory.reclaimed}. *)

val chunk : int
(** Snapshot elements per chunk cell. *)

module Make (M : Nvt_nvm.Memory.S) : sig
  type 'd t
  (** A checkpoint slot for one shard, with dedup payload ['d]. *)

  val create : unit -> 'd t
  (** Allocate the descriptor cell (setup mode; persist it — e.g. via
      [Machine.persist_all] — before the first crash). *)

  val write :
    'd t -> upto:int -> pairs:int array array -> dedup:'d array -> unit
  (** Write and durably commit a checkpoint covering log slots
      [\[0, upto)]. [pairs] is the snapshot already cut into chunks,
      each a flat int array of at most {!chunk} pairs
      ([\[|k0; v0; k1; v1; ...|\]]), one cell each; [dedup] is cut
      here, {!chunk} records per cell. Must run on the thread that
      owns the shard's commit index, after slots [\[0, upto)] are
      committed. *)

  val read : 'd t -> (int * int array * 'd array) option
  (** The committed checkpoint, if any: [(upto, pairs, dedup)], the
      pairs flat and concatenated in chunk order. Also
      reconciles chunk accounting after a crash (retiring whichever
      generation lost the coin flip); idempotent, and safe to call for
      introspection on a quiescent machine. *)
end
