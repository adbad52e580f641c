(** Workload generation: the paper's insert/delete/lookup mixes and
    YCSB-like read distributions, with uniform keys and a deterministic
    shuffled prefill of half the key range. *)

type op = Insert of int | Delete of int | Lookup of int

type mix = { name : string; insert_pct : int; delete_pct : int }

val updates : pct:int -> mix
(** [pct]% updates, split evenly between inserts and deletes. *)

val default : mix
(** The paper's default 10-10-80 insert/delete/lookup mix. *)

val ycsb_a : mix  (** 50% updates *)

val ycsb_b : mix  (** 5% updates *)

val ycsb_c : mix  (** read-only *)

val update_pct : mix -> int

type dist =
  | Uniform
  | Zipf of float
      (** key rank [r] drawn with probability proportional to [1/r^s];
          [Zipf 0.] is uniform, [Zipf 0.99] the YCSB default skew. The
          rank->key map is a seeded shuffle of the range, so the hot
          keys scatter across the key space. *)

(** The inversion behind [Zipf s] draws, exposed for testing. *)
module Zipf_table : sig
  type t

  val make : seed:int -> range:int -> s:float -> t
  (** The tables of [Zipf s] over [range] keys, whose rank->key shuffle
      [seed] selects. *)

  val cum : t -> float array
  (** The normalized cumulative weights: [(cum t).(r)] is the chance of
      a rank [<= r]; the last is [1.]. *)

  val rank : t -> float -> int
  (** [rank t u] for [u] in [\[0, 1)]: the least rank [r] with
      [(cum t).(r) >= u], found from a guide table in at most two
      comparisons on average (the last rank if there is none). A binary search over
      {!cum} finds the same rank. *)

  val key : t -> float -> int
  (** The key of [rank t u]. *)
end

type gen

val gen : seed:int -> mix:mix -> range:int -> gen
(** Uniform keys; draw-for-draw identical to the pre-[dist] generator
    (the scheduler determinism suite pins a golden schedule through
    it). *)

val gen_dist : dist:dist -> seed:int -> mix:mix -> range:int -> gen

val next : gen -> op

val next_key : gen -> int
(** One key draw from the generator's distribution (no op mix draw). *)

val prefill_keys : range:int -> int list
(** [range/2] distinct keys in [0, range), deterministically shuffled so
    external BSTs prefill to logarithmic depth. *)
