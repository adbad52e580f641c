(* Workload generation for the benchmark harness: the paper's
   insert/delete/lookup mixes (Section 5.1) and YCSB-like read
   distributions (workloads A, B, C of Cooper et al.).

   Keys are drawn uniformly from [0, range); structures are prefilled
   with range/2 keys before measurement, as in the paper. *)

type op = Insert of int | Delete of int | Lookup of int

type mix = {
  name : string;
  insert_pct : int;
  delete_pct : int;  (* remainder are lookups *)
}

let updates ~pct =
  { name = Printf.sprintf "%d%% updates" pct;
    insert_pct = pct / 2;
    delete_pct = pct - (pct / 2) }

(* The paper's default: 10-10-80. *)
let default = { name = "10-10-80"; insert_pct = 10; delete_pct = 10 }

(* YCSB-style: A = 50% updates, B = 5% updates, C = read-only. *)
let ycsb_a = updates ~pct:50
let ycsb_b = updates ~pct:5
let ycsb_c = updates ~pct:0

let update_pct mix = mix.insert_pct + mix.delete_pct

(* Key distributions. [Zipf s] draws rank r with probability
   proportional to 1/r^s (s = 0 degenerates to uniform); the rank->key
   map is a seeded shuffle of the range so the hot keys scatter across
   the key space (and across hash buckets / tree paths) instead of
   clustering at 0, 1, 2, ... *)
type dist = Uniform | Zipf of float

(* Zipf ranks by inversion of the cumulative weights, through a guide
   table (Chen and Asau's method): [guide.(j)] is the least rank whose
   cumulative weight falls in bucket [j] or above, where [bucket x =
   truncate (x *. range)]. A draw [u] starts its scan at [guide.(bucket
   u)] and steps up to the least rank with [cum.(r) >= u]: with one
   bucket per rank, at most two comparisons on average. [bucket] is
   monotone, so every rank below the start has [cum.(r) < u]: the scan
   finds the rank a binary search over [cum] finds, for every [u]. *)
module Zipf_table = struct
  type t = {
    cum : float array;  (* normalized cumulative weights, cum.(range-1) = 1 *)
    guide : int array;  (* range + 1 buckets: [bucket 1.] = range *)
    perm : int array;  (* rank -> key *)
  }

  let bucket t x = int_of_float (x *. float_of_int (Array.length t.cum))

  let make ~seed ~range ~s =
    let cum = Array.make range 0.0 in
    let acc = ref 0.0 in
    for r = 0 to range - 1 do
      acc := !acc +. (1.0 /. Float.pow (float_of_int (r + 1)) s);
      cum.(r) <- !acc
    done;
    let total = !acc in
    Array.iteri (fun r c -> cum.(r) <- c /. total) cum;
    let perm = Array.init range Fun.id in
    let rng = Random.State.make [| seed; range; 0x21f |] in
    for i = range - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    let t = { cum; guide = Array.make (range + 1) 0; perm } in
    let r = ref 0 in
    for j = 0 to range do
      while !r < range - 1 && bucket t cum.(!r) < j do incr r done;
      t.guide.(j) <- !r
    done;
    t

  let cum t = t.cum

  (* the least rank with [cum.(r) >= u], or the last *)
  let rank t u =
    let r = ref t.guide.(bucket t u) and last = Array.length t.cum - 1 in
    while !r < last && t.cum.(!r) < u do incr r done;
    !r

  let key t u = t.perm.(rank t u)
end

type gen = {
  rng : Random.State.t;
  mix : mix;
  range : int;
  zipf : Zipf_table.t option;
}

let gen_dist ~dist ~seed ~mix ~range =
  { rng = Random.State.make [| seed; 0xf00d |];
    mix;
    range;
    zipf =
      (match dist with
      | Uniform -> None
      | Zipf s -> Some (Zipf_table.make ~seed ~range ~s)) }

let gen ~seed ~mix ~range = gen_dist ~dist:Uniform ~seed ~mix ~range

(* The uniform path must keep drawing [Random.State.int rng range]: the
   scheduler determinism tests pin a golden schedule generated through
   it, so the skewed variant hangs off a separate (float) draw rather
   than changing the shared one. *)
let next_key g =
  match g.zipf with
  | None -> Random.State.int g.rng g.range
  | Some z -> Zipf_table.key z (Random.State.float g.rng 1.0)

let next g =
  let k = next_key g in
  let p = Random.State.int g.rng 100 in
  if p < g.mix.insert_pct then Insert k
  else if p < g.mix.insert_pct + g.mix.delete_pct then Delete k
  else Lookup k

(* Deterministic prefill keys: every other key in the range — the
   paper's range/2 initial size without rejection sampling — in a
   seeded shuffle, so external BSTs prefill to their expected
   logarithmic depth rather than a spine. *)
let prefill_keys ~range =
  let a = Array.init (range / 2) (fun i -> i * 2) in
  let rng = Random.State.make [| range; 0xbeef |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a
