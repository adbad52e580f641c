(* The allocation-lean operation path.

   The machine draws its eviction and stall coins without boxing a
   float, keeps a cell's persisted value without an option, and keeps a
   thread's pending write-backs in reusable slots; the engine runs its
   attempt loop without closures, refs or tuples, and a structure's
   boundary passes its reach and persist cells to the engine one by
   one, typed, instead of building a set; the Harris list walks without
   a closure; the skiplist and both BSTs descend without a closure, a
   list or an option per level; every structure answers a lookup with
   a constant verdict. These tests pin the decisions those rewrites
   must not change and the allocation they reached, so that a dropped
   box cannot creep back unnoticed. *)

open Support
module I = Nvt_harness.Instances
module W = Nvt_workload.Workload

(* ------------------------------------------------------------------ *)
(* The unboxed coin                                                    *)
(* ------------------------------------------------------------------ *)

(* Same decision as the stdlib draw at every step of a stream, and the
   same rng state afterwards (the next raw draws agree). *)
let coin_matches_stdlib =
  QCheck.Test.make ~count:300
    ~name:"coin decides as Random.State.float rng 1.0 < p, same rng state"
    QCheck.(
      pair int
        (oneof [ always 0.; always 1.; float_bound_inclusive 1. ]))
    (fun (seed, p) ->
      let a = Random.State.make [| seed |] in
      let b = Random.State.make [| seed |] in
      let same = ref true in
      for _ = 1 to 64 do
        if Machine.coin a p <> (Random.State.float b 1.0 < p) then
          same := false
      done;
      !same && Random.State.bits64 a = Random.State.bits64 b)

let coin_allocates_nothing () =
  let rng = Random.State.make [| 7 |] in
  let hits = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    if Machine.coin rng 0.5 then incr hits
  done;
  let w = Gc.minor_words () -. w0 in
  if w > 0. then Alcotest.failf "%.0f minor words for 1000 coin draws" w;
  Alcotest.(check bool) "some draws hit" true (!hits > 0)

(* ------------------------------------------------------------------ *)
(* The option-free persisted value                                     *)
(* ------------------------------------------------------------------ *)

(* A fresh cell's persisted slot holds its initial value, but
   [pst_seq = 0] says it was never persisted: the cell is dirty from its
   allocation on, writing the initial value back (physically equal)
   must leave it dirty, and the crash corrupts it. A cell persisted once
   restores its persisted value. *)
let never_persisted_stays_dirty () =
  let m = Machine.create () in
  let v0 = "initial" and v1 = "other" in
  let untouched = Sim_mem.alloc v0 in
  let fresh = Sim_mem.alloc v0 in
  Sim_mem.write fresh v1;
  Sim_mem.write fresh v0;
  let kept = Sim_mem.alloc v0 in
  Sim_mem.flush kept;
  (* setup mode: the flush persists at once *)
  Sim_mem.write kept v1;
  let back = Sim_mem.alloc v0 in
  Sim_mem.flush back;
  Sim_mem.write back v1;
  Sim_mem.write back v0;
  ignore (Machine.force_crash m);
  List.iter
    (fun (name, c) ->
      match Sim_mem.read c with
      | _ -> Alcotest.failf "%s never-persisted cell survived the crash" name
      | exception Machine.Corrupt_read _ -> ())
    [ ("an untouched", untouched); ("a rewritten", fresh) ];
  Alcotest.(check string) "persisted value restored" v0 (Sim_mem.read kept);
  Alcotest.(check string)
    "rewritten to its persisted value" v0 (Sim_mem.read back)

(* ------------------------------------------------------------------ *)
(* Allocation budgets                                                  *)
(* ------------------------------------------------------------------ *)

let set s p =
  I.instantiate (List.assoc s I.structures)
    (Option.get (I.flavour p)).I.policy

let apply (type t) (module S : I.SET with type t = t) (t : t) = function
  | W.Insert k -> ignore (S.insert t ~key:k ~value:k)
  | W.Delete k -> ignore (S.delete t k)
  | W.Lookup k -> ignore (S.member t k)

(* Minor words per op over a fixed seeded stream of [n] ops in setup
   mode, after a warm-up stream that lets the first-use growth of the
   counters' site table happen outside the measurement. *)
let setup_words ~structure ~policy ~range ~update_pct ~n =
  let (module S : I.SET) = set structure policy in
  let _m = Machine.create ~seed:1 () in
  let t = S.create () in
  List.iter
    (fun k -> ignore (S.insert t ~key:k ~value:k))
    (W.prefill_keys ~range);
  let stream seed count =
    let g = W.gen ~seed ~mix:(W.updates ~pct:update_pct) ~range in
    Array.init count (fun _ -> W.next g)
  in
  Array.iter (apply (module S) t) (stream 4 200);
  let ops = stream 5 n in
  let w0 = Gc.minor_words () in
  Array.iter (apply (module S) t) ops;
  (Gc.minor_words () -. w0) /. float_of_int n

(* The same, inside [Machine.run]: hash at 50% updates, 64 threads,
   eviction 0.01 — the flush, fence, pending write-back and eviction
   paths that setup mode skips. Each step also pays the continuation the
   runtime makes when the fiber yields. *)
let run_words ~n =
  let (module S : I.SET) = set "hash" "nvt" in
  let m =
    Machine.create ~seed:1 ~eviction:(Machine.Random_eviction 0.01) ~jitter:2
      ()
  in
  let t = S.create () in
  let range = 2048 and threads = 64 in
  List.iter
    (fun k -> ignore (S.insert t ~key:k ~value:k))
    (W.prefill_keys ~range);
  Machine.persist_all m;
  for th = 0 to threads - 1 do
    let g = W.gen ~seed:(977 + th) ~mix:(W.updates ~pct:50) ~range in
    let ops = Array.init (n / threads) (fun _ -> W.next g) in
    ignore (Machine.spawn m (fun () -> Array.iter (apply (module S) t) ops))
  done;
  let w0 = Gc.minor_words () in
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> Alcotest.fail "unrequested crash");
  (Gc.minor_words () -. w0) /. float_of_int (n / threads * threads)

(* [reached] is the figure the allocation-lean path reached on OCaml
   5.1 and [before] what the same stream allocated before the typed
   boundary; each ceiling sits about 10% above [reached] and below
   [before]. *)
type budget = {
  name : string;
  structure : string;
  policy : string;
  range : int;
  update_pct : int;
  ceiling : float;
  reached : float;
  before : float;
}

let budgets =
  let b name structure policy range update_pct ceiling reached before =
    { name; structure; policy; range; update_pct; ceiling; reached; before }
  in
  [ b "list lookup, nvt" "list" "nvt" 64 0 11. 10.0 30.9;
    b "list lookup, volatile" "list" "volatile" 64 0 11. 10.0 14.0;
    b "hash lookup, nvt" "hash" "nvt" 2048 0 11. 10.0 28.5;
    b "hash lookup, volatile" "hash" "volatile" 2048 0 11. 10.0 14.0;
    b "hash 50% updates, nvt" "hash" "nvt" 2048 50 20.5 18.4 37.3;
    b "hash 50% updates, volatile" "hash" "volatile" 2048 50 20.5 18.4 22.4;
    b "skiplist lookup, nvt" "skiplist" "nvt" 2048 0 20. 18.0 42.0;
    b "skiplist lookup, volatile" "skiplist" "volatile" 2048 0 20. 18.0 25.0;
    b "ellen bst lookup, nvt" "bst-ellen" "nvt" 2048 0 23. 21.0 63.0;
    b "ellen bst lookup, volatile" "bst-ellen" "volatile" 2048 0 23. 21.0
      33.0;
    b "natarajan bst lookup, nvt" "bst-nm" "nvt" 2048 0 21. 19.0 49.0;
    b "natarajan bst lookup, volatile" "bst-nm" "volatile" 2048 0 21. 19.0
      29.0 ]

let measure b =
  setup_words ~structure:b.structure ~policy:b.policy ~range:b.range
    ~update_pct:b.update_pct ~n:4000

let setup_budgets () =
  let over =
    List.filter_map
      (fun b ->
        assert (b.reached <= b.ceiling && b.ceiling < b.before);
        let w = measure b in
        if w > b.ceiling then
          Some
            (Printf.sprintf "%s: %.1f words/op, ceiling %.1f (reached %.1f)"
               b.name w b.ceiling b.reached)
        else None)
      budgets
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

(* The transformation's host-side cost: an nvt op allocates what the
   volatile original allocates, plus at most 4 words — the boundary
   names its cells without boxing them. *)
let nvt_near_volatile () =
  let wide =
    List.filter_map
      (fun b ->
        if b.policy <> "nvt" then None
        else
          let twin =
            List.find
              (fun v ->
                v.policy = "volatile" && v.structure = b.structure
                && v.range = b.range && v.update_pct = b.update_pct)
              budgets
          in
          let w = measure b and v = measure twin in
          if w > v +. 4. then
            Some
              (Printf.sprintf "%s: %.1f words/op, volatile %.1f" b.name w v)
          else None)
      budgets
  in
  Alcotest.(check int) "nvt rows" 6
    (List.length (List.filter (fun b -> b.policy = "nvt") budgets));
  if wide <> [] then Alcotest.fail (String.concat "; " wide)

(* 38.3 words per op on OCaml 5.1, down from 57.3 before the typed
   boundary and 148.4 before the allocation-lean path (9.5 steps per
   op); the ceiling leaves room for most of one more word per step,
   should a runtime make its continuations larger. *)
let run_budget () =
  let w = run_words ~n:6400 in
  if w > 46. then
    Alcotest.failf "hash updates under Machine.run: %.1f words/op, ceiling 46" w

let suite =
  [ QCheck_alcotest.to_alcotest coin_matches_stdlib;
    Alcotest.test_case "the coin allocates nothing" `Quick
      coin_allocates_nothing;
    Alcotest.test_case "a never-persisted cell stays dirty" `Quick
      never_persisted_stays_dirty;
    Alcotest.test_case "setup-mode ops stay within their allocation budget"
      `Quick setup_budgets;
    Alcotest.test_case "simulated hash updates stay within their budget"
      `Quick run_budget;
    Alcotest.test_case "nvt setup-mode ops allocate what volatile ones do"
      `Quick nvt_near_volatile ]
