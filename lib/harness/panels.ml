(* One panel per figure of the paper's evaluation (Figures 5a-f on the
   NVRAM cost profile, 6g-o on the DRAM profile). Each panel prints the
   throughput series the figure plots, plus the flush/fence mix per
   operation that explains them. Every sweep point of every series is
   one run of the set-run driver ([Crashlab.run]): the structure
   prefilled to half its key range and persisted, then the point's
   threads splitting its op budget, thread [tid] drawing from stream
   seed [seed * 977 + tid], with jitter 2 to break scheduling ties.
   Sizes marked "(scaled)" in DESIGN.md are reduced to simulation
   scale; EXPERIMENTS.md records the mapping and compares shapes
   against the paper. *)

module Cost_model = Nvt_nvm.Cost_model
module Workload = Nvt_workload.Workload
open Instances

type scale = Quick | Full

type sweep = Threads of int list | Range of int list | Updates of int list

type panel = {
  id : string;
  title : string;  (* built by [with_title] from the fields below *)
  cost : Cost_model.t;
  series : series list;
  sweep : sweep;
  threads : int;  (* fixed thread count when sweeping range/updates *)
  range : int;  (* fixed range when sweeping threads/updates *)
  mix : Workload.mix;  (* fixed mix when sweeping threads/range *)
  base_ops : int;  (* measured ops per sweep point at scale=Quick *)
}

let threads_sweep scale =
  match scale with
  | Quick -> [ 1; 2; 4; 8; 16 ]
  | Full -> [ 1; 2; 4; 8; 16; 32; 48; 64 ]

let updates_sweep = [ 0; 5; 10; 20; 50; 100 ]

let list_sizes scale =
  match scale with
  | Quick -> [ 128; 256; 512; 1024; 2048 ]
  | Full -> [ 128; 256; 512; 1024; 2048; 4096; 8192 ]

let big_range scale = match scale with Quick -> 8192 | Full -> 65536

let sweep_label = function
  | Threads _ -> "threads"
  | Range _ -> "size"
  | Updates _ -> "update%"

(* "<structure>: throughput vs <sweep> (<fixed parameters>) [<cost>]".
   The fixed thread count and key range are read from the panel's own
   fields, so the printed title cannot disagree with what the panel
   runs. *)
let with_title p =
  let lookups =
    Printf.sprintf "%d%% lookups" (100 - Workload.update_pct p.mix)
  in
  let keys = Printf.sprintf "%d of %d keys" (p.range / 2) p.range in
  let fixed =
    match p.sweep with
    | Threads _ -> [ lookups; keys ]
    | Range _ -> [ Printf.sprintf "%d threads" p.threads; lookups ]
    | Updates _ -> [ Printf.sprintf "%d threads" p.threads; keys ]
  in
  { p with
    title =
      Printf.sprintf "%s: throughput vs %s (%s) [%s]" p.title
        (sweep_label p.sweep) (String.concat ", " fixed)
        (String.uppercase_ascii p.cost.Cost_model.name) }

(* Each [title] below names only the structure; [with_title] completes
   it. *)
let panels scale =
  let nvram = Cost_model.nvram and dram = Cost_model.dram in
  let big = big_range scale in
  [ { id = "5a";
      title = "Linked list";
      cost = nvram;
      series = list_series ~with_onefile:true ~with_lp:false;
      sweep = Threads (threads_sweep scale);
      threads = 16;
      range = 1024;
      mix = Workload.default;
      base_ops = 2000 };
    { id = "5b";
      title = "Linked list";
      cost = nvram;
      series = list_series ~with_onefile:true ~with_lp:false;
      sweep = Range (list_sizes scale);
      threads = 16;
      range = 1024;
      mix = Workload.default;
      base_ops = 2000 };
    { id = "5c";
      title = "Linked list";
      cost = nvram;
      series = list_series ~with_onefile:true ~with_lp:false;
      sweep = Updates updates_sweep;
      threads = 16;
      range = 1000;
      mix = Workload.default;
      base_ops = 2000 };
    { id = "5d";
      title = "Hash table";
      cost = nvram;
      series = hash_series ~with_lp:false;
      sweep = Updates updates_sweep;
      threads = 16;
      range = big;
      mix = Workload.default;
      base_ops = 20000 };
    { id = "5e";
      title = "BST";
      cost = nvram;
      (* the O(n)-transaction PTM set is impractical on full-scale tree
         panels; its comparison lives on the list panels *)
      series = bst_series ~with_onefile:(scale = Quick) ~with_lp:false;
      sweep = Updates updates_sweep;
      threads = 16;
      range = big;
      mix = Workload.default;
      base_ops = 10000 };
    { id = "5f";
      title = "Skiplist";
      cost = nvram;
      series = skiplist_series ~with_lp:false;
      sweep = Updates updates_sweep;
      threads = 16;
      range = big;
      mix = Workload.default;
      base_ops = 10000 };
    { id = "6g";
      title = "Linked list";
      cost = dram;
      series = list_series ~with_onefile:false ~with_lp:true;
      sweep = Threads (threads_sweep scale);
      threads = 16;
      range = (match scale with Quick -> 2048 | Full -> 16384);
      mix = Workload.default;
      base_ops = 1000 };
    { id = "6h";
      title = "Linked list";
      cost = dram;
      series = list_series ~with_onefile:true ~with_lp:true;
      sweep = Updates updates_sweep;
      threads = (match scale with Quick -> 16 | Full -> 64);
      range = (match scale with Quick -> 2048 | Full -> 16384);
      mix = Workload.default;
      base_ops = 1000 };
    { id = "6i";
      title = "Linked list";
      cost = dram;
      series = list_series ~with_onefile:false ~with_lp:true;
      sweep = Range (list_sizes scale);
      threads = (match scale with Quick -> 16 | Full -> 64);
      range = 1024;
      mix = Workload.default;
      base_ops = 1000 };
    { id = "6j";
      title = "Hash table";
      cost = dram;
      series = hash_series ~with_lp:true;
      sweep = Threads (threads_sweep scale);
      threads = 16;
      range = big;
      mix = Workload.default;
      base_ops = 20000 };
    { id = "6k";
      title = "Hash table";
      cost = dram;
      series = hash_series ~with_lp:true;
      sweep = Updates updates_sweep;
      threads = 16;
      range = big;
      mix = Workload.default;
      base_ops = 20000 };
    { id = "6l";
      title = "Hash table";
      cost = dram;
      series = hash_series ~with_lp:true;
      sweep =
        Range
          (match scale with
          | Quick -> [ 1024; 4096; 16384 ]
          | Full -> [ 1024; 4096; 16384; 65536; 262144 ]);
      threads = 16;
      range = big;
      mix = Workload.default;
      base_ops = 20000 };
    { id = "6m";
      title = "BST";
      cost = dram;
      series = bst_series ~with_onefile:false ~with_lp:true;
      sweep = Updates updates_sweep;
      threads = 16;
      range = big;
      mix = Workload.default;
      base_ops = 10000 };
    { id = "6n";
      title = "Skiplist";
      cost = dram;
      series = skiplist_series ~with_lp:true;
      sweep = Threads (threads_sweep scale);
      threads = 16;
      range = big;
      mix = Workload.updates ~pct:20;
      base_ops = 10000 };
    { id = "6o";
      title = "Skiplist";
      cost = dram;
      series = skiplist_series ~with_lp:true;
      sweep = Updates updates_sweep;
      threads = (match scale with Quick -> 16 | Full -> 64);
      range = big;
      mix = Workload.default;
      base_ops = 10000 }
  ]
  |> List.map with_title

let sweep_points = function
  | Threads ts -> List.map (fun t -> (string_of_int t, `Threads t)) ts
  | Range rs -> List.map (fun r -> (string_of_int r, `Range r)) rs
  | Updates us -> List.map (fun u -> (string_of_int u, `Updates u)) us

(* One sweep point of one series: the total op budget is scaled by the
   series' [ops_scale] and never falls below one op per thread. *)
let spec_for panel (series : series) point ~seed =
  let threads, range, mix =
    match point with
    | `Threads t -> (t, panel.range, panel.mix)
    | `Range r -> (panel.threads, r, panel.mix)
    | `Updates u -> (panel.threads, panel.range, Workload.updates ~pct:u)
  in
  { (Crashlab.spec series.set) with
    threads;
    ops =
      max threads
        (int_of_float (float_of_int panel.base_ops *. series.ops_scale));
    range;
    mix;
    seed;
    stream_seed = Crashlab.thread_streams;
    cost = panel.cost;
    jitter = 2 }

(* A measured point: throughput is operations per 1e3 simulated time
   units, Mops/s in the cost models' nanoseconds. *)
type point = { x : int; ops : int; makespan : int; stats : Nvt_nvm.Stats.t }

let mops p = 1e3 *. float_of_int p.ops /. float_of_int p.makespan
let per_op p n = float_of_int n /. float_of_int p.ops

let point_value = function `Threads n | `Range n | `Updates n -> n

(* Runs one panel, printing the human-readable table as before, and
   returns the panel's telemetry as a JSON object: per-series sweep
   points (throughput plus the flush/fence mix at every point, not just
   the last), the series' aggregate counters, and the per-site
   attribution table that explains where the flushes and fences come
   from. Every sweep point sizes the hash directory to about one key per
   bucket (only hash series read it); the caller's size is restored on
   return. *)
let run_panel ?(seed = 1) (panel : panel) =
  let buckets = !Instances.hash_buckets in
  Fun.protect ~finally:(fun () -> Instances.hash_buckets := buckets)
  @@ fun () ->
  Printf.printf "\n# Fig %s — %s\n" panel.id panel.title;
  Printf.printf "%-8s" (sweep_label panel.sweep);
  List.iter (fun s -> Printf.printf " %12s" s.label) panel.series;
  print_newline ();
  let mix_totals = Hashtbl.create 8 in
  (* per-series accumulators, in panel.series order *)
  let points = Hashtbl.create 8 in
  let totals = Hashtbl.create 8 in
  List.iter
    (fun (label, point) ->
      Printf.printf "%-8s" label;
      List.iter
        (fun series ->
          let s = spec_for panel series point ~seed in
          Instances.hash_buckets := max 16 (s.range / 2);
          let r = Crashlab.run s in
          let p =
            { x = point_value point;
              ops = s.ops;
              makespan = max 1 r.makespan;
              stats = r.stats }
          in
          Hashtbl.replace mix_totals series.label
            (per_op p p.stats.flushes, per_op p p.stats.fences);
          Hashtbl.replace points series.label
            (p :: Option.value (Hashtbl.find_opt points series.label) ~default:[]);
          let acc =
            match Hashtbl.find_opt totals series.label with
            | Some acc -> acc
            | None ->
              let acc = Nvt_nvm.Stats.zero () in
              Hashtbl.add totals series.label acc;
              acc
          in
          Nvt_nvm.Stats.accumulate ~into:acc p.stats;
          Printf.printf " %12.3f" (mops p))
        panel.series;
      print_newline ())
    (sweep_points panel.sweep);
  Printf.printf "(flushes/op, fences/op at last point:";
  List.iter
    (fun s ->
      match Hashtbl.find_opt mix_totals s.label with
      | Some (fl, fe) -> Printf.printf " %s=%.1f/%.1f" s.label fl fe
      | None -> ())
    panel.series;
  Printf.printf ")\n%!";
  let series_json (s : series) =
    let pts = List.rev (Option.value (Hashtbl.find_opt points s.label) ~default:[]) in
    let st =
      match Hashtbl.find_opt totals s.label with
      | Some st -> st
      | None -> Nvt_nvm.Stats.zero ()
    in
    let durable =
      match s.policy with
      | None -> Json.Null
      | Some key -> (
        match Instances.flavour key with
        | None -> Json.Null
        | Some f ->
          let (module Pol : Instances.POLICY) = f.policy in
          Json.Bool Pol.durable)
    in
    Json.Obj
      [ ("label", Json.Str s.label);
        ("policy",
         match s.policy with None -> Json.Null | Some k -> Json.Str k);
        ("durable", durable);
        ("points",
         Json.List
           (List.map
              (fun p ->
                let st = p.stats in
                Json.Obj
                  [ ("x", Json.Int p.x);
                    ("mops", Json.Float (mops p));
                    ("flushes_per_op", Json.Float (per_op p st.flushes));
                    ("fences_per_op", Json.Float (per_op p st.fences));
                    ("cas_failure_rate",
                     Json.Float
                       (if st.cas = 0 then 0.0
                        else
                          float_of_int st.cas_failures /. float_of_int st.cas));
                    ("ops", Json.Int p.ops);
                    ("makespan", Json.Int p.makespan) ])
              pts));
        ("totals",
         Json.Obj
           [ ("flushes", Json.Int st.Nvt_nvm.Stats.flushes);
             ("fences", Json.Int st.fences);
             ("cas", Json.Int st.cas);
             ("cas_failures", Json.Int st.cas_failures) ]);
        ("sites", Json.sites st) ]
  in
  Json.Obj
    [ ("id", Json.Str panel.id);
      ("title", Json.Str panel.title);
      ("sweep", Json.Str (sweep_label panel.sweep));
      ("series", Json.List (List.map series_json panel.series)) ]

let all_ids scale = List.map (fun p -> p.id) (panels scale)

(* Every id is resolved before any panel runs, so a typo fails fast
   instead of running (and writing JSON for) a partial selection. *)
let run ?seed ?json_path ~scale ids =
  let available = panels scale in
  let find id =
    match List.find_opt (fun p -> p.id = id) available with
    | Some p -> p
    | None ->
      invalid_arg
        (Printf.sprintf "unknown panel %s (available: %s)" id
           (String.concat " " (all_ids scale)))
  in
  let chosen = if ids = [] then available else List.map find ids in
  let panel_objs = List.map (run_panel ?seed) chosen in
  match json_path with
  | None -> ()
  | Some path ->
    Json.write_file path
      (Json.Obj
         [ ("schema", Json.Str "nvtraverse-panels/1");
           ("scale",
            Json.Str (match scale with Quick -> "quick" | Full -> "full"));
           ("seed", Json.Int (Option.value seed ~default:1));
           ("panels", Json.List panel_objs) ]);
    Printf.printf "wrote %s\n%!" path
