(* The suite's record: run metadata plus one row per metric,
   {workload, layer, metric, value, unit, exact, better}, with the
   quartiles and sample count behind [value]. Rows are the unit later
   benches fold into, and [compare] reads two records row by row.

   Floats are written with all 17 significant digits so that exact
   metrics survive a round trip bit for bit ([Json.emit] keeps six). *)

module Json = Nvt_harness.Json

type row = {
  workload : string;
  layer : string;  (** "e2e", or the layer the metric measures *)
  metric : string;
  value : float;  (** median over [samples] *)
  q1 : float;
  q3 : float;
  samples : int;
  unit : string;
  exact : bool;  (** deterministic: identical in every rep *)
  better : string;  (** "higher" or "lower" *)
}

let rec emit b = function
  | Json.Float f when Float.is_finite f ->
    Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Json.List xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        emit b x)
      xs;
    Buffer.add_char b ']'
  | Json.Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Json.to_string (Json.Str k));
        Buffer.add_char b ':';
        emit b v)
      fields;
    Buffer.add_char b '}'
  | v -> Buffer.add_string b (Json.to_string v)

let to_string v =
  let b = Buffer.create 4096 in
  emit b v;
  Buffer.contents b

let write_file path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string v);
      output_char oc '\n')

let to_float = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> raise (Json.Parse_error "not a number")

let to_bool = function
  | Json.Bool b -> b
  | _ -> raise (Json.Parse_error "not a bool")

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let median sorted =
  let n = Array.length sorted in
  if n mod 2 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.

(* First and third quartiles by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so the suite's spreads read the
   same as a script's; one sample is its own quartiles. *)
let quartiles sorted =
  let n = Array.length sorted in
  if n < 2 then (sorted.(0), sorted.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((sorted.(j - 1) *. (4. -. delta)) +. (sorted.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

(* ------------------------------------------------------------------ *)
(* Record I/O                                                          *)
(* ------------------------------------------------------------------ *)

let schema = "nvtraverse-suite/1"

let row_json r =
  Json.Obj
    [ ("workload", Json.Str r.workload);
      ("layer", Json.Str r.layer);
      ("metric", Json.Str r.metric);
      ("value", Json.Float r.value);
      ("unit", Json.Str r.unit);
      ("exact", Json.Bool r.exact);
      ("better", Json.Str r.better);
      ("q1", Json.Float r.q1);
      ("q3", Json.Float r.q3);
      ("samples", Json.Int r.samples) ]

let row_of_json j =
  let str k = Json.to_string_exn (Json.member k j) in
  let num k = to_float (Json.member k j) in
  { workload = str "workload";
    layer = str "layer";
    metric = str "metric";
    value = num "value";
    unit = str "unit";
    exact = to_bool (Json.member "exact" j);
    better = str "better";
    q1 = num "q1";
    q3 = num "q3";
    samples = Json.to_int_exn (Json.member "samples" j) }

let json ~meta rows =
  Json.Obj
    [ ("schema", Json.Str schema);
      ("meta", Json.Obj meta);
      ("rows", Json.List (List.map row_json rows)) ]

let load path =
  let j = Json.parse_file path in
  if Json.member "schema" j <> Json.Str schema then
    raise (Json.Parse_error (path ^ ": not an " ^ schema ^ " record"));
  List.map row_of_json (Json.to_list (Json.member "rows" j))

(* ------------------------------------------------------------------ *)
(* The manifest: BENCHMARK.json                                        *)
(* ------------------------------------------------------------------ *)

type spec = { name : string; unit : string; better : string; bound : float }

type manifest = { end_to_end : spec list; per_layer : spec list }

let manifest path =
  let j = Json.parse_file path in
  let specs key =
    List.map
      (fun s ->
        let str k = Json.to_string_exn (Json.member k s) in
        { name = str "name";
          unit = str "unit";
          better = str "better";
          bound =
            (match s with
            | Json.Obj f when List.mem_assoc "bound" f ->
              to_float (List.assoc "bound" f)
            | _ -> nan) })
      (Json.to_list (Json.member key j))
  in
  { end_to_end = specs "end_to_end"; per_layer = specs "per_layer" }

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

(* For every end-to-end row of [a]: an exact metric (error_rate among
   them) may not be worse in [b] at all; a wall-clock metric with a
   manifest bound may be worse by at most that share of [a]'s median; a
   wall-clock metric without a bound drifts with the host by more than
   any bound allows, so it is shown as unresolved and not judged.
   Returns the number of regressions and missing rows. *)
let compare ~manifest:m a b =
  let bad = ref 0 in
  let pp_q r = Printf.sprintf "%.6g [%.6g, %.6g]" r.value r.q1 r.q3 in
  Printf.printf "%-14s %-20s %-36s %-36s %9s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "change" "verdict";
  List.iter
    (fun ra ->
      if ra.layer = "e2e" then begin
        let found =
          List.find_opt
            (fun rb -> rb.workload = ra.workload && rb.metric = ra.metric)
            b
        in
        let verdict, b_txt, change =
          match found with
          | None -> ("MISSING", "-", "-")
          | Some rb ->
            let change =
              if ra.value = 0. then "-"
              else Printf.sprintf "%+.2f%%" (100. *. ((rb.value /. ra.value) -. 1.))
            in
            let worse =
              if ra.better = "higher" then ra.value -. rb.value
              else rb.value -. ra.value
            in
            let verdict =
              if ra.exact then
                if worse > 0. then "REGRESSION"
                else if worse < 0. then "improved"
                else "same"
              else
                match
                  List.find_opt (fun s -> s.name = ra.metric) m.end_to_end
                with
                | None -> "unresolved"
                | Some s ->
                  if worse > s.bound *. Float.abs ra.value then "REGRESSION"
                  else Printf.sprintf "ok (bound %g%%)" (100. *. s.bound)
            in
            (verdict, pp_q rb, change)
        in
        if List.mem verdict [ "MISSING"; "REGRESSION" ] then incr bad;
        Printf.printf "%-14s %-20s %-36s %-36s %9s  %s\n" ra.workload ra.metric
          (pp_q ra) b_txt change verdict
      end)
    a;
  !bad
