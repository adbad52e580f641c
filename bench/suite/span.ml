(* Wall-clock time and trace spans for the suite.

   Every duration the suite reports comes from [now_ns], the kernel's
   monotonic clock read through bechamel's noalloc stub: it resolves
   single native operations, where [Unix.gettimeofday] quantizes to
   about a microsecond.

   Spans are recorded by the suite around its calls into each layer,
   kept in memory, and written at exit as Chrome trace-event JSON
   (open it in https://ui.perfetto.dev or chrome://tracing). A span's
   self time is its duration minus the union of its children's
   intervals; children on other domains may overlap each other. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  tid : int;  (** 0: the main domain; d: native domain body d *)
  start : int;
  stop : int;
}

let enabled = ref false
let spans : span list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let current_parent () = match !open_ids with p :: _ -> p | [] -> -1

let add ?(tid = 0) ~name ~start ~stop () =
  if !enabled then begin
    let id = !next_id in
    incr next_id;
    spans := { id; name; parent = current_parent (); tid; start; stop } :: !spans
  end

(* [with_ name f] runs [f] inside a span named [name], nested under the
   innermost open span. *)
let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = current_parent () in
    open_ids := id :: !open_ids;
    let start = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        open_ids := List.tl !open_ids;
        spans := { id; name; parent; tid = 0; start; stop = now_ns () } :: !spans)
      f
  end

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if a < b then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec merge total cur = function
    | [] -> ( match cur with None -> total | Some (a, b) -> total + (b - a))
    | (a, b) :: rest -> (
      match cur with
      | Some (ca, cb) when a <= cb -> merge total (Some (ca, max cb b)) rest
      | Some (ca, cb) -> merge (total + (cb - ca)) (Some (a, b)) rest
      | None -> merge total (Some (a, b)) rest)
  in
  merge 0 None clipped

let self_ns all =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.add children s.parent (s.start, s.stop))
    all;
  fun s ->
    s.stop - s.start
    - covered ~lo:s.start ~hi:s.stop (Hashtbl.find_all children s.id)

(* Per span name: count, total and self time in seconds, in order of
   first start. *)
let table () =
  let all = List.rev !spans in
  let self = self_ns all in
  let rows = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun s ->
      let n, tot, slf =
        match Hashtbl.find_opt rows s.name with
        | Some r -> r
        | None ->
          order := s.name :: !order;
          (0, 0, 0)
      in
      Hashtbl.replace rows s.name (n + 1, tot + (s.stop - s.start), slf + self s))
    (List.sort (fun a b -> compare a.start b.start) all);
  List.rev_map
    (fun name ->
      let n, tot, slf = Hashtbl.find rows name in
      (name, n, float_of_int tot *. 1e-9, float_of_int slf *. 1e-9))
    !order

let chrome_json () : Nvt_harness.Json.t =
  let open Nvt_harness.Json in
  let all = List.rev !spans in
  let self = self_ns all in
  let t0 = List.fold_left (fun m s -> min m s.start) max_int all in
  let us ns = Float (float_of_int ns /. 1e3) in
  Obj
    [ ( "traceEvents",
        List
          (List.map
             (fun s ->
               Obj
                 [ ("name", Str s.name);
                   ("cat", Str "suite");
                   ("ph", Str "X");
                   ("ts", us (s.start - t0));
                   ("dur", us (s.stop - s.start));
                   ("pid", Int 1);
                   ("tid", Int s.tid);
                   ( "args",
                     Obj
                       [ ("id", Int s.id);
                         ("parent", Int s.parent);
                         ("self_us", us (self s)) ] ) ])
             all) );
      ("displayTimeUnit", Str "ms") ]
