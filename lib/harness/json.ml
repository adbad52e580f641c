(* A minimal JSON emitter and parser for the benchmark harness.

   The repository deliberately has no JSON dependency; the machine-
   readable records ([BENCH_panels.json], [BENCH_experiments.json], the
   mutation reports) need only the handful of shapes below, so a small
   constructor set, a correct string escaper and a strict parser for
   reading records back are the whole surface. The output is stable:
   object fields print in the order given, floats print with [%.6g],
   and non-finite floats (a degenerate regression, a zero-op series)
   become [null] so every consumer can parse the file with a strict
   JSON parser. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.6g" f)
    else Buffer.add_string b "null"
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | List xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        emit b x)
      xs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        emit b (Str k);
        Buffer.add_char b ':';
        emit b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 4096 in
  emit b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(* A strict recursive-descent parser for the same subset the emitter
   produces, so reports can round-trip through their own telemetry
   (the mutation tests re-read MUTATION_report.json with it). Numbers
   without '.', 'e' or 'E' parse as [Int], everything else as [Float];
   [\uXXXX] escapes decode to UTF-8. *)

exception Parse_error of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let string_body () =
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char b '"'; advance ()
        | Some '\\' -> Buffer.add_char b '\\'; advance ()
        | Some '/' -> Buffer.add_char b '/'; advance ()
        | Some 'n' -> Buffer.add_char b '\n'; advance ()
        | Some 'r' -> Buffer.add_char b '\r'; advance ()
        | Some 't' -> Buffer.add_char b '\t'; advance ()
        | Some 'b' -> Buffer.add_char b '\b'; advance ()
        | Some 'f' -> Buffer.add_char b '\012'; advance ()
        | Some 'u' ->
          advance ();
          Buffer.add_utf_8_uchar b (Uchar.of_int (hex4 ()))
        | _ -> fail "bad escape");
        go ())
      | Some c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    let floaty =
      String.exists (function '.' | 'e' | 'E' -> true | _ -> false) tok
    in
    if floaty then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> fail (Printf.sprintf "bad number %S" tok)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' ->
      advance ();
      Str (string_body ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else
        let field () =
          skip_ws ();
          expect '"';
          let k = string_body () in
          skip_ws ();
          expect ':';
          (k, value ())
        in
        let rec fields acc =
          let kv = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields (kv :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev (kv :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
    | Some _ -> number ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

(* Accessors for consumers of parsed telemetry (tests, the mutate
   gate); they fail loudly rather than defaulting. *)

let member key = function
  | Obj fields -> (
    match List.assoc_opt key fields with
    | Some v -> v
    | None -> raise (Parse_error ("missing field " ^ key)))
  | _ -> raise (Parse_error ("not an object looking up " ^ key))

let to_list = function
  | List xs -> xs
  | _ -> raise (Parse_error "not a list")

let to_string_exn = function
  | Str s -> s
  | _ -> raise (Parse_error "not a string")

let to_int_exn = function
  | Int i -> i
  | _ -> raise (Parse_error "not an int")

let write_file path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string v);
      output_char oc '\n')

(* The per-site attribution table of a stats delta, heaviest site
   first — shared by the panels and crashlab emitters. *)
let sites (st : Nvt_nvm.Stats.t) =
  List
    (List.map
       (fun (name, { Nvt_nvm.Stats.s_flushes; s_fences; s_cas }) ->
         Obj
           [ ("site", Str name);
             ("flushes", Int s_flushes);
             ("fences", Int s_fences);
             ("cas", Int s_cas) ])
       (Nvt_nvm.Stats.sites st))
