(* A minimal JSON tree, parser and deterministic printer.

   The container carries no JSON dependency, and the repo needs more
   than the ad-hoc scanners the bench harness used to carry: the
   versioned report wire format (Report.to_json/of_json), the
   scenario records embedded in sweep documents (Scenario.to_json) and
   the sweep engine's results documents.  Scope is exactly
   RFC 8259 minus the freedoms we never exercise: numbers are OCaml
   ints or floats (no bignums), strings are OCaml strings with the
   standard escapes (\uXXXX accepted on input for the BMP, emitted
   only for control characters), and object keys keep their order —
   printing is canonical-by-construction, which is what the sweep
   determinism witness byte-compares. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* -- float formatting --------------------------------------------------- *)

(* Shortest decimal representation that round-trips the double: try
   increasing precision until re-parsing restores the exact value.
   Deterministic, locale-independent, human-readable. *)
let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let try_prec p =
      let s = Printf.sprintf "%.*g" p f in
      if float_of_string s = f then Some s else None
    in
    match try_prec 12 with
    | Some s -> s
    | None -> (
        match try_prec 15 with
        | Some s -> s
        | None -> Printf.sprintf "%.17g" f)

(* -- printing ----------------------------------------------------------- *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec print ?(indent = 0) b v =
  let pad n = String.make n ' ' in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_to_string f)
  | String s -> escape_string b s
  | List [] -> Buffer.add_string b "[]"
  | List items ->
      Buffer.add_string b "[";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string b ",";
          Buffer.add_string b ("\n" ^ pad (indent + 2));
          print ~indent:(indent + 2) b item)
        items;
      Buffer.add_string b ("\n" ^ pad indent ^ "]")
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
      Buffer.add_string b "{";
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_string b ",";
          Buffer.add_string b ("\n" ^ pad (indent + 2));
          escape_string b k;
          Buffer.add_string b ": ";
          print ~indent:(indent + 2) b item)
        fields;
      Buffer.add_string b ("\n" ^ pad indent ^ "}")

let to_string v =
  let b = Buffer.create 1024 in
  print b v;
  Buffer.add_char b '\n';
  Buffer.contents b

let rec print_compact b v =
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_to_string f)
  | String s -> escape_string b s
  | List items ->
      Buffer.add_string b "[";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string b ",";
          print_compact b item)
        items;
      Buffer.add_string b "]"
  | Obj fields ->
      Buffer.add_string b "{";
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_string b ",";
          escape_string b k;
          Buffer.add_string b ":";
          print_compact b item)
        fields;
      Buffer.add_string b "}"

let to_string_compact v =
  let b = Buffer.create 256 in
  print_compact b v;
  Buffer.contents b

(* -- parsing ------------------------------------------------------------ *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal lit v =
    let m = String.length lit in
    if !pos + m <= n && String.sub s !pos m = lit then begin
      pos := !pos + m;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            if !pos >= n then fail "unterminated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                let hex4 () =
                  if !pos + 4 >= n then fail "truncated \\u escape";
                  let hex = String.sub s (!pos + 1) 4 in
                  let code =
                    match int_of_string_opt ("0x" ^ hex) with
                    | Some c -> c
                    | None -> fail "bad \\u escape"
                  in
                  pos := !pos + 4;
                  code
                in
                let code = hex4 () in
                let code =
                  (* RFC 8259 §7: code points above the BMP arrive as a
                     UTF-16 surrogate pair; decode it to the real code
                     point instead of emitting CESU-8.  An unpaired
                     surrogate denotes no character at all. *)
                  if code >= 0xD800 && code <= 0xDBFF then begin
                    if
                      not
                        (!pos + 2 < n && s.[!pos + 1] = '\\' && s.[!pos + 2] = 'u')
                    then fail "high surrogate not followed by \\u escape";
                    pos := !pos + 2;
                    let low = hex4 () in
                    if low < 0xDC00 || low > 0xDFFF then
                      fail "high surrogate not followed by a low surrogate";
                    0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                  end
                  else if code >= 0xDC00 && code <= 0xDFFF then fail "unpaired low surrogate"
                  else code
                in
                (* UTF-8 encode the code point. *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
                else if code < 0x10000 then begin
                  Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
                  Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
            | c -> fail (Printf.sprintf "bad escape \\%C" c));
            advance ();
            go ()
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' -> true
      | '.' | 'e' | 'E' | '+' | '-' ->
          is_float := true;
          true
      | _ -> false
    do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with Some f -> Float f | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with Some f -> Float f | None -> fail "bad number")
  in
  (* Containers recurse; a hostile or corrupted document of nothing
     but open brackets must come back as [Error], not a stack
     overflow.  512 is far beyond anything the repo's wire formats
     nest and far below any stack limit. *)
  let max_depth = 512 in
  let depth = ref 0 in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        incr depth;
        if !depth > max_depth then fail "nesting too deep";
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          decr depth;
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields_loop ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          fields_loop ();
          decr depth;
          Obj (List.rev !fields)
        end
    | Some '[' ->
        incr depth;
        if !depth > max_depth then fail "nesting too deep";
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          decr depth;
          List []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items_loop ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          items_loop ();
          decr depth;
          List (List.rev !items)
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match parse_value () with
  | v ->
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing data at offset %d" !pos) else Ok v
  | exception Parse_error msg -> Error msg

(* -- accessors ---------------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None

let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
