type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_repr f =
  if not (Float.is_finite f) then "null"
  else begin
    (* Shortest representation that still round-trips well enough for a
       report; %.12g avoids the noise of full 17-digit output. *)
    let s = Printf.sprintf "%.12g" f in
    if String.contains s '.' || String.contains s 'e' || String.contains s 'n' then s
    else s ^ ".0"
  end

let printed f = if Float.is_finite f then float_of_string (Printf.sprintf "%.12g" f) else f

let rec emit buf ~indent ~level v =
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let newline () = if indent then Buffer.add_char buf '\n' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      newline ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            newline ()
          end;
          pad (level + 1);
          emit buf ~indent ~level:(level + 1) item)
        items;
      newline ();
      pad level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      newline ();
      List.iteri
        (fun i (key, value) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            newline ()
          end;
          pad (level + 1);
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape key);
          Buffer.add_string buf (if indent then "\": " else "\":");
          emit buf ~indent ~level:(level + 1) value)
        fields;
      newline ();
      pad level;
      Buffer.add_char buf '}'

let render ~indent v =
  let buf = Buffer.create 256 in
  emit buf ~indent ~level:0 v;
  Buffer.contents buf

let to_string v = render ~indent:false v
let to_string_pretty v = render ~indent:true v

(* Recursive-descent parser for the same value space the emitter covers
   (RFC 8259 minus \u surrogate pairing, which none of our reports emit).
   Numbers parse as [Int] when they are integral and fit a native int,
   [Float] otherwise, matching what the emitters above produce. *)

exception Parse_error of string * int

let of_string input =
  let len = String.length input in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (msg, !pos)) in
  let peek () = if !pos < len then Some input.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while (match peek () with Some (' ' | '\t' | '\n' | '\r') -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    String.iter expect word;
    value
  in
  let string_value () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> advance (); Buffer.add_char buf '"'
          | Some '\\' -> advance (); Buffer.add_char buf '\\'
          | Some '/' -> advance (); Buffer.add_char buf '/'
          | Some 'b' -> advance (); Buffer.add_char buf '\b'
          | Some 'f' -> advance (); Buffer.add_char buf '\012'
          | Some 'n' -> advance (); Buffer.add_char buf '\n'
          | Some 'r' -> advance (); Buffer.add_char buf '\r'
          | Some 't' -> advance (); Buffer.add_char buf '\t'
          | Some 'u' ->
              advance ();
              let code = ref 0 in
              for _ = 1 to 4 do
                (match peek () with
                | Some ('0' .. '9' as c) -> code := (!code * 16) + (Char.code c - Char.code '0')
                | Some ('a' .. 'f' as c) -> code := (!code * 16) + (Char.code c - Char.code 'a' + 10)
                | Some ('A' .. 'F' as c) -> code := (!code * 16) + (Char.code c - Char.code 'A' + 10)
                | _ -> fail "bad \\u escape");
                advance ()
              done;
              (* UTF-8 encode the code point (no surrogate pairing). *)
              if !code < 0x80 then Buffer.add_char buf (Char.chr !code)
              else if !code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (!code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (!code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (!code lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((!code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (!code land 0x3F)))
              end
          | _ -> fail "bad escape");
          loop ()
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let number_value () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let n = ref 0 in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        advance ();
        incr n
      done;
      if !n = 0 then fail "expected digit"
    in
    (match peek () with
    | Some '0' -> advance ()
    | Some '1' .. '9' -> digits ()
    | _ -> fail "expected number");
    let integral = ref true in
    if peek () = Some '.' then begin
      integral := false;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        integral := false;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub input start (!pos - start) in
    if !integral then
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
    else Float (float_of_string text)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let key = string_value () in
            skip_ws ();
            expect ':';
            let v = value () in
            fields := (key, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          List (List.rev !items)
        end
    | Some '"' -> Str (string_value ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number_value ()
    | _ -> fail "expected a JSON value"
  in
  match value () with
  | v ->
      skip_ws ();
      if !pos <> len then Error (Printf.sprintf "trailing garbage at byte %d" !pos) else Ok v
  | exception Parse_error (msg, at) -> Error (Printf.sprintf "%s at byte %d" msg at)

(* Access helpers for consumers that walk parsed reports. *)
let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_list_opt = function List items -> Some items | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None

(* Typed decoding for the harnesses' [of_json] readers: every error names
   the field, or the list index, it could not read. *)
let field key conv v =
  match Option.bind (member key v) conv with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "missing or mistyped %S" key)

let expect key want v =
  if member key v = Some want then Ok ()
  else Error (Printf.sprintf "missing %S: %s marker" key (to_string want))

let items key decode v =
  match Option.bind (member key v) to_list_opt with
  | None | Some [] -> Error (Printf.sprintf "missing or empty %S list" key)
  | Some xs ->
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest -> (
            match decode x with
            | Ok d -> go (i + 1) (d :: acc) rest
            | Error e -> Error (Printf.sprintf "%s[%d]: %s" key i e))
      in
      go 0 [] xs

(* Leaves compare by rendering, so a stored %.12g float matches the value
   it was printed from. *)
let diff ~expected actual =
  let rec go path expected actual =
    let at key = if path = "" then key else path ^ "." ^ key in
    match (expected, actual) with
    | Obj fields, Obj _ ->
        List.find_map
          (fun (key, e) ->
            match member key actual with
            | None -> Some (at key ^ " is missing")
            | Some a -> go (at key) e a)
          fields
    | List es, List actuals when List.length es = List.length actuals ->
        List.find_mapi
          (fun i (e, a) -> go (Printf.sprintf "%s[%d]" path i) e a)
          (List.combine es actuals)
    | _ ->
        let e = to_string expected and a = to_string actual in
        if e = a then None else Some (Printf.sprintf "%s is %s, recomputed %s" path a e)
  in
  go "" expected actual
