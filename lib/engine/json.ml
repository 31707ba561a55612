(* Minimal JSON value + writer + parser, without a JSON dependency: the
   benchmark writes its baselines with it, and every JSON export of the
   repository (metrics JSONL, Chrome trace-event files, baselines) is
   checked by parsing it back here. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let num v = if Float.is_nan v then Null else Num v

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num v ->
    if Float.is_integer v && Float.abs v < 1e15 then
      Buffer.add_string b (Printf.sprintf "%.0f" v)
    else Buffer.add_string b (Printf.sprintf "%.9g" v)
  | Str s ->
    Buffer.add_char b '"';
    add_escaped b s;
    Buffer.add_char b '"'
  | Arr l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string b ", ";
        emit b v)
      l;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        emit b (Str k);
        Buffer.add_string b ": ";
        emit b v)
      kvs;
    Buffer.add_char b '}'

let to_string t =
  let b = Buffer.create 4096 in
  emit b t;
  Buffer.contents b

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let lit word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let digits () =
    let start = !pos in
    while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
      incr pos
    done;
    if !pos = start then fail "bad number"
  in
  (* The JSON grammar: optional minus, 0 or digits without a leading
     zero, optional fraction, optional signed exponent. *)
  let number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    if peek () = Some '0' then incr pos else digits ();
    if peek () = Some '.' then begin
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      digits ()
    | _ -> ());
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' ->
          incr pos;
          Buffer.contents b
        | '\\' ->
          incr pos;
          if !pos >= n then fail "bad escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
            let hex = if !pos + 4 < n then String.sub s (!pos + 1) 4 else "" in
            let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
            if String.length hex <> 4 || not (String.for_all is_hex hex) then
              fail "bad \\u escape";
            let code = int_of_string ("0x" ^ hex) in
            (* a surrogate half alone is no character: kept as '?' *)
            if Uchar.is_valid code then Buffer.add_utf_8_uchar b (Uchar.of_int code)
            else Buffer.add_char b '?';
            pos := !pos + 4
          | _ -> fail "bad escape");
          incr pos;
          go ()
        | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (string_lit ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
    | None -> fail "unexpected end of input"
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      incr pos;
      Arr []
    end
    else begin
      let rec items acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          items (v :: acc)
        | Some ']' ->
          incr pos;
          Arr (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']'"
      in
      items []
    end
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      incr pos;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws ();
        let k = string_lit () in
        skip_ws ();
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          incr pos;
          members ((k, v) :: acc)
        | Some '}' ->
          incr pos;
          Obj (List.rev ((k, v) :: acc))
        | _ -> fail "expected ',' or '}'"
      in
      members []
    end
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let valid s = match parse s with _ -> true | exception Parse_error _ -> false
