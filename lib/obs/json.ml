type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* [indent = None] writes one line; [Some n] pretty-prints an object's
   members at column [n + 2]. *)
let rec emit b indent = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      if Float.is_nan f || Float.abs f = Float.infinity then
        Buffer.add_string b "null"
      else Buffer.add_string b (Printf.sprintf "%.6g" f)
  | String s -> Buffer.add_string b (Printf.sprintf "\"%s\"" (escape s))
  | Obj fields ->
      let inner = Option.map (fun n -> n + 2) indent in
      Buffer.add_char b '{';
      List.iteri
        (fun i (key, v) ->
          (match inner with
          | None -> if i > 0 then Buffer.add_string b ", "
          | Some n ->
              if i > 0 then Buffer.add_char b ',';
              Buffer.add_char b '\n';
              Buffer.add_string b (String.make n ' '));
          Buffer.add_string b (Printf.sprintf "\"%s\": " (escape key));
          emit b inner v)
        fields;
      (match indent with
      | Some n when fields <> [] ->
          Buffer.add_char b '\n';
          Buffer.add_string b (String.make n ' ')
      | _ -> ());
      Buffer.add_char b '}'

let to_string t =
  let b = Buffer.create 1024 in
  emit b (Some 0) t;
  Buffer.add_char b '\n';
  Buffer.contents b

let add_line b t = emit b None t
