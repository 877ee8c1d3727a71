(* The observability layer: counter aggregation across domains, span
   nesting, trace on/off parity of experiment rows, trace-schema
   validity, and the OBSERVABILITY.md label table staying in sync with
   the labels the code actually registers.

   Test-local metrics use the reserved [test.] label prefix, which the
   documentation diff ignores (see OBSERVABILITY.md). *)

module Obs = Chronus_obs.Obs
module Pool = Chronus_parallel.Pool
module E = Chronus_experiments

(* ------------------------------------------------------------------ *)
(* A minimal JSON parser — just enough to validate trace records. The
   repo deliberately has no JSON dependency. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if peek () = Some c then advance ()
      else fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      String.iter (fun c -> expect c) word;
      v
    in
    let string_lit () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some ('"' as c) | Some ('\\' as c) | Some ('/' as c) ->
                Buffer.add_char b c;
                advance ();
                go ()
            | Some 'n' ->
                Buffer.add_char b '\n';
                advance ();
                go ()
            | Some 't' ->
                Buffer.add_char b '\t';
                advance ();
                go ()
            | Some 'u' ->
                advance ();
                for _ = 1 to 4 do
                  advance ()
                done;
                Buffer.add_char b '?';
                go ()
            | _ -> fail "bad escape")
        | Some c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    in
    let number () =
      let start = !pos in
      let num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> num_char c | None -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then (
            advance ();
            Obj [])
          else
            let rec members acc =
              skip_ws ();
              let k = string_lit () in
              skip_ws ();
              expect ':';
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected , or }"
            in
            members []
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then (
            advance ();
            Arr [])
          else
            let rec elements acc =
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  Arr (List.rev (v :: acc))
              | _ -> fail "expected , or ]"
            in
            elements []
      | Some '"' -> Str (string_lit ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> number ()
      | None -> fail "empty"
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
end

(* ------------------------------------------------------------------ *)

let test_counter_across_domains () =
  let c = Obs.Counter.v "test.obs.counter" in
  let before = Obs.Counter.value c in
  Pool.parallel_iter ~jobs:4
    (fun _ -> Obs.Counter.incr c)
    (List.init 1000 Fun.id);
  Alcotest.(check int)
    "1000 increments from 4 domains all land" 1000
    (Obs.Counter.value c - before);
  Obs.Counter.incr ~by:5 c;
  Alcotest.(check int) "incr ~by" 1005 (Obs.Counter.value c - before);
  Alcotest.(check bool)
    "same label yields the same cell" true
    (Obs.Counter.value (Obs.Counter.v "test.obs.counter")
    = Obs.Counter.value c)

let test_gauge_high_water () =
  let g = Obs.Gauge.v "test.obs.gauge" in
  List.iter (Obs.Gauge.observe g) [ 5; 3; 9; 2 ];
  Alcotest.(check int) "keeps the maximum" 9 (Obs.Gauge.value g);
  Pool.parallel_iter ~jobs:4 (Obs.Gauge.observe g) (List.init 64 Fun.id);
  Alcotest.(check int) "concurrent maximum" 63 (Obs.Gauge.value g)

let test_kind_clash () =
  ignore (Obs.Counter.v "test.obs.clash");
  Alcotest.(check bool)
    "re-registering a label as another kind is refused" true
    (match Obs.Gauge.v "test.obs.clash" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_span_nesting () =
  let outer = Obs.Span.v "test.obs.outer" in
  let inner = Obs.Span.v "test.obs.inner" in
  let o0 = (Obs.Span.stat outer).Obs.Span.count in
  let spin () = ignore (Sys.opaque_identity (List.init 1000 Fun.id)) in
  let r =
    Obs.Span.with_h outer (fun () ->
        Obs.Span.with_h inner (fun () ->
            spin ();
            17))
  in
  Alcotest.(check int) "value passes through" 17 r;
  let so = Obs.Span.stat outer and si = Obs.Span.stat inner in
  Alcotest.(check int) "outer counted once" (o0 + 1) so.Obs.Span.count;
  Alcotest.(check bool)
    "outer total includes inner total" true
    (so.Obs.Span.total_ns >= si.Obs.Span.total_ns);
  Alcotest.(check bool)
    "max bounded by total" true
    (match so.Obs.Span.max_ns with
    | Some m -> m <= so.Obs.Span.total_ns
    | None -> false);
  (* A raising body is still recorded, and the exception survives. *)
  Alcotest.check_raises "exception re-raised" (Failure "boom") (fun () ->
      Obs.Span.with_ "test.obs.raise" (fun () -> failwith "boom"));
  Alcotest.(check int)
    "raising span recorded" 1
    (Obs.Span.stat (Obs.Span.v "test.obs.raise")).Obs.Span.count

(* A diff window reports a span's max only when it grew inside the
   window: a slow span in an earlier window must not leak into a later
   one, and a reported max never exceeds the window's total. *)
let test_windowed_max () =
  let label = "test.obs.window" in
  let span = Obs.Span.v label in
  let window f =
    let before = Obs.snapshot () in
    f ();
    match List.assoc_opt label (Obs.diff before (Obs.snapshot ())) with
    | Some (Obs.Span s) -> s
    | _ -> Alcotest.fail "span missing from its window"
  in
  let busy ns =
    let t0 = Obs.clock_ns () in
    while Obs.clock_ns () - t0 < ns do
      ()
    done
  in
  let slow = window (fun () -> Obs.Span.with_h span (fun () -> busy 5_000_000)) in
  let fast = window (fun () -> Obs.Span.with_h span (fun () -> ())) in
  Alcotest.(check (option int))
    "one observation: max = total" (Some slow.Obs.Span.total_ns)
    slow.Obs.Span.max_ns;
  Alcotest.(check bool)
    "later window's max never exceeds its total" true
    (match fast.Obs.Span.max_ns with
    | Some m -> m <= fast.Obs.Span.total_ns
    | None -> true);
  Alcotest.(check (option int))
    "max that did not grow is unknown" None fast.Obs.Span.max_ns

(* The fingerprint of an experiment's rows must not depend on whether the
   trace sink is open: metrics observe, never branch. *)
let test_trace_parity () =
  let scale = E.Scale.tiny in
  let fingerprint v = Digest.string (Marshal.to_string v []) in
  let off = fingerprint (E.Fig7.run ~jobs:1 ~scale ()) in
  let file = Filename.temp_file "chronus_obs_parity" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_path None;
      Sys.remove file)
    (fun () ->
      Obs.Trace.set_path (Some file);
      Alcotest.(check bool) "sink reports enabled" true (Obs.Trace.enabled ());
      let on = fingerprint (E.Fig7.run ~jobs:1 ~scale ()) in
      Obs.Trace.set_path None;
      Alcotest.(check string) "rows identical with tracing on vs off" off on;
      Alcotest.(check bool)
        "trace file non-empty" true
        ((Unix.stat file).Unix.st_size > 0))

(* Every line of an emitted trace parses as JSON and carries the
   chronus-trace/1 required keys with the right types. *)
let test_trace_schema () =
  let file = Filename.temp_file "chronus_obs_schema" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_path None;
      Sys.remove file)
    (fun () ->
      Obs.Trace.set_path (Some file);
      let inst = Helpers.fig1 () in
      ignore (Chronus_exec.Timed_exec.run ~seed:1 inst);
      ignore (Chronus_exec.Two_phase_exec.run ~seed:1 inst);
      ignore (Chronus_exec.Order_exec.run ~seed:1 inst);
      ignore (Chronus_baselines.Opt.solve ~budget:50_000 ~timeout:5.0 inst);
      Obs.Trace.set_path None;
      let ic = open_in file in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check bool)
        "trace has records beyond the meta line" true
        (List.length lines > 1);
      let kinds = Hashtbl.create 8 in
      List.iteri
        (fun i line ->
          match Json.parse line with
          | Json.Obj fields ->
              let str k =
                match List.assoc_opt k fields with
                | Some (Json.Str s) -> s
                | _ ->
                    Alcotest.failf "line %d: missing string key %S: %s" i k
                      line
              in
              let num k =
                match List.assoc_opt k fields with
                | Some (Json.Num f) -> f
                | _ ->
                    Alcotest.failf "line %d: missing numeric key %S: %s" i k
                      line
              in
              (match List.assoc_opt "fields" fields with
              | Some (Json.Obj _) -> ()
              | _ -> Alcotest.failf "line %d: fields is not an object" i);
              Hashtbl.replace kinds (str "kind") ();
              ignore (str "label");
              Alcotest.(check bool)
                (Printf.sprintf "line %d: ts non-negative" i)
                true
                (num "ts" >= 0.);
              Alcotest.(check bool)
                (Printf.sprintf "line %d: domain non-negative" i)
                true
                (num "domain" >= 0.)
          | _ -> Alcotest.failf "line %d is not a JSON object: %s" i line
          | exception Json.Bad msg ->
              Alcotest.failf "line %d does not parse (%s): %s" i msg line)
        lines;
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (Printf.sprintf "trace contains a %S record" k)
            true (Hashtbl.mem kinds k))
        [ "meta"; "span"; "point" ];
      (match Json.parse (List.hd lines) with
      | Json.Obj fields ->
          (match List.assoc_opt "fields" fields with
          | Some (Json.Obj meta) ->
              Alcotest.(check bool)
                "meta record declares chronus-trace/1" true
                (List.assoc_opt "schema" meta
                = Some (Json.Str "chronus-trace/1"))
          | _ -> Alcotest.fail "meta record has no fields")
      | _ -> Alcotest.fail "first line is not an object"))

(* OBSERVABILITY.md's label table and the labels the code registers must
   be the same set (the reserved [test.] prefix aside). *)
let test_labels_documented () =
  let doc =
    let candidates =
      [ "../OBSERVABILITY.md"; "OBSERVABILITY.md"; "../../OBSERVABILITY.md" ]
    in
    match List.find_opt Sys.file_exists candidates with
    | None -> Alcotest.fail "OBSERVABILITY.md not found next to the test"
    | Some path ->
        let ic = open_in path in
        let lines = ref [] in
        (try
           while true do
             lines := input_line ic :: !lines
           done
         with End_of_file -> close_in ic);
        List.rev !lines
  in
  (* Rows of the label table look like:  | `greedy.rounds` | counter | … *)
  let documented =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        if String.length line > 3 && line.[0] = '|' && line.[1] = ' '
           && line.[2] = '`'
        then
          match String.index_from_opt line 3 '`' with
          | Some close -> Some (String.sub line 3 (close - 3))
          | None -> None
        else None)
      doc
    |> List.sort_uniq compare
  in
  let registered =
    Obs.all_labels ()
    |> List.map fst
    |> List.filter (fun l -> not (String.starts_with ~prefix:"test." l))
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string))
    "OBSERVABILITY.md label table matches the registered labels" registered
    documented

let suite =
  ( "obs",
    [
      Alcotest.test_case "counter aggregation across domains" `Quick
        test_counter_across_domains;
      Alcotest.test_case "gauge high-water" `Quick test_gauge_high_water;
      Alcotest.test_case "label kind clash refused" `Quick test_kind_clash;
      Alcotest.test_case "span nesting" `Quick test_span_nesting;
      Alcotest.test_case "diff window max" `Quick test_windowed_max;
      Alcotest.test_case "trace on/off row parity" `Slow test_trace_parity;
      Alcotest.test_case "trace schema" `Quick test_trace_schema;
      Alcotest.test_case "labels documented" `Quick test_labels_documented;
    ] )
