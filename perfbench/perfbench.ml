(* Request-level benchmark of the Chronus update pipeline.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Set-up builds every input from the seed (several times, reporting the
   median; the first copy warms the process up), then one closed-loop client sends the workload's requests
   for S seconds with tracing off — at least the same-work prefix, whose
   outputs are digested. With --trace 0 the last stdout line carries the
   end-to-end metrics. With --trace 1 the client runs for S/2 seconds
   untraced and then repeats exactly the same requests with the
   benchmark's spans and counter sampling on; the last line carries the
   per-layer metrics and the tracing overhead (traced over untraced busy
   time on identical work), and the spans go to perfbench/_out as JSONL. Every
   output is checked; any failure makes the run exit 1. *)

module Obs = Chronus_obs.Obs

external peak_rss_kb : unit -> int = "perfbench_peak_rss_kb"

let setup_reps = 5
let span_dir = Filename.concat "perfbench" "_out"
let warmup_requests = 2

let usage () =
  prerr_endline "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let args () =
  let rec go acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  (get "workload", int "seed", int "seconds", trace)

let ms_of_ns ns = float_of_int ns /. 1e6
let per x d = if d <= 0 then 0. else float_of_int x /. float_of_int d

(* Send requests until [seconds] have passed and at least [min] were
   sent; returns how many were. *)
let drive step env m ~prefix ~seconds ~min ~max =
  let deadline = Obs.clock_ns () + int_of_float (seconds *. 1e9) in
  let i = ref 0 in
  while !i < max && (!i < min || Obs.clock_ns () < deadline) do
    step env m ~record:(!i < prefix) !i;
    incr i
  done;
  !i

(* {1 Per-layer report of the traced run} *)

let layer_metrics ~ops ~requests ~overhead_pct (mt : Meter.t) spans =
  let self = Spans.self_ns spans in
  let durations ?(self_time = false) name =
    List.filter_map
      (fun s -> if s.Spans.name = name then Some (if self_time then self s else Spans.dur_ns s) else None)
      spans
  in
  let pct q ?(scale = 1e6) name =
    Meter.percentile q (List.map (fun ns -> float_of_int ns /. scale) (durations name))
  in
  let c = Meter.layer mt in
  let per_op l = per (c l) ops in
  let per_request l = per (c l) requests in
  let lookups = c "oracle.cache_hits" + c "oracle.cohorts_retraced" in
  let exec_ns = List.fold_left ( + ) 0 (durations "timed_exec.run") in
  [
    ("fallback.schedule_p50_ms", pct 50. "fallback.schedule", "ms");
    ("fallback.schedule_p90_ms", pct 90. "fallback.schedule", "ms");
    ("greedy.candidate_evals_per_op", per_op "greedy.candidate_evals", "count");
    ("greedy.feasibility_checks_per_op", per_op "greedy.feasibility_checks", "count");
    ("greedy.rounds_per_op", per_op "greedy.rounds", "count");
    ("oracle.full_evals_per_op", per_op "oracle.full_evals", "count");
    ("oracle.retargets_per_op", per_op "oracle.retargets", "count");
    ("oracle.cache_lookups_per_op", per lookups ops, "count");
    ("oracle.cache_hit_ratio", per (c "oracle.cache_hits") lookups, "ratio");
    ("oracle.evaluate_p50_ms", pct 50. "oracle.evaluate", "ms");
    ("service.submit_p50_us", pct 50. ~scale:1e3 "service.submit", "us");
    ("footprint.of_flow_p50_us", pct 50. ~scale:1e3 "footprint.of_flow", "us");
    ("service.process_p50_ms", pct 50. "service.process", "ms");
    ("service.process_p90_ms", pct 90. "service.process", "ms");
    ("service.process_jobs2_p50_ms", pct 50. "service.process.jobs2", "ms");
    ("service.batches_per_round", per_request "service.batches", "count");
    ("service.serialized_per_round", per_request "service.serialized", "count");
    ("service.footprint_reuse_per_round", per_request "service.footprint_reuse", "count");
    ("pool.spawned_domains", float_of_int (Chronus_parallel.Pool.spawned_domains ()), "count");
    ("exec_env.build_p50_ms", pct 50. "exec_env.build", "ms");
    ("timed_exec.run_p50_ms", pct 50. "timed_exec.run", "ms");
    ("timed_exec.run_p90_ms", pct 90. "timed_exec.run", "ms");
    ("exec.commands_per_update", per_op "exec.rule_installs", "count");
    ("exec.retries_per_update", per_op "exec.retries", "count");
    ("exec.fallbacks_per_update", per_op "exec.fallbacks", "count");
    ("sim.events_per_op", per_op "sim.events_dispatched", "count");
    ("sim.ns_per_event", per exec_ns (c "sim.events_dispatched"), "ns");
    ("sim.flow_lookups_per_op", per_op "sim.flow_lookups", "count");
    ("sim.prefix_lookups_per_op", per_op "sim.prefix_lookups", "count");
    ("monitor.transient_loops", float_of_int (c "monitor.transient_loops"), "count");
    ("monitor.blackhole_drops", float_of_int (c "monitor.blackhole_drops"), "count");
    ("monitor.overload_samples", float_of_int (c "monitor.overload_samples"), "count");
    ("table_compiler.compile_ms", pct 50. "table_compiler.compile", "ms");
    ("fiber.spawns_per_op", per_op "fiber.spawns", "count");
    ("fiber.context_switches_per_op", per_op "fiber.context_switches", "count");
    ("gc.minor_words_per_op", per_op "gc.minor_words", "words");
    ("gc.major_collections_per_op", per_op "gc.major_collections", "count");
    ("trace.overhead_pct", overhead_pct, "%");
    ("trace.spans_per_request", per (List.length spans) requests, "count");
  ]

(* Self and total time per span name, counts per request, and the
   ratios with their bases. *)
let print_layer_table ~requests ~ops (mt : Meter.t) spans =
  let self = Spans.self_ns spans in
  let names = List.sort_uniq compare (List.map (fun s -> s.Spans.name) spans) in
  Printf.printf "# %-20s %8s %9s %11s %11s %11s %11s\n" "span" "count" "per req" "self p50ms"
    "self p90ms" "total p50ms" "total p90ms";
  List.iter
    (fun name ->
      let ss = List.filter (fun s -> s.Spans.name = name) spans in
      let q p f = Meter.percentile p (List.map (fun s -> ms_of_ns (f s)) ss) in
      Printf.printf "# %-20s %8d %9.2f %11.4f %11.4f %11.4f %11.4f\n" name (List.length ss)
        (per (List.length ss) requests) (q 50. self) (q 90. self) (q 50. Spans.dur_ns)
        (q 90. Spans.dur_ns))
    names;
  let c = Meter.layer mt in
  let hits = c "oracle.cache_hits" and retraced = c "oracle.cohorts_retraced" in
  Printf.printf "# oracle.cache_hit_ratio = %d hits / %d lookups (hits + cohorts retraced)\n" hits
    (hits + retraced);
  Printf.printf "# per-op base: %d ops over %d requests in the traced run\n" ops requests;
  List.iter (fun (l, _) -> Printf.printf "# counter %-28s %12d\n" l (c l)) Meter.counters

(* {1 Result line} *)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed body

let () =
  let workload, seed, seconds, trace = args () in
  let (Workloads.W w) =
    match List.find_opt (fun (Workloads.W w) -> w.name = workload) Workloads.all with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %s\n" workload;
        exit 2
  in
  let seconds = float_of_int seconds in
  (* Set-up several times; report the median, warm the process up on the
     first copy and measure on the last. *)
  let set_up () =
    Gc.compact ();
    Spans.set_request (-1);
    Spans.on := trace;
    let t0 = Obs.clock_ns () in
    let env = w.setup seed in
    let dt = float_of_int (Obs.clock_ns () - t0) /. 1e9 in
    Spans.on := false;
    (env, dt)
  in
  let first, t_first = set_up () in
  let warm = Meter.create () in
  for i = 0 to warmup_requests - 1 do
    w.step first warm ~record:false i
  done;
  (* Keep one set-up alive at a time, so peak memory is one copy's. *)
  let env = ref (Some first) and times = ref [ t_first ] in
  for _ = 2 to setup_reps do
    env := None;
    let e, dt = set_up () in
    env := Some e;
    times := dt :: !times
  done;
  let env = Option.get !env in
  let setup_s = Meter.percentile 50. !times in
  let m = Meter.create () in
  let window = if trace then seconds /. 2. else seconds in
  let n = drive w.step env m ~prefix:w.prefix ~seconds:window ~min:w.prefix ~max:max_int in
  let traced =
    if not trace then None
    else begin
      let env = w.setup seed in
      let mt = Meter.create () in
      Spans.on := true;
      ignore (drive w.step env mt ~prefix:w.prefix ~seconds:0. ~min:n ~max:n);
      w.after_trace env mt;
      Spans.on := false;
      Some mt
    end
  in
  let meters = warm :: m :: Option.to_list traced in
  let attempted = List.fold_left (fun a x -> a + x.Meter.attempted) 0 meters in
  let failed = List.fold_left (fun a x -> a + x.Meter.failed) 0 meters in
  let digest = Digest.to_hex (Digest.string (Buffer.contents m.Meter.digest)) in
  let same_work =
    match traced with
    | None -> true
    | Some mt -> Buffer.contents mt.Meter.digest = Buffer.contents m.Meter.digest
  in
  let correct = failed = 0 && same_work in
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%b\n" w.name seed seconds trace;
  Printf.printf "# host nproc=%d ocaml=%s jobs=%s\n" (Domain.recommended_domain_count ())
    Sys.ocaml_version w.jobs;
  Printf.printf "# requests=%d (same-work prefix %d) ops=%d attempted=%d failed=%d\n" n w.prefix
    m.Meter.ops attempted failed;
  Printf.printf "# digest %s\n" digest;
  let rss_mb = float_of_int (peak_rss_kb ()) /. 1024. in
  let busy_s = float_of_int m.Meter.busy_ns /. 1e9 in
  let ops_per_s = if busy_s > 0. then float_of_int m.Meter.ops /. busy_s else 0. in
  List.iter
    (fun (name, v, unit) -> Printf.printf "# %-18s %14.4f %s\n" name v unit)
    (w.report m
    @ [
        ("ops_per_s", ops_per_s, "1/s");
        ("fail_share", per failed attempted, "ratio");
        ("peak_rss_mb", rss_mb, "MB");
        ("setup_s", setup_s, "s");
      ]);
  List.iter (fun msg -> Printf.eprintf "failure: %s\n" msg) (List.concat_map (fun x -> x.Meter.failures) meters);
  if not same_work then prerr_endline "failure: the traced run's outputs differ from the untraced run's";
  let metrics =
    match traced with
    | None ->
        let lat q = Meter.percentile q m.Meter.latencies_ms in
        [
          ("setup_s", setup_s, "s");
          ("latency_p50_ms", lat 50., "ms");
          ("latency_p90_ms", lat 90., "ms");
          ("ops_per_s", ops_per_s, "1/s");
          ("makespan_mean", Workloads.mean m "makespan", "steps");
          ("peak_rss_mb", rss_mb, "MB");
        ]
    | Some mt ->
        let spans = Spans.recorded () in
        (try Sys.mkdir span_dir 0o755 with Sys_error _ -> ());
        let file = Filename.concat span_dir (Printf.sprintf "spans-%s-seed%d.jsonl" w.name seed) in
        Spans.write_jsonl file spans;
        Printf.printf "# spans written to %s\n" file;
        let overhead_pct = 100. *. ((float_of_int mt.Meter.busy_ns /. float_of_int m.Meter.busy_ns) -. 1.) in
        print_layer_table ~requests:n ~ops:mt.Meter.ops mt spans;
        layer_metrics ~ops:mt.Meter.ops ~requests:n ~overhead_pct mt spans
  in
  print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
