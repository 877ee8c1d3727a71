(* What one pass over a workload's request stream measured: wall-clock
   latencies and busy time of the timed calls, the output checks, and
   the deterministic outputs of the same-work prefix (digest and the
   count metrics derived from it). *)

module Obs = Chronus_obs.Obs

type t = {
  mutable latencies_ms : float list;  (** one per request verdict *)
  mutable busy_ns : int;  (** time inside the timed calls *)
  mutable ops : int;  (** plans, committed transactions or updates *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** first few failure messages *)
  digest : Buffer.t;  (** deterministic outputs of the prefix *)
  facts : (string, float) Hashtbl.t;  (** deterministic sums of the prefix *)
  layer : (string, int) Hashtbl.t;
      (** traced run only: program counters accumulated inside the timed
          calls, so the benchmark's own checks never count *)
}

(* The program's counters the per-layer report reads; [sample] adds the
   runtime's GC counts and the task pool's spawn count. *)
let counter_labels =
  [
    "greedy.candidate_evals"; "greedy.feasibility_checks"; "greedy.rounds";
    "oracle.full_evals"; "oracle.retargets"; "oracle.cache_hits"; "oracle.cohorts_retraced";
    "service.batches"; "service.serialized"; "service.footprint_reuse";
    "exec.rule_installs"; "exec.retries"; "exec.fallbacks";
    "sim.events_dispatched"; "sim.flow_lookups"; "sim.prefix_lookups";
    "monitor.transient_loops"; "monitor.blackhole_drops"; "monitor.overload_samples";
    "fiber.spawns"; "fiber.context_switches";
  ]

let counters = List.map (fun l -> (l, Obs.Counter.v l)) counter_labels

let sample () =
  let gc = Gc.quick_stat () in
  ("gc.minor_words", int_of_float gc.Gc.minor_words)
  :: ("gc.major_collections", gc.Gc.major_collections)
  :: ("pool.spawned_domains", Chronus_parallel.Pool.spawned_domains ())
  :: List.map (fun (l, c) -> (l, Obs.Counter.value c)) counters

let create () =
  {
    latencies_ms = [];
    busy_ns = 0;
    ops = 0;
    attempted = 0;
    failed = 0;
    failures = [];
    digest = Buffer.create 4096;
    facts = Hashtbl.create 16;
    layer = Hashtbl.create 32;
  }

(* Time [f ()], adding its duration to the busy time; in the traced run
   also accumulate the counter deltas it caused. *)
let timed m f =
  let before = if !Spans.on then sample () else [] in
  let t0 = Obs.clock_ns () in
  let r = f () in
  let dt = Obs.clock_ns () - t0 in
  m.busy_ns <- m.busy_ns + dt;
  if !Spans.on then
    List.iter2
      (fun (l, a) (_, b) ->
        Hashtbl.replace m.layer l (b - a + Option.value ~default:0 (Hashtbl.find_opt m.layer l)))
      before (sample ());
  (r, dt)

let layer m l = Option.value ~default:0 (Hashtbl.find_opt m.layer l)

let latency m ns = m.latencies_ms <- (float_of_int ns /. 1e6) :: m.latencies_ms

(* Record one attempted request and the problems its checks found. *)
let check m problems =
  m.attempted <- m.attempted + 1;
  if problems <> [] then begin
    m.failed <- m.failed + 1;
    if List.length m.failures < 5 then
      m.failures <- String.concat "; " problems :: m.failures
  end

let add m key x =
  Hashtbl.replace m.facts key (x +. Option.value ~default:0. (Hashtbl.find_opt m.facts key))

let fact m key = Option.value ~default:0. (Hashtbl.find_opt m.facts key)
let ratio m num den = if fact m den > 0. then fact m num /. fact m den else 0.

let percentile p = function
  | [] -> 0.
  | xs -> Chronus_stats.Descriptive.percentile p xs
