(* The benchmark executable.

   Part 1 runs every figure of the registry (Chronus_experiments.Figure:
   Table II, Figs. 6-11 and our own figures) at CHRONUS_SCALE (default
   quick; tiny is the CI smoke scale, paper the published one). With
   more than one domain (CHRONUS_JOBS, else the recommended domain
   count) the suite runs twice — sequentially, then with the trial
   fan-out — and each figure's stable rows must digest the same in both
   passes.

   Part 2 runs Bechamel micro-benchmarks over every algorithmic
   component: the greedy scheduler (both engines), the
   dependency-relation and loop-check primitives, the oracle, the
   time-extended network construction, and the baselines.

   Both parts also land in BENCH_results.json (schema documented in
   EXPERIMENTS.md) so successive PRs can track the perf trajectory
   mechanically. CHRONUS_BENCH=experiments|micro|all (default all)
   selects the parts to run. *)

open Bechamel
module E = Chronus_experiments
module Pool = Chronus_parallel.Pool
module Obs = Chronus_obs.Obs
module Json = Chronus_obs.Json
open Chronus_flow
open Chronus_core
open Chronus_baselines
open Chronus_topo

(* ------------------------------------------------------------------ *)
(* Part 1: the experiment suite.                                       *)

(* One pass over the selected figures, in registry order. Per-figure
   metrics are [Obs] snapshot deltas (counters are cumulative across the
   process); they observe and never enter the digests. *)
type pass = { wall_s : float; figures : E.Figure.measured list }

let run_suite ~jobs ~figures scale =
  let t0 = Obs.clock_ns () in
  let figures = List.map (fun f -> E.Figure.measure f ~jobs ~scale) figures in
  { wall_s = float_of_int (Obs.clock_ns () - t0) /. 1e9; figures }

(* The trial-parallel figures only. *)
let trial_wall_s pass =
  List.fold_left
    (fun acc (m : E.Figure.measured) ->
      let (E.Figure.Figure f) = m.figure in
      if f.trial then acc +. m.wall_s else acc)
    0. pass.figures

(* The figures whose stable rows differ between two passes over the same
   selection. *)
let mismatches a b =
  List.filter_map
    (fun ((m : E.Figure.measured), (n : E.Figure.measured)) ->
      if m.digest = n.digest then None else Some (E.Figure.name m.figure))
    (List.combine a.figures b.figures)

let print_suite ~metrics pass =
  List.iter
    (fun (m : E.Figure.measured) ->
      let name = E.Figure.name m.figure in
      Printf.printf "\n================ %s ================\n%!" name;
      m.print ();
      if metrics && m.metrics <> [] then begin
        Printf.printf "\n-- metrics (%s) --\n" name;
        Obs.print_table m.metrics
      end)
    pass.figures

(* ------------------------------------------------------------------ *)
(* Part 2: micro-benchmarks.                                           *)

(* Round-robin over [a], starting at index [from]: the probe stream
   benchmarks draw one input per iteration from. *)
let cycle ?(from = 0) a =
  let i = ref (from - 1) in
  fun () ->
    incr i;
    a.(!i mod Array.length a)

(* Deterministic instances reused across benchmark iterations. *)
let instance_of_size n =
  let rng = Rng.make (1000 + n) in
  Scenario.long_chain ~rng (Scenario.spec ~capacity_choices:[ 2 ] n)

let fig1 = Scenario.fig1_example ()

let greedy_tests =
  List.map
    (fun n ->
      let inst = instance_of_size n in
      Test.make
        ~name:(Printf.sprintf "greedy-analytic/%d" n)
        (Staged.stage (fun () ->
             ignore (Greedy.schedule ~mode:Greedy.Analytic inst))))
    [ 50; 200; 800 ]

(* The first n = 24 [Scenario.random_final] instance (default capacities
   [1; 2; 2]) on which the Exact greedy finds no congestion-free schedule:
   the shape behind most of a request-level planning run's time, where
   Analytic's validation misses and the oracle-gated greedy probes until
   it proves itself stuck. *)
let congested_instance n =
  let rec search seed =
    let inst = Scenario.random_final ~rng:(Rng.make seed) (Scenario.spec n) in
    match Greedy.schedule ~mode:Greedy.Exact inst with
    | Greedy.Infeasible _ -> inst
    | Greedy.Scheduled _ -> search (seed + 1)
  in
  search (2000 + n)

let greedy_exact_tests =
  let exact name inst =
    Test.make ~name
      (Staged.stage (fun () ->
           ignore (Greedy.schedule ~mode:Greedy.Exact inst)))
  in
  List.map
    (fun n -> exact (Printf.sprintf "greedy-exact/%d" n) (instance_of_size n))
    [ 20; 60 ]
  @ [ exact "greedy-exact/congested-24" (congested_instance 24) ]

let primitive_tests =
  let inst = instance_of_size 200 in
  let drain = Drain.make inst in
  let remaining = Instance.switches_to_update inst in
  let sched =
    match Greedy.schedule ~mode:Greedy.Analytic inst with
    | Greedy.Scheduled s -> s
    | Greedy.Infeasible { partial; _ } -> partial
  in
  [
    Test.make ~name:"dependency-set/200"
      (Staged.stage (fun () ->
           ignore
             (Dependency.at inst drain Schedule.empty ~remaining ~time:0)));
    Test.make ~name:"drain-view/200"
      (Staged.stage (fun () -> ignore (Drain.view drain sched)));
    Test.make ~name:"loop-check/200"
      (Staged.stage (fun () ->
           ignore
             (Loop_check.timed inst Schedule.empty
                ~candidate:(List.hd remaining) ~time:0)));
    Test.make ~name:"oracle-evaluate/200"
      (Staged.stage (fun () -> ignore (Oracle.evaluate inst sched)));
    Test.make ~name:"time-extended-build/fig1"
      (Staged.stage (fun () ->
           ignore
             (Time_extended.build fig1.Instance.graph ~t_lo:(-5) ~t_hi:5)));
    Test.make ~name:"tree-check/fig1"
      (Staged.stage (fun () -> ignore (Tree.check fig1)));
  ]

(* The incremental-checker primitives, on the same 200-switch chain the
   [oracle-evaluate/200] benchmark uses so the probe cost reads directly
   against the from-scratch cost it replaces. The base schedule holds the
   last few greedy flips out; probes cycle through them. [probe] memoises
   every flip probed on the base, so after the first cycle it would time
   verdict-table lookups: the probe row measures the uncached incremental
   evaluation through [probe_list] of the single flip instead. *)
let oracle_incremental_tests =
  let inst = instance_of_size 200 in
  let sched =
    match Greedy.schedule ~mode:Greedy.Analytic inst with
    | Greedy.Scheduled s -> s
    | Greedy.Infeasible { partial; _ } -> partial
  in
  let flips = Schedule.to_list sched in
  let held = min 4 (List.length flips - 1) in
  let cut = List.length flips - held in
  let base =
    List.filteri (fun i _ -> i < cut) flips
    |> List.fold_left (fun s (v, t) -> Schedule.add v t s) Schedule.empty
  in
  let probes = Array.of_list (List.filteri (fun i _ -> i >= cut) flips) in
  let ck = Oracle.Checker.create inst base in
  if Array.length probes = 0 then []
  else
    let next = cycle probes in
    [
      Test.make ~name:"oracle-incremental/create/200"
        (Staged.stage (fun () -> ignore (Oracle.Checker.create inst base)));
      Test.make ~name:"oracle-incremental/probe/200"
        (Staged.stage (fun () ->
             let v, t = next () in
             ignore (Oracle.Checker.probe_list ck [ (v, t) ])));
      Test.make ~name:"oracle-incremental/push-pop/200"
        (Staged.stage (fun () ->
             let v, t = next () in
             ignore (Oracle.Checker.push ck v t);
             Oracle.Checker.pop ck));
    ]

(* The data-plane structures, at the acceptance load: 1000 rules per
   switch over 256 destinations. The indexed table answers lookups from
   a per-destination bucket; the legacy list — the seed implementation,
   kept as the reference model [Ref_flow_table.Legacy] — scans all 1000
   rules, so the pair of rows reads directly as the speedup. *)
let flow_table_tests =
  let module FT = Chronus_sim.Flow_table in
  let act = { FT.set_tag = None; forward = FT.To_host } in
  let rules =
    let rng = Rng.make 77 in
    List.init 1000 (fun _ -> (Rng.int rng 8, Rng.int rng 256))
  in
  let t = FT.create () in
  List.iter
    (fun (priority, dst) ->
      ignore (FT.install t ~priority ~dst ~tag_match:FT.Any_tag act))
    rules;
  let module Legacy = Ref_flow_table.Legacy in
  let l = Legacy.create () in
  List.iter
    (fun (priority, dst) ->
      ignore (Legacy.install l ~priority ~dst ~tag_match:FT.Any_tag act))
    rules;
  let probes =
    let rng = Rng.make 78 in
    Array.init 1024 (fun _ -> Rng.int rng 256)
  in
  let next = cycle probes in
  [
    Test.make ~name:"flow-table/lookup/1000"
      (Staged.stage (fun () -> ignore (FT.lookup t ~dst:(next ()) ~tag:None)));
    Test.make ~name:"flow-table/legacy-lookup/1000"
      (Staged.stage (fun () ->
           ignore (Legacy.lookup l ~dst:(next ()) ~tag:None)));
    Test.make ~name:"flow-table/modify/1000"
      (Staged.stage (fun () ->
           ignore (FT.modify_actions t ~dst:(next ()) ~tag_match:FT.Any_tag act)));
  ]

(* The prefix layer at the same load: 1000 aggregated rules in the
   longest-prefix trie, probed with random full-width addresses; plus
   one ORTC compilation of a 256-address fat-tree-shaped forwarding
   function (8 distinct next hops, 32 addresses each). *)
let prefix_table_tests =
  let module FT = Chronus_sim.Flow_table in
  let module TC = Chronus_sim.Table_compiler in
  let act v = { FT.set_tag = None; forward = FT.Out v } in
  let rng = Rng.make 80 in
  let space = 1 lsl FT.addr_bits in
  let p = FT.create () in
  for _ = 1 to 1000 do
    ignore
      (FT.install_prefix p
         ~priority:(Rng.int rng 8)
         ~prefix:(Rng.int rng space)
         ~len:(4 + Rng.int rng (FT.addr_bits - 4))
         ~tag_match:FT.Any_tag
         (act (Rng.int rng 16)))
  done;
  let next = cycle (Array.init 1024 (fun _ -> Rng.int rng space)) in
  let bindings =
    List.init 256 (fun i -> ((space / 2) lor i, act (i / 32)))
  in
  [
    Test.make ~name:"flow-table/prefix-lookup/1000"
      (Staged.stage (fun () -> ignore (FT.lookup p ~dst:(next ()) ~tag:None)));
    Test.make ~name:"table-compiler/compile/256"
      (Staged.stage (fun () -> ignore (TC.compile bindings)));
  ]

(* Steady-state hold model (push one, dispatch one) on a queue holding
   1000 pending events with microsecond-spread timestamps — the
   calendar ring against the seed binary heap it replaced, kept as the
   reference model [Ref_event_queue]. *)
let event_queue_tests =
  let module EQ = Chronus_sim.Event_queue in
  let module Heap = Ref_event_queue in
  let times =
    let rng = Rng.make 79 in
    Array.init 4096 (fun _ -> Rng.int rng 1_000_000)
  in
  let nothing () = () in
  let preload push = for i = 0 to 999 do push ~time:times.(i) nothing done in
  let cq = EQ.create () in
  preload (EQ.push cq);
  let hq = Heap.create () in
  preload (Heap.push hq);
  let next = cycle ~from:1000 times in
  [
    Test.make ~name:"event-queue/push-pop"
      (Staged.stage (fun () ->
           EQ.push cq ~time:(next ()) nothing;
           ignore (EQ.run_next cq)));
    Test.make ~name:"event-queue/heap-push-pop"
      (Staged.stage (fun () ->
           Heap.push hq ~time:(next ()) nothing;
           ignore (Heap.run_next hq)));
  ]

(* The update service's admission pipeline, on the shared-WAN shape
   fig-service drives: deriving one rule-granular footprint for a
   min-hop reroute, admitting a 16-request batch through the budget's
   per-link accounting, and the pooled checker's retarget-and-probe
   gate that replaced per-transaction from-scratch oracle
   evaluations. *)
let service_tests =
  let module G = Chronus_graph.Graph in
  let module Path = Chronus_graph.Path in
  let module Shortest = Chronus_graph.Shortest in
  let module Footprint = Chronus_service.Footprint in
  let rng = Rng.make 91 in
  let g =
    Topology.wan ~params:{ Topology.capacity = 3; delay = 1 } ~rng 32
  in
  let nodes = Array.of_list (G.nodes g) in
  (* Random reroute pairs — a min-hop route plus the min-hop detour
     around one of its links, the request shape fig-service submits. *)
  let rec draw_pair tries =
    if tries > 500 then failwith "bench: WAN yielded no detour pair"
    else
      let src = nodes.(Rng.int rng (Array.length nodes)) in
      let dst = nodes.(Rng.int rng (Array.length nodes)) in
      match if src = dst then None else Shortest.hop_path g src dst with
      | None -> draw_pair (tries + 1)
      | Some current -> (
          match Path.edges current with
          | [] -> draw_pair (tries + 1)
          | edges -> (
              let u, v = Rng.pick rng edges in
              let g' = G.copy g in
              G.remove_edge g' u v;
              match Shortest.hop_path g' src dst with
              | Some target when not (Path.equal current target) ->
                  (current, target)
              | Some _ | None -> draw_pair (tries + 1)))
  in
  let pairs = Array.init 16 (fun _ -> draw_pair 0) in
  let footprints =
    Array.to_list
      (Array.mapi
         (fun fid (current, target) ->
           Footprint.of_flow ~graph:g ~fid ~demand:1 ~current ~target)
         pairs)
  in
  let next_pair = cycle pairs in
  let no_steady _ _ = 0 in
  (* Two single-flow reroute instances over the same graph; each
     iteration retargets the persistent session to the other one and
     probes its full flip set — the service's per-transaction gate. *)
  let prepared =
    Array.map
      (fun (current, target) ->
        let inst =
          Instance.create ~graph:g ~demand:1 ~p_init:current ~p_fin:target
        in
        let flips =
          match Greedy.schedule ~mode:Greedy.Analytic inst with
          | Greedy.Scheduled s -> Schedule.to_list s
          | Greedy.Infeasible { partial; _ } -> Schedule.to_list partial
        in
        (inst, flips))
      [| pairs.(0); pairs.(1) |]
  in
  let ck = Oracle.Checker.create (fst prepared.(0)) Schedule.empty in
  let next_prepared = cycle prepared in
  [
    Test.make ~name:"service/footprint"
      (Staged.stage (fun () ->
           let current, target = next_pair () in
           ignore
             (Footprint.of_flow ~graph:g ~fid:0 ~demand:1 ~current ~target)));
    Test.make ~name:"service/admission"
      (Staged.stage (fun () ->
           let b =
             Footprint.Budget.create ~capacity:(G.capacity g)
               ~steady:no_steady
           in
           List.iteri
             (fun rid fp -> ignore (Footprint.Budget.admit b ~rid fp))
             footprints));
    Test.make ~name:"service/checker-probe"
      (Staged.stage (fun () ->
           let inst, flips = next_prepared () in
           Oracle.Checker.retarget ck inst;
           ignore (Oracle.Checker.probe_list ck flips)));
  ]

(* The effects runtime: the cost of spawning-and-retiring one fiber on a
   free-standing runtime, and one full controller -> switch -> ack round
   trip through the fiber-per-switch channel (the session ping fig-conns
   multiplies by tens of thousands). *)
let fiber_tests =
  let module Fiber = Chronus_fiber.Fiber in
  let clock = ref 0 in
  let rt =
    Fiber.runtime ~now:(fun () -> !clock) ~schedule:(fun _ _ -> ())
  in
  let engine = Chronus_sim.Engine.create () in
  let net = Chronus_sim.Network.create engine in
  Chronus_sim.Network.add_switch net 0;
  let ctrl = Chronus_sim.Controller.create net in
  [
    Test.make ~name:"fiber/spawn"
      (Staged.stage (fun () ->
           ignore (Fiber.spawn_root rt (fun () -> ()) : unit Fiber.t);
           Fiber.drain rt));
    Test.make ~name:"fiber/switch-rtt"
      (Staged.stage (fun () ->
           Chronus_sim.Controller.send ctrl
             ~ack:(fun _ -> ())
             ~switch:0
             (Chronus_sim.Controller.Remove
                { dst = 9_999; tag_match = Chronus_sim.Flow_table.Any_tag });
           Chronus_sim.Engine.run engine));
  ]

(* One Chronus timed update on the k = 16 fat-tree preloaded with its
   compiled prefix tables: 4,096 links, of which the flow uses a handful,
   so the row tracks what per-update link accounting costs at scale.
   Built only when the micro part runs: compiling the tables would
   otherwise feed the experiments' metrics. *)
let exec_tests () =
  let module Exec_env = Chronus_exec.Exec_env in
  let inst = Scenario.fat_tree_reroute ~rng:(Rng.derive 1 [ 6; 0 ]) 16 in
  let g = inst.Instance.graph in
  let kind = E.Fig_scale.Fat_tree 16 in
  let preinstall, _ =
    E.Fig_scale.compiled_preinstall g kind (E.Fig_scale.addressing g kind)
  in
  let config =
    {
      Exec_env.default with
      Exec_env.warmup = Chronus_sim.Sim_time.sec 1;
      drain = Chronus_sim.Sim_time.sec 2;
      preinstall;
    }
  in
  [
    Test.make ~name:"timed-exec/fat16"
      (Staged.stage (fun () ->
           ignore
             (Chronus_exec.Timed_exec.run ~config ~seed:1 ~mode:Greedy.Exact
                inst)));
  ]

let baseline_tests =
  let inst = instance_of_size 60 in
  [
    Test.make ~name:"or-greedy-rounds/60"
      (Staged.stage (fun () ->
           ignore (Order_replacement.greedy_rounds inst)));
    Test.make ~name:"or-minimum-rounds/fig1"
      (Staged.stage (fun () ->
           ignore (Order_replacement.minimum_rounds fig1)));
    Test.make ~name:"opt-branch-and-bound/fig1"
      (Staged.stage (fun () ->
           ignore (Opt.solve ~budget:100_000 ~timeout:10.0 fig1)));
    Test.make ~name:"tp-rule-count/60"
      (Staged.stage (fun () -> ignore (Two_phase.rule_count inst)));
  ]

let benchmarks () =
  let tests =
    Test.make_grouped ~name:"chronus"
      (greedy_tests @ greedy_exact_tests @ primitive_tests
      @ oracle_incremental_tests @ service_tests @ flow_table_tests
      @ prefix_table_tests @ event_queue_tests @ fiber_tests @ exec_tests ()
      @ baseline_tests)
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let nanos =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | Some [] | None -> nan
        in
        (name, nanos) :: acc)
      results []
    |> List.sort compare
  in
  Printf.printf "\n================ micro-benchmarks ================\n";
  Printf.printf "%-45s %16s\n" "benchmark" "time/run";
  Printf.printf "%s\n" (String.make 62 '-');
  List.iter
    (fun (name, nanos) ->
      let human =
        if Float.is_nan nanos then "n/a"
        else if nanos > 1e9 then Printf.sprintf "%8.3f  s" (nanos /. 1e9)
        else if nanos > 1e6 then Printf.sprintf "%8.3f ms" (nanos /. 1e6)
        else if nanos > 1e3 then Printf.sprintf "%8.3f us" (nanos /. 1e3)
        else Printf.sprintf "%8.0f ns" nanos
      in
      Printf.printf "%-45s %16s\n" name human)
    rows;
  rows

(* ------------------------------------------------------------------ *)
(* BENCH_results.json (schema documented in EXPERIMENTS.md).           *)

(* The cumulative observability snapshot: counters/gauges as numbers,
   spans as {count, total_ns, max_ns} objects (since chronus-bench/2). *)
let metrics_json () =
  Json.Obj
    (List.map
       (fun (label, v) ->
         match v with
         | Obs.Counter n | Obs.Gauge n -> (label, Json.Int n)
         | Obs.Span s ->
             ( label,
               Json.Obj
                 [
                   ("count", Json.Int s.Obs.Span.count);
                   ("total_ns", Json.Int s.Obs.Span.total_ns);
                   ( "max_ns",
                     match s.Obs.Span.max_ns with
                     | Some m -> Json.Int m
                     | None -> Json.Null );
                 ] ))
       (Obs.snapshot ()))

(* Report keys bound to cumulative counters (0 when a label never
   fired). *)
let counters_json keys =
  let snap = Obs.snapshot () in
  List.map
    (fun (key, label) ->
      match List.assoc_opt label snap with
      | Some (Obs.Counter n) -> (key, Json.Int n)
      | _ -> (key, Json.Int 0))
    keys

(* chronus-bench/3: how hard the incremental oracle worked across the
   whole run, plus the headline probes-per-second figure derived from the
   micro pass (null when only experiments ran). *)
let oracle_cache_json ~micro =
  let probes_per_s =
    match micro with
    | None -> Json.Null
    | Some rows -> (
        match List.assoc_opt "chronus/oracle-incremental/probe/200" rows with
        | Some ns when ns > 0. && not (Float.is_nan ns) ->
            Json.Float (1e9 /. ns)
        | _ -> Json.Null)
  in
  Json.Obj
    (counters_json
       [
         ("cache_hits", "oracle.cache_hits");
         ("cohorts_retraced", "oracle.cohorts_retraced");
         ("full_evals", "oracle.full_evals");
         ("probe_reuses", "oracle.probe_reuses");
       ]
    @ [ ("probes_per_s", probes_per_s) ])

(* chronus-bench/4: fault-injection and recovery activity across the
   whole run — every fault site plus the hardened timed executor's
   retry/fallback counters and the monitor's online violation tallies. *)
let faults_json () =
  Json.Obj
    (counters_json
       [
         ("chan_lost", "faults.chan.lost");
         ("chan_duplicated", "faults.chan.duplicated");
         ("chan_delayed", "faults.chan.delayed");
         ("chan_reordered", "faults.chan.reordered");
         ("switch_rejected", "faults.switch.rejected");
         ("switch_straggled", "faults.switch.straggled");
         ("switch_crashed", "faults.switch.crashed");
         ("clock_skewed_flips", "faults.clock.skewed_flips");
         ("exec_retries", "exec.retries");
         ("exec_fallbacks", "exec.fallbacks");
         ("transient_loops", "monitor.transient_loops");
         ("blackhole_drops", "monitor.blackhole_drops");
         ("overload_samples", "monitor.overload_samples");
       ])

(* chronus-bench/10: one object per figure that ran, keyed by its
   canonical name — its jobs=1 wall clock, the digest of its stable rows,
   and the figure's own report keys. *)
let figures_json pass =
  Json.Obj
    (List.map
       (fun (m : E.Figure.measured) ->
         ( E.Figure.name m.figure,
           Json.Obj
             (("wall_s", Json.Float m.wall_s)
             :: ("digest", Json.String m.digest)
             :: m.json) ))
       pass.figures)

let write_json ~path ~scale_name ~jobs ~host_cores ~experiments ~micro =
  let experiments_json =
    match experiments with
    | None -> Json.Null
    | Some (seq, par) ->
        let speedup a b = if b > 0. then Json.Float (a /. b) else Json.Null in
        let base =
          [
            ("wall_s_jobs1", Json.Float seq.wall_s);
            ("trial_wall_s_jobs1", Json.Float (trial_wall_s seq));
          ]
        in
        let parallel =
          match par with
          | None -> [ ("rows_identical", Json.Null) ]
          | Some p ->
              [
                ("wall_s_jobsN", Json.Float p.wall_s);
                ("trial_wall_s_jobsN", Json.Float (trial_wall_s p));
                ("speedup", speedup seq.wall_s p.wall_s);
                ("trial_speedup", speedup (trial_wall_s seq) (trial_wall_s p));
                ("rows_identical", Json.Bool (mismatches seq p = []));
              ]
        in
        Json.Obj (base @ parallel)
  in
  let micro_json =
    match micro with
    | None -> Json.Null
    | Some rows ->
        Json.Obj (List.map (fun (name, ns) -> (name, Json.Float ns)) rows)
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.String "chronus-bench/10");
        ("scale", Json.String scale_name);
        ("jobs", Json.Int jobs);
        ("host_cores", Json.Int host_cores);
        ("experiments", experiments_json);
        ( "figures",
          match experiments with
          | None -> Json.Null
          | Some (seq, _) -> figures_json seq );
        ("oracle_cache", oracle_cache_json ~micro);
        ("faults", faults_json ());
        ("metrics", metrics_json ());
        ("microbench_ns_per_run", micro_json);
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  close_out oc;
  Printf.printf "\nwrote %s\n%!" path

(* ------------------------------------------------------------------ *)

(* The value of --figures a,b,c or --figures=a,b,c, if given. *)
let figures_arg () =
  let prefix = "--figures=" in
  let p = String.length prefix in
  let rec scan = function
    | [] -> None
    | "--figures" :: v :: _ -> Some v
    | a :: rest ->
        if String.length a > p && String.sub a 0 p = prefix then
          Some (String.sub a p (String.length a - p))
        else scan rest
  in
  scan (Array.to_list Sys.argv)

let () =
  let scale_name =
    Option.value ~default:"quick" (Sys.getenv_opt "CHRONUS_SCALE")
  in
  let scale =
    match List.assoc_opt scale_name E.Scale.presets with
    | Some s -> s
    | None ->
        Printf.eprintf "unknown CHRONUS_SCALE %S; valid presets: %s\n%!"
          scale_name
          (String.concat ", " (List.map fst E.Scale.presets));
        exit 2
  in
  let jobs = Pool.default_jobs () in
  let part =
    match Sys.getenv_opt "CHRONUS_BENCH" with
    | None | Some "all" -> `All
    | Some "experiments" -> `Experiments
    | Some "micro" -> `Micro
    | Some other ->
        invalid_arg
          (Printf.sprintf
             "CHRONUS_BENCH must be experiments|micro|all, got %S" other)
  in
  let metrics =
    Array.exists (( = ) "--metrics") Sys.argv
    || Sys.getenv_opt "CHRONUS_METRICS" <> None
  in
  (* --figures runs a subset of the suite (canonical names or aliases) —
     the dev loop for a single figure without the full pass. *)
  let figures =
    match figures_arg () with
    | None -> E.Figure.all
    | Some v ->
        let wanted =
          String.split_on_char ',' v
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
          |> List.map (fun n ->
                 match E.Figure.find n with
                 | Ok f -> E.Figure.name f
                 | Error msg ->
                     prerr_endline msg;
                     exit 2)
        in
        List.filter (fun f -> List.mem (E.Figure.name f) wanted) E.Figure.all
  in
  let host_cores = Domain.recommended_domain_count () in
  let experiments =
    match part with
    | `Micro -> None
    | `All | `Experiments ->
        let seq = run_suite ~jobs:1 ~figures scale in
        let par =
          if jobs > 1 then Some (run_suite ~jobs ~figures scale) else None
        in
        (* The two passes print identical rows; show the suite once. *)
        print_suite ~metrics (Option.value ~default:seq par);
        Printf.printf "\nexperiment suite wall clock: %.2f s at jobs=1"
          seq.wall_s;
        (match par with
        | None -> print_newline ()
        | Some p -> (
            Printf.printf ", %.2f s at jobs=%d (%.2fx; trial subset %.2fx)\n"
              p.wall_s jobs (seq.wall_s /. p.wall_s)
              (trial_wall_s seq /. trial_wall_s p);
            match mismatches seq p with
            | [] -> print_endline "sequential and parallel rows are identical"
            | names ->
                Printf.eprintf
                  "ERROR: sequential and parallel experiment rows differ: %s\n%!"
                  (String.concat ", " names);
                exit 1));
        if host_cores = 1 && par <> None then
          print_endline
            "note: speedup not meaningful: 1 physical core (jobs > 1 \
             time-slices one core)";
        Some (seq, par)
  in
  let micro =
    match part with `Experiments -> None | `All | `Micro -> Some (benchmarks ())
  in
  let path =
    Option.value ~default:"BENCH_results.json"
      (Sys.getenv_opt "CHRONUS_BENCH_OUT")
  in
  write_json ~path ~scale_name ~jobs ~host_cores ~experiments ~micro;
  print_newline ()
