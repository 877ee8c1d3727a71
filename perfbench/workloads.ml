(* The four request-stream workloads. Each is one closed-loop client:
   set-up turns the seed into every input the stream needs, and [step]
   sends request [i] through the program's public API, times it, checks
   its outputs and, inside the same-work prefix, records them into the
   digest and the deterministic count metrics. *)

open Chronus_graph
open Chronus_flow
open Chronus_topo
module Greedy = Chronus_core.Greedy
module Fallback = Chronus_core.Fallback
module Service = Chronus_service.Service
module Footprint = Chronus_service.Footprint
module Timed_exec = Chronus_exec.Timed_exec
module Exec_env = Chronus_exec.Exec_env
module Sim_time = Chronus_sim.Sim_time
module Monitor = Chronus_sim.Monitor
module Fig_scale = Chronus_experiments.Fig_scale

type t =
  | W : {
      name : string;
      jobs : string;  (** the [?jobs] its pooled calls receive *)
      prefix : int;  (** requests in the same-work prefix *)
      setup : int -> 'env;  (** seed to set-up state *)
      step : 'env -> Meter.t -> record:bool -> int -> unit;
      after_trace : 'env -> Meter.t -> unit;  (** extra traced work, untimed *)
      report : Meter.t -> (string * float * string) list;
          (** the workload's own end-to-end figures, under the names
              README.md uses *)
    }
      -> t

let schedule_string s =
  String.concat "," (List.map (fun (v, t) -> Printf.sprintf "%d@%d" v t) (Schedule.to_list s))

let digest_schedule m s = Buffer.add_string m.Meter.digest (schedule_string s ^ "|")

(* A schedule claimed consistent must pass the oracle; [Oracle.evaluate]
   is the judge, timed as its own span in the traced run. *)
let oracle_problems ?background inst sched =
  let report = Spans.with_ "oracle.evaluate" (fun () -> Oracle.evaluate ?background inst sched) in
  if report.Oracle.ok then []
  else [ Printf.sprintf "oracle rejects a schedule with %d violations" (List.length report.Oracle.violations) ]

let share m key = Meter.ratio m key "requests"
let mean m key = Meter.ratio m key (key ^ ".n")

(* {1 Single-flow planning: plan-tight and plan-roomy} *)

let plan_step pool m ~record i =
  let inst = pool.(i mod Array.length pool) in
  Spans.set_request i;
  let res =
    Spans.with_ "request" (fun () ->
        try
          let r, ns =
            Meter.timed m (fun () ->
                Spans.with_ "fallback.schedule" (fun () ->
                    Fallback.schedule ~mode:Greedy.Analytic inst))
          in
          Meter.latency m ns;
          Ok r
        with e -> Error (Printexc.to_string e))
  in
  match res with
  | Error msg -> Meter.check m [ "schedule raised " ^ msg ]
  | Ok { Fallback.schedule; clean } ->
      let problems =
        (if Schedule.covers inst schedule then [] else [ "schedule does not cover its instance" ])
        @ if clean then oracle_problems inst schedule else []
      in
      Meter.check m problems;
      m.Meter.ops <- m.Meter.ops + 1;
      if record then begin
        Meter.add m "requests" 1.;
        Meter.add m "congested" (if clean then 0. else 1.);
        Meter.add m "makespan" (float_of_int (Schedule.makespan schedule));
        Meter.add m "makespan.n" 1.;
        Buffer.add_string m.Meter.digest (Printf.sprintf "%d:%b:" i clean);
        digest_schedule m schedule
      end

let plan_report m =
  let p q = Meter.percentile q m.Meter.latencies_ms in
  [
    ("plan_p50_ms", p 50., "ms");
    ("plan_p90_ms", p 90., "ms");
    ("makespan_mean", mean m "makespan", "steps");
    ("congested_share", share m "congested", "ratio");
  ]

(* Sizes step through the range instead of being drawn, so every run
   covers every size equally often and the seed only picks instances. *)
let plan_pool ~lane ~sizes ~copies gen seed =
  Spans.with_ "scenario.generate" (fun () ->
      let levels = Array.length sizes in
      Array.init (levels * copies) (fun i ->
          gen ~rng:(Rng.derive seed [ lane; i ]) sizes.(i mod levels)))

let plan_tight =
  W
    {
      name = "plan-tight";
      jobs = "none (no call takes jobs)";
      prefix = 250;
      setup =
        plan_pool ~lane:1 ~sizes:(Array.init 5 (fun i -> 20 + i)) ~copies:300 (fun ~rng n ->
            Scenario.random_final ~rng (Scenario.spec n));
      step = plan_step;
      after_trace = (fun _ _ -> ());
      report = plan_report;
    }

let plan_roomy =
  W
    {
      name = "plan-roomy";
      jobs = "none (no call takes jobs)";
      prefix = 156;
      setup =
        plan_pool ~lane:2 ~sizes:(Array.init 13 (fun i -> 200 + (50 * i))) ~copies:12 (fun ~rng n ->
            Scenario.long_chain ~rng (Scenario.spec ~capacity_choices:[ 2 ] n));
      step = plan_step;
      after_trace = (fun _ _ -> ());
      report = plan_report;
    }

(* {1 service-burst: rounds of reroute requests to the update service} *)

let wan_sites = 64
let wan_flows = 48
let wans = 24
let per_round = 32

(* The measured rounds run at jobs=1. At jobs=2 on a shared two-core host
   the verdict p90 and the commit rate swung by a third between runs,
   wider than any usable bound, because the pool's second domain competes
   with other tenants for the other core. After the traced run, its rounds
   are replayed on a fresh fleet at jobs=2 instead: that measures the pool
   fan-out and checks that outcomes do not depend on the job count. *)
let service_jobs = 1
let replay_jobs = 2

(* One shared WAN with its flows and the service that owns them. *)
type wan = { svc : Service.t; g : Graph.t }

type service_env = {
  seed : int;
  fleet : wan array;  (** round [i] goes to [fleet.(i mod wans)] *)
  draws : (int * int) array array;  (** per round: (flow, link draw) *)
  mutable traced : ((int * Path.t) array * string list) list;
      (** traced run, newest first: each round's requests and outcomes *)
}

(* Unit-demand flows on min-hop routes, drawn so the joint steady state
   fits the capacities (the fig-service shape). *)
let build_flows ~rng g n_flows =
  let nodes = Array.of_list (Graph.nodes g) in
  let loads = Hashtbl.create 64 in
  let load e = Option.value ~default:0 (Hashtbl.find_opt loads e) in
  let fits p = List.for_all (fun (u, v) -> load (u, v) + 1 <= Graph.capacity g u v) (Path.edges p) in
  let rec draw fid acc misses =
    if fid >= n_flows || misses > 200 then List.rev acc
    else
      let src = nodes.(Rng.int rng (Array.length nodes)) in
      let dst = nodes.(Rng.int rng (Array.length nodes)) in
      match if src = dst then None else Shortest.hop_path g src dst with
      | Some p when fits p ->
          List.iter (fun e -> Hashtbl.replace loads e (load e + 1)) (Path.edges p);
          draw (fid + 1) ({ Instance.fid; f_demand = 1; f_init = p; f_fin = p } :: acc) misses
      | Some _ | None -> draw fid acc (misses + 1)
  in
  draw 0 [] 0

(* A fleet of independent WANs, so one run's figures do not hinge on a
   single random topology; rounds rotate over them. *)
let build_fleet seed =
  Array.init wans (fun k ->
      let g =
        Topology.wan ~params:{ Topology.capacity = 3; delay = 1 } ~rng:(Rng.derive seed [ 3; k ]) wan_sites
      in
      let flows = build_flows ~rng:(Rng.derive seed [ 4; k ]) g wan_flows in
      { svc = Spans.with_ "service.create" (fun () -> Service.create (Instance.create_multi ~graph:g flows)); g })

let service_setup seed =
  let fleet = build_fleet seed in
  let draws =
    Array.init 1024 (fun r ->
        let rng = Rng.derive seed [ 5; r ] in
        let nflows = List.length (Service.routes fleet.(r mod wans).svc) in
        Array.init per_round (fun _ ->
            let fid = Rng.int rng nflows in
            (fid, Rng.int rng 1_000_000)))
  in
  { seed; fleet; draws; traced = [] }

(* Fail the drawn link of the flow's current path and ask for the
   min-hop detour; with no detour the request is a no-op, which commits
   trivially. *)
let detour g current draw =
  match Path.edges current with
  | [] -> current
  | edges -> (
      let u, v = List.nth edges (draw mod List.length edges) in
      let g' = Graph.copy g in
      Graph.remove_edge g' u v;
      match Shortest.hop_path g' (Path.source current) (Path.destination current) with
      | Some p -> p
      | None -> current)

(* Everything the service decided about a request except its wall-clock
   latency: the digest line, and the jobs-independence comparison. *)
let outcome_line o =
  let schedule =
    match o.Service.verdict with
    | Service.Committed { schedule; _ } -> schedule_string schedule
    | Service.Denied _ -> ""
  in
  Format.asprintf "%d:%d:%s:%d:%a:%s:[%s]|" o.Service.rid o.Service.fid (Path.to_string o.Service.target)
    o.Service.batch Service.pp_verdict o.Service.verdict schedule
    (String.concat "," (List.map string_of_int o.Service.serialized_after))

(* Replay a round's verdicts against our own copy of the routes: every
   committed schedule must cover its move and pass the oracle against
   the other flows' steady routes as of its batch, and afterwards the
   service's routes must equal the replayed ones. *)
let check_round wan routes outcomes =
  let batches = List.sort_uniq compare (List.map (fun o -> o.Service.batch) outcomes) in
  let problems = Hashtbl.create 8 in
  let fail rid msg = Hashtbl.replace problems rid msg in
  List.iter
    (fun b ->
      let commits = ref [] in
      List.iter
        (fun o ->
          match o.Service.verdict with
          | Service.Committed { schedule; makespan } when o.Service.batch = b ->
              let current = Hashtbl.find routes o.Service.fid in
              if not (Schedule.is_empty schedule) then begin
                let others =
                  Hashtbl.fold (fun fid p acc -> if fid = o.Service.fid then acc else (1, p) :: acc) routes []
                in
                let inst = Instance.create ~graph:wan.g ~demand:1 ~p_init:current ~p_fin:o.Service.target in
                if not (Schedule.covers inst schedule) then fail o.Service.rid "committed schedule does not cover its move";
                if makespan <> Schedule.makespan schedule then fail o.Service.rid "makespan disagrees with schedule";
                match oracle_problems ~background:(Instance.background others) inst schedule with
                | [] -> ()
                | msg :: _ -> fail o.Service.rid msg
              end;
              commits := (o.Service.fid, o.Service.target) :: !commits
          | _ -> ())
        outcomes;
      List.iter (fun (fid, p) -> Hashtbl.replace routes fid p) !commits)
    batches;
  problems

(* Replay the traced rounds on a fresh fleet at jobs=2, once the traced
   run is over so that the pool's lingering worker cannot slow it. *)
let replay_at_jobs2 env m =
  let fleet = build_fleet env.seed in
  List.iteri
    (fun i (requests, lines) ->
      let wan = fleet.(i mod wans) in
      Spans.set_request i;
      Array.iter (fun (fid, target) -> ignore (Service.submit wan.svc ~fid ~target)) requests;
      let outcomes = Spans.with_ "service.process.jobs2" (fun () -> Service.process ~jobs:replay_jobs wan.svc) in
      Meter.check m
        (if List.map outcome_line outcomes = lines then []
         else [ Printf.sprintf "round %d: outcomes differ between jobs=%d and jobs=%d" i service_jobs replay_jobs ]))
    (List.rev env.traced)

let service_counter label = Chronus_obs.Obs.Counter.(value (v label))

(* Submitted requests minus those with a final state, from the service's
   own counters; every request must be decided within its round. *)
let open_books () =
  service_counter "service.submitted"
  - service_counter "service.committed"
  - service_counter "service.denied"
  - service_counter "service.aborted"

let service_step env m ~record i =
  let wan = env.fleet.(i mod wans) in
  let routes = Hashtbl.create 64 in
  List.iter (fun (fid, p) -> Hashtbl.replace routes fid p) (Service.routes wan.svc);
  let requests =
    Array.map
      (fun (fid, d) ->
        let current = Hashtbl.find routes fid in
        (fid, current, detour wan.g current d))
      env.draws.(i mod Array.length env.draws)
  in
  let books0 = open_books () in
  let submitted_at = Array.make per_round 0 in
  let rids = Array.make per_round (Error "not submitted") in
  let decided = ref 0 in
  Spans.set_request i;
  let res =
    Spans.with_ "round" (fun () ->
        try
          Ok
            (fst
               (Meter.timed m (fun () ->
                    Array.iteri
                      (fun k (fid, _, target) ->
                        submitted_at.(k) <- Chronus_obs.Obs.clock_ns ();
                        rids.(k) <-
                          Result.map_error
                            (Format.asprintf "refused at the door: %a" Service.pp_denial)
                            (Spans.with_ "service.submit" (fun () -> Service.submit wan.svc ~fid ~target)))
                      requests;
                    let outcomes =
                      Spans.with_ "service.process" (fun () -> Service.process ~jobs:service_jobs wan.svc)
                    in
                    decided := Chronus_obs.Obs.clock_ns ();
                    outcomes)))
        with e -> Error (Printexc.to_string e))
  in
  if !Spans.on then
    Array.iter
      (fun (fid, current, target) ->
        ignore
          (Spans.with_ "footprint.of_flow" (fun () ->
               Footprint.of_flow ~graph:wan.g ~fid ~demand:1 ~current ~target)))
      requests;
  match res with
  | Error msg -> Array.iter (fun _ -> Meter.check m [ "round raised " ^ msg ]) requests
  | Ok outcomes ->
      let round_problems =
        (if open_books () = books0 then [] else [ "service books do not balance" ])
        @ if List.length outcomes = per_round then [] else [ "outcome count differs from requests" ]
      in
      if !Spans.on then
        env.traced <- (Array.map (fun (fid, _, target) -> (fid, target)) requests, List.map outcome_line outcomes) :: env.traced;
      let by_rid = Hashtbl.create per_round in
      List.iter (fun o -> Hashtbl.replace by_rid o.Service.rid o) outcomes;
      let txn_problems = check_round wan routes outcomes in
      let round_problems =
        if List.for_all (fun (fid, p) -> Path.equal p (Hashtbl.find routes fid)) (Service.routes wan.svc)
        then round_problems
        else "service routes differ from the committed verdicts" :: round_problems
      in
      Array.iteri
        (fun k rid ->
          let own =
            match rid with
            | Error msg -> [ msg ]
            | Ok rid -> (
                match Hashtbl.find_opt by_rid rid with
                | None -> [ "no verdict" ]
                | Some _ -> Option.to_list (Hashtbl.find_opt txn_problems rid))
          in
          Meter.check m (round_problems @ own);
          Meter.latency m (!decided - submitted_at.(k)))
        rids;
      List.iter
        (fun o ->
          match o.Service.verdict with
          | Service.Committed { makespan; _ } ->
              m.Meter.ops <- m.Meter.ops + 1;
              if record && makespan > 0 then begin
                Meter.add m "makespan" (float_of_int makespan);
                Meter.add m "makespan.n" 1.
              end
          | Service.Denied _ -> if record then Meter.add m "denied" 1.)
        outcomes;
      if record then begin
        Meter.add m "requests" (float_of_int per_round);
        List.iter
          (fun o ->
            if o.Service.serialized_after <> [] then Meter.add m "serialized" 1.;
            Buffer.add_string m.Meter.digest (outcome_line o))
          outcomes
      end

let service_report m =
  let p q = Meter.percentile q m.Meter.latencies_ms in
  [
    ("verdict_p50_ms", p 50., "ms");
    ("verdict_p99_ms", p 99., "ms");
    ("makespan_mean", mean m "makespan", "steps");
    ("serialized_share", share m "serialized", "ratio");
    ("denied_share", share m "denied", "ratio");
  ]

let service_burst =
  W
    {
      name = "service-burst";
      jobs = Printf.sprintf "%d (traced replay: %d)" service_jobs replay_jobs;
      prefix = 240;
      setup = service_setup;
      step = service_step;
      after_trace = replay_at_jobs2;
      report = service_report;
    }

(* {1 exec-fattree: timed updates on a preloaded k=16 fat-tree} *)

let fat_tree_k = 16

type exec_env = { config : Exec_env.config; updates : (Instance.t * int) array }

let exec_setup seed =
  let updates =
    Spans.with_ "scenario.generate" (fun () ->
        Array.init 32 (fun i ->
            let rng = Rng.derive seed [ 6; i ] in
            let inst = Scenario.fat_tree_reroute ~rng fat_tree_k in
            (inst, Rng.int rng 0x3FFFFFFF)))
  in
  let g = (fst updates.(0)).Instance.graph in
  let kind = Fig_scale.Fat_tree fat_tree_k in
  let preinstall, _rules =
    Spans.with_ "table_compiler.compile" (fun () ->
        Fig_scale.compiled_preinstall g kind (Fig_scale.addressing g kind))
  in
  let config =
    { Exec_env.default with Exec_env.warmup = Sim_time.sec 1; drain = Sim_time.sec 2; preinstall }
  in
  { config; updates }

let exec_step env m ~record i =
  let inst, seed = env.updates.(i mod Array.length env.updates) in
  let faults = Chronus_faults.Faults.zero in
  Spans.set_request i;
  let res =
    Spans.with_ "update" (fun () ->
        try
          let r, ns =
            Meter.timed m (fun () ->
                Spans.with_ "timed_exec.run" (fun () ->
                    Timed_exec.run ~config:env.config ~seed ~mode:Greedy.Exact ~faults inst))
          in
          Meter.latency m ns;
          Ok r
        with e -> Error (Printexc.to_string e))
  in
  if !Spans.on then
    ignore
      (Spans.with_ "exec_env.build" (fun () ->
           Exec_env.build ~config:env.config ~seed ~faults ~tag_initial:None inst));
  match res with
  | Error msg -> Meter.check m [ "update raised " ^ msg ]
  | Ok r ->
      let res = r.Timed_exec.result in
      let v = res.Exec_env.violations in
      let problems =
        List.concat
          [
            (if Monitor.no_violations v then []
             else
               [
                 Printf.sprintf "monitor violations: %d loops, %d blackholes, %d overloads"
                   v.Monitor.transient_loops v.Monitor.blackholes v.Monitor.overload_samples;
               ]);
            (if r.Timed_exec.path = Timed_exec.Timed then [] else [ "two-phase fallback path" ]);
            (if r.Timed_exec.unacked = 0 then [] else [ "unacked commands" ]);
            (if Schedule.covers inst r.Timed_exec.schedule then [] else [ "schedule does not cover its instance" ]);
            (if r.Timed_exec.clean then oracle_problems inst r.Timed_exec.schedule else []);
          ]
      in
      Meter.check m problems;
      m.Meter.ops <- m.Meter.ops + 1;
      if record then begin
        Meter.add m "requests" 1.;
        Meter.add m "congested" (if r.Timed_exec.clean then 0. else 1.);
        Meter.add m "makespan" (float_of_int (Schedule.makespan r.Timed_exec.schedule));
        Meter.add m "makespan.n" 1.;
        Meter.add m "update_span" (Sim_time.to_msec res.Exec_env.update_span);
        Meter.add m "update_span.n" 1.;
        Buffer.add_string m.Meter.digest
          (Printf.sprintf "%d:%b:%d:%d:%d:" i r.Timed_exec.clean res.Exec_env.update_span
             res.Exec_env.events res.Exec_env.commands);
        digest_schedule m r.Timed_exec.schedule
      end

let exec_report m =
  let p q = Meter.percentile q m.Meter.latencies_ms in
  [
    ("update_p50_ms", p 50., "ms");
    ("update_p90_ms", p 90., "ms");
    ("makespan_mean", mean m "makespan", "steps");
    ("update_span_ms", mean m "update_span", "ms");
    ("congested_share", share m "congested", "ratio");
  ]

let exec_fattree =
  W
    {
      name = "exec-fattree";
      jobs = "none (no call takes jobs)";
      prefix = 32;
      setup = exec_setup;
      step = exec_step;
      after_trace = (fun _ _ -> ());
      report = exec_report;
    }

let all = [ plan_tight; plan_roomy; service_burst; exec_fattree ]
