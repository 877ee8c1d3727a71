(* The fault-injection subsystem: config presets, the deterministic
   engine, the [Exec_env.dispatch] injection point, the hardened timed
   executor's retry/fallback machinery, and the robustness experiment.

   The two contracts everything else leans on:
   - zero-magnitude configs are provable no-ops (bit-identical results
     to not passing a fault config at all), and
   - a (seed, fault config) pair replays bit-identically, which the
     golden grid pins for all three executors. *)

open Chronus_sim
open Chronus_exec
module Faults = Chronus_faults.Faults

(* Same fast config as suite_exec. *)
let config =
  {
    Exec_env.default with
    Exec_env.warmup = Sim_time.sec 1;
    drain = Sim_time.sec 2;
    delay_unit = Sim_time.msec 20;
  }

(* ------------------------------------------------------------------ *)
(* Configs and presets.                                                *)

let test_presets () =
  Alcotest.(check bool) "none is zero" true (Faults.is_zero (Faults.of_preset "none"));
  Alcotest.(check bool) "drift not zero" false (Faults.is_zero Faults.drift);
  Alcotest.(check bool) "lossy not zero" false (Faults.is_zero Faults.lossy);
  Alcotest.(check bool) "chaos not zero" false (Faults.is_zero Faults.chaos);
  List.iter
    (fun name -> ignore (Faults.of_preset name))
    Faults.preset_names;
  Alcotest.check_raises "unknown preset"
    (Invalid_argument "Faults.of_preset: unknown preset \"mayhem\"")
    (fun () -> ignore (Faults.of_preset "mayhem"))

let test_with_clock_error () =
  let c = Faults.with_clock_error (Sim_time.msec 30) Faults.zero in
  Alcotest.(check int) "offset set" (Sim_time.msec 30) c.Faults.clock.Faults.offset_us;
  Alcotest.(check int) "jitter set" (Sim_time.msec 30) c.Faults.clock.Faults.jitter_us;
  Alcotest.(check int) "drift untouched" 0 c.Faults.clock.Faults.drift_ppm;
  Alcotest.(check bool) "back to zero" true
    (Faults.is_zero (Faults.with_clock_error 0 c))

(* ------------------------------------------------------------------ *)
(* The engine.                                                         *)

let test_engine_zero_is_silent () =
  let e = Faults.Engine.create ~seed:3 Faults.zero in
  for switch = 0 to 9 do
    Alcotest.(check int) "no clock error" 0
      (Faults.Engine.clock_error e ~switch ~at:(Sim_time.sec switch));
    Alcotest.(check bool) "no fault" true
      (Faults.Engine.command_fate e ~switch = Faults.no_fault)
  done

let test_engine_determinism () =
  let draw () =
    let e = Faults.Engine.create ~seed:7 ~lane:[ 1 ] Faults.chaos in
    List.init 20 (fun i ->
        ( Faults.Engine.command_fate e ~switch:(i mod 5),
          Faults.Engine.clock_error e ~switch:(i mod 5)
            ~at:(Sim_time.msec (100 * i)) ))
  in
  Alcotest.(check bool) "same coordinates, same draws" true (draw () = draw ())

let test_engine_offsets_bounded () =
  let cfg = Faults.with_clock_error (Sim_time.msec 40) Faults.zero in
  let e = Faults.Engine.create ~seed:5 cfg in
  for switch = 0 to 19 do
    let err = Faults.Engine.clock_error e ~switch ~at:0 in
    Alcotest.(check bool) "offset+jitter within bounds" true
      (abs err <= Sim_time.msec 80)
  done

(* ------------------------------------------------------------------ *)
(* The dispatch injection point.                                       *)

let extra_rule_mod dst =
  Controller.Install
    {
      priority = 30;
      dst;
      tag_match = Flow_table.Any_tag;
      action = { Flow_table.set_tag = None; forward = Flow_table.Drop };
    }

let with_env faults f =
  let inst = Helpers.fig1 () in
  let env = Exec_env.build ~config ~seed:2 ~faults ~tag_initial:None inst in
  f inst env

let run_briefly env =
  Chronus_sim.Engine.run ~until:(Sim_time.sec 1)
    (Network.engine env.Exec_env.net)

let test_dispatch_loss () =
  with_env { Faults.zero with Faults.channel = { Faults.zero.Faults.channel with Faults.loss_p = 1.0 } }
  @@ fun inst env ->
  let src = Chronus_flow.Instance.source inst in
  let table = Network.table env.Exec_env.net src in
  let before = Flow_table.size table in
  Exec_env.dispatch env ~switch:src
    (extra_rule_mod (Chronus_flow.Instance.destination inst));
  run_briefly env;
  Alcotest.(check int) "lost command never applies" before
    (Flow_table.size table);
  Alcotest.(check int) "still counted as sent" 1
    (Controller.commands_sent env.Exec_env.controller)

let test_dispatch_reject () =
  with_env
    { Faults.zero with Faults.switches = { Faults.zero.Faults.switches with Faults.reject_p = 1.0 } }
  @@ fun inst env ->
  let src = Chronus_flow.Instance.source inst in
  let table = Network.table env.Exec_env.net src in
  let before = Flow_table.size table in
  let acked = ref false in
  Exec_env.dispatch env ~switch:src
    ~on_ack:(fun _ -> acked := true)
    (extra_rule_mod (Chronus_flow.Instance.destination inst));
  run_briefly env;
  Alcotest.(check int) "rejected command never applies" before
    (Flow_table.size table);
  Alcotest.(check bool) "rejected command never acks" false !acked

let test_dispatch_crash_restores_snapshot () =
  with_env
    { Faults.zero with Faults.switches = { Faults.zero.Faults.switches with Faults.crash_p = 1.0 } }
  @@ fun inst env ->
  let src = Chronus_flow.Instance.source inst in
  let dst = Chronus_flow.Instance.destination inst in
  let table = Network.table env.Exec_env.net src in
  let snapshot_size = Flow_table.size table in
  (* Mutate the running table behind the controller's back, then crash
     the switch: it must come back with the installed configuration. *)
  ignore
    (Flow_table.install table ~priority:40 ~dst ~tag_match:Flow_table.Any_tag
       { Flow_table.set_tag = None; forward = Flow_table.Drop });
  Alcotest.(check int) "mutation visible" (snapshot_size + 1)
    (Flow_table.size table);
  Exec_env.dispatch env ~switch:src (extra_rule_mod dst);
  run_briefly env;
  Alcotest.(check int) "crash-restart reverts to the snapshot"
    snapshot_size (Flow_table.size table)

let test_dispatch_ack () =
  with_env Faults.zero @@ fun inst env ->
  let src = Chronus_flow.Instance.source inst in
  let table = Network.table env.Exec_env.net src in
  let before = Flow_table.size table in
  let acked = ref None in
  Exec_env.dispatch env ~switch:src
    ~on_ack:(fun at -> acked := Some at)
    (extra_rule_mod (Chronus_flow.Instance.destination inst));
  run_briefly env;
  Alcotest.(check int) "command applied" (before + 1) (Flow_table.size table);
  match !acked with
  | None -> Alcotest.fail "ack never arrived"
  | Some at -> Alcotest.(check bool) "ack takes two legs" true (at > 0)

(* ------------------------------------------------------------------ *)
(* Zero-fault identity: engine present with all magnitudes zero ===    *)
(* engine absent, for every executor, on random scenarios.             *)

let prop_zero_identity =
  QCheck.Test.make ~count:8 ~name:"zero faults are a provable no-op"
    (Helpers.arbitrary_instance ~min_n:4 ~max_n:7 ())
    (fun seed ->
      let inst = Helpers.instance_of_seed ~min_n:4 ~max_n:7 seed in
      let c0 = Timed_exec.run ~config ~seed inst in
      let c1 = Timed_exec.run ~config ~seed ~faults:Faults.zero inst in
      let o0 = Order_exec.run ~config ~seed inst in
      let o1 = Order_exec.run ~config ~seed ~faults:Faults.zero inst in
      let t0 = Two_phase_exec.run ~config ~seed inst in
      let t1 = Two_phase_exec.run ~config ~seed ~faults:Faults.zero inst in
      c0.Timed_exec.result = c1.Timed_exec.result
      && c0.Timed_exec.path = c1.Timed_exec.path
      && c0.Timed_exec.retries = c1.Timed_exec.retries
      && o0.Order_exec.result = o1.Order_exec.result
      && t0.Two_phase_exec.result = t1.Two_phase_exec.result)

(* ------------------------------------------------------------------ *)
(* Golden deterministic replay: the (seed, preset) grid on the worked  *)
(* example, pinned for all three executors. Values captured once and   *)
(* reproducible by construction; a change here means fault draws or    *)
(* executor semantics changed.                                         *)

let violation_total (r : Exec_env.result) =
  r.Exec_env.violations.Monitor.transient_loops
  + r.Exec_env.violations.Monitor.blackholes
  + r.Exec_env.violations.Monitor.overload_samples

let test_golden_grid () =
  let inst = Helpers.fig1 () in
  (* (preset, seed) -> expected
     (chronus violations, retries, fallback?, OR violations, OR commands,
      TP violations, TP commands) *)
  let grid =
    [
      (("none", 11), (0, 0, false, 0, 5, 0, 10));
      (("none", 12), (0, 0, false, 0, 5, 0, 10));
      (("drift", 11), (0, 0, false, 0, 5, 0, 10));
      (("drift", 12), (0, 0, false, 0, 5, 0, 10));
      (("lossy", 11), (0, 0, false, 0, 5, 0, 10));
      (("lossy", 12), (0, 1, false, 0, 5, 0, 10));
      (("chaos", 11), (0, 1, false, 1, 5, 784, 10));
      (("chaos", 12), (0, 3, false, 0, 5, 761, 10));
    ]
  in
  List.iter
    (fun ((preset, seed), (cv, cr, cf, ov, oc, tv, tc)) ->
      let faults = Faults.of_preset preset in
      let where what = Printf.sprintf "%s/%d %s" preset seed what in
      let c = Timed_exec.run ~config ~seed ~faults inst in
      Alcotest.(check int) (where "chronus violations") cv
        (violation_total c.Timed_exec.result);
      Alcotest.(check int) (where "chronus retries") cr c.Timed_exec.retries;
      Alcotest.(check bool) (where "chronus fallback") cf
        (c.Timed_exec.path = Timed_exec.Two_phase_fallback);
      let o = Order_exec.run ~config ~seed ~faults inst in
      Alcotest.(check int) (where "or violations") ov
        (violation_total o.Order_exec.result);
      Alcotest.(check int) (where "or commands") oc
        o.Order_exec.result.Exec_env.commands;
      let tp = Two_phase_exec.run ~config ~seed ~faults inst in
      Alcotest.(check int) (where "tp violations") tv
        (violation_total tp.Two_phase_exec.result);
      Alcotest.(check int) (where "tp commands") tc
        tp.Two_phase_exec.result.Exec_env.commands)
    grid

(* ------------------------------------------------------------------ *)
(* Hardened executor: retries and the two-phase fallback.              *)

let test_total_loss_falls_back () =
  let inst = Helpers.fig1 () in
  let faults =
    { Faults.zero with Faults.channel = { Faults.zero.Faults.channel with Faults.loss_p = 1.0 } }
  in
  let run = Timed_exec.run ~config ~seed:4 ~faults inst in
  Alcotest.(check bool) "fallback path ran" true
    (run.Timed_exec.path = Timed_exec.Two_phase_fallback);
  Alcotest.(check bool) "retries were attempted" true
    (run.Timed_exec.retries > 0);
  Alcotest.(check int) "nothing ever acked" 5 run.Timed_exec.unacked

let test_retry_recovers_without_fallback () =
  (* The chaos grid rows above all complete on the timed path with
     retries > 0 somewhere; this pins the recovery explicitly. *)
  let inst = Helpers.fig1 () in
  let run = Timed_exec.run ~config ~seed:12 ~faults:Faults.chaos inst in
  Alcotest.(check bool) "timed path despite faults" true
    (run.Timed_exec.path = Timed_exec.Timed);
  Alcotest.(check bool) "recovered via retries" true
    (run.Timed_exec.retries > 0);
  Alcotest.(check int) "every switch acked" 0 run.Timed_exec.unacked

(* ------------------------------------------------------------------ *)
(* The robustness experiment.                                          *)

let robust_scale =
  {
    Chronus_experiments.Scale.tiny with
    Chronus_experiments.Scale.instances = 20;
    clock_errors_ms = [ 0; 50 ];
  }

let test_fig_robust () =
  let rows = Chronus_experiments.Fig_robust.run ~scale:robust_scale () in
  Alcotest.(check int) "one row per magnitude" 2 (List.length rows);
  let at e =
    List.find
      (fun r -> r.Chronus_experiments.Fig_robust.clock_error_ms = e)
      rows
  in
  let r0 = at 0 and r50 = at 50 in
  Alcotest.(check (float 0.0)) "no violations without clock error" 0.
    r0.Chronus_experiments.Fig_robust.chronus_violation_pct;
  Alcotest.(check (float 0.0)) "no fallbacks without clock error" 0.
    r0.Chronus_experiments.Fig_robust.chronus_fallback_pct;
  (* One delay unit of error: the timed premise is broken and it shows. *)
  Alcotest.(check bool) "error of one delay unit breaks consistency" true
    (r50.Chronus_experiments.Fig_robust.chronus_violation_pct
     +. r50.Chronus_experiments.Fig_robust.chronus_fallback_pct
    > 0.)

let test_fig_robust_rows_identical_across_jobs () =
  let run jobs =
    Chronus_experiments.Fig_robust.run ~jobs ~scale:robust_scale ()
  in
  Alcotest.(check bool) "jobs=1 and jobs=4 rows bit-identical" true
    (run 1 = run 4)

let suite =
  ( "faults",
    [
      Alcotest.test_case "presets" `Quick test_presets;
      Alcotest.test_case "with_clock_error" `Quick test_with_clock_error;
      Alcotest.test_case "zero engine is silent" `Quick
        test_engine_zero_is_silent;
      Alcotest.test_case "engine replays deterministically" `Quick
        test_engine_determinism;
      Alcotest.test_case "clock offsets bounded" `Quick
        test_engine_offsets_bounded;
      Alcotest.test_case "dispatch: loss" `Quick test_dispatch_loss;
      Alcotest.test_case "dispatch: rejection" `Quick test_dispatch_reject;
      Alcotest.test_case "dispatch: crash-restart" `Quick
        test_dispatch_crash_restores_snapshot;
      Alcotest.test_case "dispatch: ack round trip" `Quick test_dispatch_ack;
      QCheck_alcotest.to_alcotest ~long:false prop_zero_identity;
      Alcotest.test_case "golden replay grid" `Slow test_golden_grid;
      Alcotest.test_case "total loss falls back to two-phase" `Quick
        test_total_loss_falls_back;
      Alcotest.test_case "chaos recovered by retries" `Quick
        test_retry_recovers_without_fallback;
      Alcotest.test_case "robustness figure" `Slow test_fig_robust;
      Alcotest.test_case "robustness rows independent of jobs" `Slow
        test_fig_robust_rows_identical_across_jobs;
    ] )
