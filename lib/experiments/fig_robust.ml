open Chronus_sim
open Chronus_topo
open Chronus_exec
module Faults = Chronus_faults.Faults

type row = {
  clock_error_ms : int;
  trials : int;
  chronus_violation_pct : float;
  tp_violation_pct : float;
  or_violation_pct : float;
  chronus_fallback_pct : float;
  chronus_retries : int;
  chronus_span_s : float;
  tp_span_s : float;
  or_span_s : float;
}

(* Short warmup/drain: the robustness axis multiplies three executors by
   several error magnitudes by many trials, so each run is kept tight.
   One delay unit is 50 ms — the "error = one delay unit" acceptance
   point of the experiment. *)
let config =
  {
    Exec_env.default with
    Exec_env.warmup = Sim_time.sec 1;
    drain = Sim_time.sec 2;
    delay_unit = Sim_time.msec 50;
  }

(* An instance whose greedy schedule is provably consistent, so that at
   zero clock error Chronus's run is violation-free and any violation at
   higher error is attributable to the skew. Scanned per trial from its
   own RNG coordinates. *)
let pick_instance ~switches ~seed ~trial =
  let rec scan k =
    let rng = Rng.derive seed [ 12; trial; k ] in
    let spec =
      Scenario.spec ~capacity_choices:[ 1 ] ~delay_lo:1 ~delay_hi:3 switches
    in
    let inst = Scenario.segment_reversal ~max_len:6 ~rng spec in
    let feasible =
      match Chronus_core.Greedy.schedule inst with
      | Chronus_core.Greedy.Scheduled _ -> true
      | Chronus_core.Greedy.Infeasible _ -> false
    in
    if feasible || k >= 20 then inst else scan (k + 1)
  in
  scan 0

type cell = {
  c_violation : bool;
  t_violation : bool;
  o_violation : bool;
  c_fallback : bool;
  c_retries : int;
  c_span : float;
  t_span : float;
  o_span : float;
}

let violated (r : Exec_env.result) =
  not (Monitor.no_violations r.Exec_env.violations)

let run ?jobs ?(scale = Scale.quick) ?(switches = 10) () =
  let errors = scale.Scale.clock_errors_ms in
  let n_err = List.length errors in
  let trials = scale.Scale.instances in
  let seed = scale.Scale.seed in
  let err = Array.of_list errors in
  (* One flat fan-out over (error magnitude × trial); cell (e, i) owns
     the generators at coordinates (seed, 12|13, …, i), so rows are
     bit-identical at any job count. *)
  let cells =
    Chronus_parallel.Pool.parallel_init ?jobs (n_err * trials) (fun j ->
        let e_idx = j / trials and i = j mod trials in
        let error_ms = err.(e_idx) in
        let inst = pick_instance ~switches ~seed ~trial:i in
        let faults =
          Faults.with_clock_error (Sim_time.msec error_ms) Faults.zero
        in
        (* Keyed by the error *value*, not its index, so a row's cells do
           not depend on which other magnitudes the axis contains. *)
        let exec_seed lane =
          Rng.int (Rng.derive seed [ 13; error_ms; i; lane ]) 0x3FFFFFFF
        in
        let chronus =
          Timed_exec.run ~config ~seed:(exec_seed 0) ~faults inst
        in
        let tp = Two_phase_exec.run ~config ~seed:(exec_seed 1) ~faults inst in
        let ord = Order_exec.run ~config ~seed:(exec_seed 2) ~faults inst in
        {
          c_violation = violated chronus.Timed_exec.result;
          t_violation = violated tp.Two_phase_exec.result;
          o_violation = violated ord.Order_exec.result;
          c_fallback = chronus.Timed_exec.path = Timed_exec.Two_phase_fallback;
          c_retries = chronus.Timed_exec.retries;
          c_span =
            Sim_time.to_sec chronus.Timed_exec.result.Exec_env.update_span;
          t_span = Sim_time.to_sec tp.Two_phase_exec.result.Exec_env.update_span;
          o_span = Sim_time.to_sec ord.Order_exec.result.Exec_env.update_span;
        })
  in
  let cells = Array.of_list cells in
  let pct n = 100. *. float_of_int n /. float_of_int (max 1 trials) in
  List.mapi
    (fun e_idx error_ms ->
      let col i = cells.((e_idx * trials) + i) in
      let count f =
        let n = ref 0 in
        for i = 0 to trials - 1 do
          if f (col i) then incr n
        done;
        !n
      in
      let sum f =
        let s = ref 0. in
        for i = 0 to trials - 1 do
          s := !s +. f (col i)
        done;
        !s
      in
      let sumi f =
        let s = ref 0 in
        for i = 0 to trials - 1 do
          s := !s + f (col i)
        done;
        !s
      in
      let mean f = sum f /. float_of_int (max 1 trials) in
      {
        clock_error_ms = error_ms;
        trials;
        chronus_violation_pct = pct (count (fun c -> c.c_violation));
        tp_violation_pct = pct (count (fun c -> c.t_violation));
        or_violation_pct = pct (count (fun c -> c.o_violation));
        chronus_fallback_pct = pct (count (fun c -> c.c_fallback));
        chronus_retries = sumi (fun c -> c.c_retries);
        chronus_span_s = mean (fun c -> c.c_span);
        tp_span_s = mean (fun c -> c.t_span);
        or_span_s = mean (fun c -> c.o_span);
      })
    errors

let print rows =
  let open Chronus_stats in
  let table =
    Table.create
      ~headers:
        [
          "clock err ms";
          "trials";
          "Chronus viol %";
          "TP viol %";
          "OR viol %";
          "fallback %";
          "retries";
          "Chronus s";
          "TP s";
          "OR s";
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          string_of_int r.clock_error_ms;
          string_of_int r.trials;
          Printf.sprintf "%.1f" r.chronus_violation_pct;
          Printf.sprintf "%.1f" r.tp_violation_pct;
          Printf.sprintf "%.1f" r.or_violation_pct;
          Printf.sprintf "%.1f" r.chronus_fallback_pct;
          string_of_int r.chronus_retries;
          Printf.sprintf "%.2f" r.chronus_span_s;
          Printf.sprintf "%.2f" r.tp_span_s;
          Printf.sprintf "%.2f" r.or_span_s;
        ])
    rows;
  print_endline
    "# Robustness — violation/fallback rate and completion time vs. clock \
     error";
  Table.print table
