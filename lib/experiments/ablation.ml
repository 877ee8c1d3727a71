open Chronus_flow
open Chronus_core
open Chronus_topo

type row = {
  instances : int;
  switches : int;
  exact_success : int;
  analytic_success : int;
  agree : int;
  exact_mean_makespan : float;
  analytic_mean_makespan : float;
  exact_mean_checks : float;
  analytic_mean_checks : float;
  mean_waits : float;
}

(* Everything one trial contributes to the aggregates: computed in
   parallel, folded in index order afterwards. *)
type trial = {
  t_exact_ok : bool;
  t_analytic_ok : bool;
  t_agree : bool;
  t_e_span : float option;
  t_a_span : float option;
  t_e_checks : float;
  t_a_checks : float;
  t_waits : float;
}

let run ?jobs ?(scale = Scale.quick) () =
  List.map
    (fun n ->
      let spec = Scenario.spec n in
      let trials =
        Chronus_parallel.Pool.parallel_init ?jobs scale.Scale.instances
          (fun i ->
            let rng = Rng.derive scale.Scale.seed [ 99; n; i ] in
            let inst = Scenario.mixed ~rng spec in
            let e_out, e_stats =
              Greedy.schedule_with_stats ~mode:Greedy.Exact inst
            in
            let a_out, a_stats =
              Greedy.schedule_with_stats ~mode:Greedy.Analytic inst
            in
            let span = function
              | Greedy.Scheduled s -> Some (float_of_int (Schedule.makespan s))
              | Greedy.Infeasible _ -> None
            in
            {
              t_exact_ok = span e_out <> None;
              t_analytic_ok = span a_out <> None;
              t_agree = (span e_out <> None) = (span a_out <> None);
              t_e_span = span e_out;
              t_a_span = span a_out;
              t_e_checks = float_of_int e_stats.Greedy.candidates_checked;
              t_a_checks = float_of_int a_stats.Greedy.candidates_checked;
              t_waits = float_of_int e_stats.Greedy.waits;
            })
      in
      let count f = List.length (List.filter f trials) in
      let mean = function
        | [] -> 0.
        | l -> Chronus_stats.Descriptive.mean l
      in
      let mean_of f = mean (List.filter_map f trials) in
      {
        instances = scale.Scale.instances;
        switches = n;
        exact_success = count (fun t -> t.t_exact_ok);
        analytic_success = count (fun t -> t.t_analytic_ok);
        agree = count (fun t -> t.t_agree);
        exact_mean_makespan = mean_of (fun t -> t.t_e_span);
        analytic_mean_makespan = mean_of (fun t -> t.t_a_span);
        exact_mean_checks = mean (List.map (fun t -> t.t_e_checks) trials);
        analytic_mean_checks = mean (List.map (fun t -> t.t_a_checks) trials);
        mean_waits = mean (List.map (fun t -> t.t_waits) trials);
      })
    scale.Scale.switch_counts

let print rows =
  let open Chronus_stats in
  print_endline
    "# Ablation — exact (oracle-gated) vs analytic (polynomial) greedy";
  let table =
    Table.create
      ~headers:
        [
          "switches"; "n"; "exact ok"; "analytic ok"; "agree";
          "|T| exact"; "|T| analytic"; "checks exact"; "checks analytic";
          "waits";
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          string_of_int r.switches;
          string_of_int r.instances;
          string_of_int r.exact_success;
          string_of_int r.analytic_success;
          string_of_int r.agree;
          Printf.sprintf "%.1f" r.exact_mean_makespan;
          Printf.sprintf "%.1f" r.analytic_mean_makespan;
          Printf.sprintf "%.0f" r.exact_mean_checks;
          Printf.sprintf "%.0f" r.analytic_mean_checks;
          Printf.sprintf "%.1f" r.mean_waits;
        ])
    rows;
  Table.print table
