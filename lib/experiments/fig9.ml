open Chronus_topo
open Chronus_stats

type row = {
  switches : int;
  chronus : Boxplot.t;
  chronus_mean : float;
  tp_mean : float;
  saving_pct : float;
}

let run ?jobs ?(scale = Scale.quick) () =
  List.map
    (fun n ->
      let spec = Scenario.spec n in
      let samples =
        Chronus_parallel.Pool.parallel_init ?jobs scale.Scale.instances
          (fun i ->
            let rng = Rng.derive scale.Scale.seed [ 9; n; i ] in
            let inst = Scenario.random_pair ~rng spec in
            ( Chronus_baselines.Two_phase.chronus_rule_count inst,
              (Chronus_baselines.Two_phase.rule_count inst)
                .Chronus_baselines.Two_phase.transition_peak ))
      in
      let chronus_samples = List.map fst samples in
      let tp_samples = List.map snd samples in
      let chronus_mean =
        Descriptive.mean (Descriptive.of_ints chronus_samples)
      in
      let tp_mean = Descriptive.mean (Descriptive.of_ints tp_samples) in
      {
        switches = n;
        chronus = Boxplot.of_int_samples chronus_samples;
        chronus_mean;
        tp_mean;
        saving_pct = 100. *. (tp_mean -. chronus_mean) /. tp_mean;
      })
    scale.Scale.switch_counts

let print rows =
  let table =
    Table.create
      ~headers:
        [ "switches"; "Chronus box"; "Chronus mean"; "TP mean"; "saving %" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          string_of_int r.switches;
          Format.asprintf "%a" Boxplot.pp r.chronus;
          Printf.sprintf "%.1f" r.chronus_mean;
          Printf.sprintf "%.1f" r.tp_mean;
          Printf.sprintf "%.1f" r.saving_pct;
        ])
    rows;
  print_endline "# Fig. 9 — forwarding rules during the transition";
  Table.print table
