open Chronus_topo
open Chronus_stats

type result = {
  switches : int;
  instances : int;
  chronus : Cdf.t;
  opt : Cdf.t;
  chronus_median : float;
  opt_median : float;
}

let run ?jobs ?(scale = Scale.quick) ?(switches = 40) () =
  let spec = Scenario.spec switches in
  let trials =
    Chronus_parallel.Pool.parallel_init ?jobs scale.Scale.instances
      (fun i ->
        let rng = Rng.derive scale.Scale.seed [ 11; switches; i ] in
        let inst = Scenario.random_final ~rng spec in
        Trial.run ~scale ~rng inst)
  in
  (* The paper's CDF covers successful updates; infeasible instances
     have no finite update time. *)
  let clean = List.filter (fun t -> t.Trial.chronus_clean) trials in
  let chronus_samples =
    List.map (fun t -> t.Trial.chronus_makespan) clean
  in
  let opt_samples =
    List.map
      (fun t ->
        match t.Trial.opt_makespan with
        | Some m -> m
        | None -> t.Trial.chronus_makespan)
      clean
  in
  let chronus_samples =
    match chronus_samples with [] -> [ 0 ] | l -> l
  in
  let opt_samples = match opt_samples with [] -> [ 0 ] | l -> l in
  let chronus = Cdf.of_int_samples chronus_samples in
  let opt = Cdf.of_int_samples opt_samples in
  {
    switches;
    instances = Cdf.size chronus;
    chronus;
    opt;
    chronus_median = Cdf.inverse chronus 0.5;
    opt_median = Cdf.inverse opt 0.5;
  }

let print r =
  Printf.printf
    "# Fig. 11 — CDF of update time (time units), %d switches, %d samples\n"
    r.switches r.instances;
  let table = Table.create ~headers:[ "time units"; "Chronus F"; "OPT F" ] in
  let xs =
    List.sort_uniq compare
      (List.map fst (Cdf.points r.chronus) @ List.map fst (Cdf.points r.opt))
  in
  List.iter
    (fun x ->
      Table.add_row table
        [
          Printf.sprintf "%.0f" x;
          Printf.sprintf "%.3f" (Cdf.eval r.chronus x);
          Printf.sprintf "%.3f" (Cdf.eval r.opt x);
        ])
    xs;
  Table.print table;
  Printf.printf "medians: Chronus %.1f, OPT %.1f\n" r.chronus_median
    r.opt_median
