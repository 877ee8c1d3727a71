open Chronus_topo

type row = {
  switches : int;
  instances : int;
  chronus_congested : int;
  or_congested : int;
  reduction_pct : float;
}

let run ?jobs ?(scale = Scale.quick) () =
  List.map
    (fun n ->
      let spec = Scenario.spec n in
      let trials =
        Chronus_parallel.Pool.parallel_init ?jobs scale.Scale.instances
          (fun i ->
            let rng = Rng.derive scale.Scale.seed [ 8; n; i ] in
            let inst = Scenario.random_final ~rng spec in
            Trial.run ~with_opt:false ~scale ~rng inst)
      in
      let total f = List.fold_left (fun acc t -> acc + f t) 0 trials in
      let chron = total (fun t -> t.Trial.chronus_congested_links) in
      let ord = total (fun t -> t.Trial.or_congested_links) in
      let reduction_pct =
        if ord = 0 then 0.
        else 100. *. float_of_int (ord - chron) /. float_of_int ord
      in
      {
        switches = n;
        instances = scale.Scale.instances;
        chronus_congested = chron;
        or_congested = ord;
        reduction_pct;
      })
    scale.Scale.switch_counts

let print rows =
  let open Chronus_stats in
  let table =
    Table.create
      ~headers:
        [ "switches"; "instances"; "Chronus"; "OR"; "reduction %" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          string_of_int r.switches;
          string_of_int r.instances;
          string_of_int r.chronus_congested;
          string_of_int r.or_congested;
          Printf.sprintf "%.1f" r.reduction_pct;
        ])
    rows;
  print_endline
    "# Fig. 8 — congested time-extended links, summed over instances";
  Table.print table
