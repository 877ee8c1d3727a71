open Chronus_topo

type row = {
  switches : int;
  instances : int;
  chronus_congestion_pct : float;
  opt_congestion_pct : float;
  or_congestion_pct : float;
}

let pct bad total = 100. *. float_of_int bad /. float_of_int (max 1 total)

let run ?jobs ?(scale = Scale.quick) () =
  List.map
    (fun n ->
      let spec = Scenario.spec n in
      (* Trial [i] owns the generator at coordinates (seed, 7, n, i), so
         the fan-out below commutes with sequential execution and rows
         are bit-identical at any job count. *)
      let trials =
        Chronus_parallel.Pool.parallel_init ?jobs scale.Scale.instances
          (fun i ->
            let rng = Rng.derive scale.Scale.seed [ 7; n; i ] in
            let inst = Scenario.random_final ~rng spec in
            Trial.run ~scale ~rng inst)
      in
      let count f = List.length (List.filter f trials) in
      let chron = count (fun t -> not t.Trial.chronus_clean) in
      let opt = count (fun t -> not t.Trial.opt_clean) in
      let ord = count (fun t -> not t.Trial.or_clean) in
      {
        switches = n;
        instances = scale.Scale.instances;
        chronus_congestion_pct = pct chron scale.Scale.instances;
        opt_congestion_pct = pct opt scale.Scale.instances;
        or_congestion_pct = pct ord scale.Scale.instances;
      })
    scale.Scale.switch_counts

let print rows =
  let open Chronus_stats in
  let table =
    Table.create
      ~headers:[ "switches"; "instances"; "Chronus %"; "OPT %"; "OR %" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          string_of_int r.switches;
          string_of_int r.instances;
          Printf.sprintf "%.1f" r.chronus_congestion_pct;
          Printf.sprintf "%.1f" r.opt_congestion_pct;
          Printf.sprintf "%.1f" r.or_congestion_pct;
        ])
    rows;
  print_endline "# Fig. 7 — percentage of congestion cases (lower is better)";
  Table.print table
