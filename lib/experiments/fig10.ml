open Chronus_flow
open Chronus_core
open Chronus_baselines
open Chronus_topo

type timing = Seconds of float | Capped of float

type row = {
  switches : int;
  updates : int;
  chronus : timing;
  or_exact : timing;
  opt : timing;
}

(* Every timing is measured; only the axis and the update counts are
   digested. *)
let stable rows =
  List.map
    (fun r ->
      { r with chronus = Seconds 0.; or_exact = Seconds 0.; opt = Seconds 0. })
    rows

let timing_to_string = function
  | Seconds s -> Printf.sprintf "%.3f" s
  | Capped c -> Printf.sprintf ">%.0f" c

let time_it f =
  let start = Sys.time () in
  f ();
  Sys.time () -. start

let run ?jobs ?(scale = Scale.quick) () =
  let cap = scale.Scale.baseline_cap in
  (* Building the giant instances is parallel; the timing runs below stay
     sequential so sibling domains cannot distort what the figure
     measures. Each size draws from its own coordinate-derived stream. *)
  let instances =
    Chronus_parallel.Pool.parallel_map ?jobs
      (fun n ->
        (* Capacity 2d everywhere: transient merges always fit, so the
           scale instances are schedulable and the figure times scheduling
           work rather than infeasibility proofs (the paper's OPT would
           not terminate on provably infeasible giants either). *)
        let rng = Rng.derive scale.Scale.seed [ 10; n ] in
        let spec = Scenario.spec ~capacity_choices:[ 2 ] n in
        (n, Scenario.long_chain ~rng spec))
      scale.Scale.big_switch_counts
  in
  List.map
    (fun (n, inst) ->
      let chronus =
        Seconds
          (time_it (fun () ->
               ignore (Greedy.schedule ~mode:Greedy.Analytic inst)))
      in
      (* The exact searches honour their own budgets; when the budget ran
         out we report the cap, as the paper does for >60 s points. *)
      let or_exact =
        let start = Sys.time () in
        let r =
          Order_replacement.minimum_rounds ~budget:scale.Scale.or_budget inst
        in
        let elapsed = Sys.time () -. start in
        if r.Order_replacement.optimal && elapsed <= cap then Seconds elapsed
        else Capped cap
      in
      let opt =
        let r =
          Opt.solve ~budget:scale.Scale.opt_budget ~timeout:cap inst
        in
        match r.Opt.outcome with
        | Opt.Optimal _ when r.Opt.elapsed <= cap -> Seconds r.Opt.elapsed
        | Opt.Infeasible when r.Opt.elapsed <= cap -> Seconds r.Opt.elapsed
        | _ -> Capped cap
      in
      { switches = n; updates = Instance.update_count inst; chronus; or_exact; opt })
    instances

let print rows =
  let open Chronus_stats in
  let table =
    Table.create
      ~headers:[ "switches"; "updates"; "Chronus (s)"; "OR (s)"; "OPT (s)" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          string_of_int r.switches;
          string_of_int r.updates;
          timing_to_string r.chronus;
          timing_to_string r.or_exact;
          timing_to_string r.opt;
        ])
    rows;
  print_endline "# Fig. 10 — scheduler running time";
  Table.print table
