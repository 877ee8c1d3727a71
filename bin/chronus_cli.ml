(* The chronus command-line tool: schedule one update instance, inspect
   the algorithms' intermediate structures, or regenerate any table/figure
   of the paper's evaluation. *)

open Cmdliner
open Chronus_flow
open Chronus_core
module E = Chronus_experiments

let scale_arg =
  let doc =
    "Experiment scale preset: "
    ^ Arg.doc_alts_enum E.Scale.presets
    ^ ". The $(b,--topos), $(b,--rates) and $(b,--conns) flags override \
       single axes of it."
  in
  Arg.(
    value
    & opt (enum E.Scale.presets) E.Scale.quick
    & info [ "scale" ] ~docv:"PRESET" ~doc)

let metrics_arg =
  let doc =
    "After each figure, print the per-label observability table (counters, \
     gauges and span timers accumulated during the run — see \
     OBSERVABILITY.md for the label vocabulary)."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let jobs_arg =
  let doc =
    "Domains to fan experiment trials out over (default: $(b,CHRONUS_JOBS) \
     or the recommended domain count). Rows are identical at any value."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let generators =
  let open Chronus_topo.Scenario in
  [
    ("fig1", fun ~rng:_ _ -> fig1_example ());
    ("random-final", random_final);
    ("reversal", fun ~rng spec -> segment_reversal ~rng spec);
    ("shortcut", shortcut);
    ("random-pair", random_pair);
    ("mixed", mixed);
  ]

let generator_arg =
  let doc = "Instance generator: " ^ Arg.doc_alts_enum generators ^ "." in
  Arg.(
    value
    & opt (enum (List.map (fun (name, _) -> (name, name)) generators)) "fig1"
    & info [ "generator" ] ~docv:"GEN" ~doc)

let instance_of_generator ~gen ~n ~seed =
  (List.assoc gen generators)
    ~rng:(Chronus_topo.Rng.make seed)
    (Chronus_topo.Scenario.spec n)

(* chronus schedule *)
let schedule_cmd =
  let n =
    Arg.(
      value & opt int 10
      & info [ "switches" ] ~docv:"N" ~doc:"Number of switches.")
  in
  let run gen n seed =
    let inst = instance_of_generator ~gen ~n ~seed in
    Format.printf "%a@.@." Instance.pp inst;
    let drain = Drain.make inst in
    let dep =
      Dependency.at inst drain Schedule.empty
        ~remaining:(Instance.switches_to_update inst)
        ~time:0
    in
    Format.printf "dependency relations at t0: %a@.@." Dependency.pp dep;
    List.iter
      (fun c -> Format.printf "crossing: %a@." Tree.pp_crossing c)
      (Tree.crossings inst);
    (match Greedy.schedule ~mode:Greedy.Exact inst with
    | Greedy.Scheduled s ->
        Format.printf "@.schedule: %a@.update time |T| = %d steps@."
          Schedule.pp s (Schedule.makespan s);
        Format.printf "oracle: %a@." Oracle.pp_report (Oracle.evaluate inst s)
    | Greedy.Infeasible { remaining; _ } ->
        Format.printf
          "@.no congestion- and loop-free schedule exists (%d switches \
           unschedulable); best effort:@."
          (List.length remaining);
        let { Fallback.schedule; _ } = Fallback.schedule inst in
        Format.printf "schedule: %a@.oracle: %a@." Schedule.pp schedule
          Oracle.pp_report
          (Oracle.evaluate inst schedule));
    0
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Compute a Chronus timed update schedule.")
    Term.(const run $ generator_arg $ n $ seed_arg)

(* chronus experiment *)
let experiment_cmd =
  (* Every canonical figure name and alias, resolved to the canonical
     name, plus "all". *)
  let choices =
    ("all", "all")
    :: List.concat_map
         (fun f -> List.map (fun n -> (n, E.Figure.name f)) (E.Figure.names f))
         E.Figure.all
  in
  let which =
    Arg.(
      required
      & pos 0 (some (enum choices)) None
      & info [] ~docv:"EXPERIMENT"
          ~doc:("The figure to regenerate: " ^ Arg.doc_alts_enum choices ^ "."))
  in
  (* An axis override: a comma-separated list replacing one field of the
     preset. *)
  let axis elt name doc =
    let docv = String.uppercase_ascii name in
    Arg.(value & opt (some (list elt)) None & info [ name ] ~docv ~doc)
  in
  let conns_arg =
    axis Arg.int "conns"
      "Concurrent-session counts for the $(b,conns) experiment, e.g. \
       $(b,--conns 2000,10000). Default: the scale's session axis."
  in
  let rates_arg =
    axis Arg.int "rates"
      "Offered rates (requests per round) for the $(b,service) experiment, \
       e.g. $(b,--rates 1,16). Default: the scale's rate axis."
  in
  let topos_arg =
    let topo =
      Arg.conv'
        ( E.Scale.topo_of_string,
          fun ppf t -> Format.pp_print_string ppf (E.Scale.topo_to_string t) )
    in
    axis topo "topos"
      "Topology cells for the $(b,scale) experiment, e.g. \
       $(b,--topos fat16,b4,wan32) ($(b,fatK) is a k-ary fat-tree, \
       $(b,wanN) an N-site WAN). Default: the scale's cell list."
  in
  (* The axis flags are record updates of the preset. *)
  let scale =
    let with_axes scale rates topos conns =
      let ( |? ) o d = Option.value o ~default:d in
      {
        scale with
        E.Scale.rates = rates |? scale.E.Scale.rates;
        topos = topos |? scale.E.Scale.topos;
        conns = conns |? scale.E.Scale.conns;
      }
    in
    Term.(const with_axes $ scale_arg $ rates_arg $ topos_arg $ conns_arg)
  in
  let run which scale jobs metrics =
    let jobs =
      match jobs with
      | Some j -> j
      | None -> Chronus_parallel.Pool.default_jobs ()
    in
    let figures =
      List.filter
        (fun f -> which = "all" || E.Figure.name f = which)
        E.Figure.all
    in
    List.iter
      (fun f ->
        let m = E.Figure.measure f ~jobs ~scale in
        m.E.Figure.print ();
        if metrics && m.E.Figure.metrics <> [] then begin
          Printf.printf "\n-- metrics (%s) --\n" (E.Figure.name f);
          Chronus_obs.Obs.print_table m.E.Figure.metrics
        end;
        if which = "all" then print_newline ())
      figures;
    0
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate a table or figure of the paper's evaluation.")
    Term.(const run $ which $ scale $ jobs_arg $ metrics_arg)

(* chronus demo *)
let demo_cmd =
  let faults_arg =
    let doc =
      "Fault-injection preset applied to every executor: $(b,none), \
       $(b,drift) (clock error only), $(b,lossy) (control-channel faults) \
       or $(b,chaos) (everything, including switch failures)."
    in
    Arg.(value & opt string "none" & info [ "faults" ] ~docv:"PRESET" ~doc)
  in
  let clock_error_arg =
    let doc =
      "Override the per-switch clock offset and per-flip jitter bounds to \
       this many milliseconds (composes with $(b,--faults))."
    in
    Arg.(value & opt int 0 & info [ "clock-error" ] ~docv:"MS" ~doc)
  in
  let run seed faults_name clock_error_ms =
    let module Faults = Chronus_faults.Faults in
    let faults =
      let base = Faults.of_preset faults_name in
      if clock_error_ms > 0 then
        Faults.with_clock_error (Chronus_sim.Sim_time.msec clock_error_ms) base
      else base
    in
    let inst = Chronus_topo.Scenario.fig1_example () in
    Format.printf
      "Running the paper's worked example (Figs. 1-3) on the simulator@.";
    Format.printf "%a, clock error %d ms@.@." Faults.pp faults clock_error_ms;
    let c = Chronus_exec.Timed_exec.run ~seed ~faults inst in
    let o = Chronus_exec.Order_exec.run ~seed ~faults inst in
    let violations (r : Chronus_exec.Exec_env.result) =
      let v = r.Chronus_exec.Exec_env.violations in
      v.Chronus_sim.Monitor.transient_loops
      + v.Chronus_sim.Monitor.blackholes
      + v.Chronus_sim.Monitor.overload_samples
    in
    Format.printf
      "Chronus: schedule %a, peak %.2f Mbit/s, loss %d bytes@." Schedule.pp
      c.Chronus_exec.Timed_exec.schedule
      c.Chronus_exec.Timed_exec.result.Chronus_exec.Exec_env.peak_mbps
      c.Chronus_exec.Timed_exec.result.Chronus_exec.Exec_env.loss_bytes;
    Format.printf
      "         path %a, %d retries, %d unacked, %d violations@."
      Chronus_exec.Timed_exec.pp_path c.Chronus_exec.Timed_exec.path
      c.Chronus_exec.Timed_exec.retries c.Chronus_exec.Timed_exec.unacked
      (violations c.Chronus_exec.Timed_exec.result);
    Format.printf "OR:      %d rounds, peak %.2f Mbit/s, loss %d bytes@."
      (List.length o.Chronus_exec.Order_exec.rounds)
      o.Chronus_exec.Order_exec.result.Chronus_exec.Exec_env.peak_mbps
      o.Chronus_exec.Order_exec.result.Chronus_exec.Exec_env.loss_bytes;
    Format.printf "         %d violations@."
      (violations o.Chronus_exec.Order_exec.result);
    0
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run the worked example on the simulator.")
    Term.(const run $ seed_arg $ faults_arg $ clock_error_arg)

(* chronus render *)
let render_cmd =
  let n =
    Arg.(
      value & opt int 10
      & info [ "switches" ] ~docv:"N" ~doc:"Number of switches.")
  in
  let out =
    Arg.(
      value & opt string "chronus"
      & info [ "out" ] ~docv:"PREFIX" ~doc:"Output file prefix.")
  in
  let run gen n seed out =
    let inst = instance_of_generator ~gen ~n ~seed in
    (* Fig. 1: the network with the solid initial and dashed final path. *)
    Chronus_graph.Dot.write_file ~name:"network"
      ~initial_path:inst.Instance.p_init ~final_path:inst.Instance.p_fin
      (out ^ "-network.dot") inst.Instance.graph;
    Printf.printf "wrote %s-network.dot\n" out;
    (* Fig. 2: the time-extended network with the flow of the computed
       schedule highlighted. *)
    let sched =
      match Greedy.schedule inst with
      | Greedy.Scheduled s -> s
      | Greedy.Infeasible _ -> (Fallback.schedule inst).Fallback.schedule
    in
    let te = Time_extended.of_instance inst sched in
    let highlight =
      List.map (fun (a, b, _) -> (a, b)) (Time_extended.flow_links te inst sched)
    in
    let oc = open_out (out ^ "-time-extended.dot") in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Time_extended.to_dot ~highlight te));
    Printf.printf "wrote %s-time-extended.dot (schedule %s)\n" out
      (Format.asprintf "%a" Schedule.pp sched);
    0
  in
  Cmd.v
    (Cmd.info "render"
       ~doc:
         "Write Graphviz files: the network with both routes (Fig. 1) and \
          the time-extended network carrying the scheduled flow (Fig. 2).")
    Term.(const run $ generator_arg $ n $ seed_arg $ out)

(* chronus ilp *)
let ilp_cmd =
  let run seed =
    let inst = instance_of_generator ~gen:"fig1" ~n:6 ~seed in
    print_string (Mutp.render_ilp inst);
    0
  in
  Cmd.v
    (Cmd.info "ilp"
       ~doc:"Print the MUTP integer program (3) for the worked example.")
    Term.(const run $ seed_arg)

let main =
  let doc = "Chronus: consistent data plane updates in timed SDNs" in
  Cmd.group
    (Cmd.info "chronus" ~version:"1.0.0" ~doc)
    [ schedule_cmd; experiment_cmd; render_cmd; demo_cmd; ilp_cmd ]

let () = exit (Cmd.eval' main)
