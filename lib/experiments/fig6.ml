open Chronus_flow
open Chronus_sim
open Chronus_topo
open Chronus_exec

type row = {
  second : int;
  chronus_mbps : float;
  tp_mbps : float;
  or_mbps : float;
}

type result = {
  rows : row list;
  chronus_peak : float;
  tp_peak : float;
  or_peak : float;
  chronus_loss : int;
  tp_loss : int;
  or_loss : int;
  capacity_mbps : float;
}

(* The Mininet parameters of Section V-A: 5 Mbit/s links and flow, link
   delays 0.3–0.9 s (the paper draws 5 ms–1 s), second-granularity
   counters. OR additionally suffers the heavy-tailed rule-installation
   latencies reported by Dionysus, which is what makes its rounds
   asynchronous enough to congest. *)
let config =
  {
    Exec_env.default with
    Exec_env.capacity_mbps = 5.0;
    rate_mbps = 5.0;
    delay_unit = Sim_time.msec 300;
    warmup = Sim_time.sec 3;
    drain = Sim_time.sec 8;
  }

let or_config =
  {
    config with
    Exec_env.control_latency = (Sim_time.msec 10, Sim_time.msec 900);
  }

(* Envelope over all links: the most-consumed link at each sampling
   instant, which is where congestion shows regardless of which link the
   schemes stress. *)
let envelope (r : Exec_env.result) second =
  let target = Sim_time.sec second in
  List.fold_left
    (fun acc (_, samples) ->
      List.fold_left
        (fun acc (s : Monitor.sample) ->
          if s.Monitor.at = target then Float.max acc s.Monitor.mbps else acc)
        acc samples)
    0. r.Exec_env.series

(* An instance on which asynchronous order replacement actually misorders
   into congestion: scan seeds until the oracle confirms one. *)
let pick_instance ~switches seed =
  let rec scan k =
    let rng = Rng.make (seed + k) in
    let spec = Scenario.spec ~capacity_choices:[ 1 ] ~delay_lo:1 ~delay_hi:3 switches in
    let inst = Scenario.segment_reversal ~max_len:6 ~rng spec in
    if k >= 20 then inst
    else begin
      let exact =
        Chronus_baselines.Order_replacement.minimum_rounds inst
      in
      match exact.Chronus_baselines.Order_replacement.rounds with
      | None -> scan (k + 1)
      | Some rounds ->
          let sched =
            Chronus_baselines.Order_replacement.schedule_of_rounds ~gap:4
              ~jitter:(fun ~round:_ _ -> Rng.int rng 4)
              rounds
          in
          let report = Oracle.evaluate inst sched in
          let feasible =
            match Chronus_core.Greedy.schedule inst with
            | Chronus_core.Greedy.Scheduled _ -> true
            | Chronus_core.Greedy.Infeasible _ -> false
          in
          if (not report.Oracle.ok) && feasible then inst else scan (k + 1)
    end
  in
  scan 0

let run ?(seed = 7) ?(switches = 10) () =
  let inst = pick_instance ~switches seed in
  let chronus = Timed_exec.run ~config ~seed inst in
  let tp = Two_phase_exec.run ~config ~seed inst in
  let ord = Order_exec.run ~config:or_config ~seed inst in
  let horizon =
    let last (r : Exec_env.result) =
      List.fold_left
        (fun acc (_, samples) ->
          List.fold_left
            (fun acc (s : Monitor.sample) ->
              max acc (s.Monitor.at / Sim_time.sec 1))
            acc samples)
        0 r.Exec_env.series
    in
    min
      (last chronus.Timed_exec.result)
      (min (last tp.Two_phase_exec.result) (last ord.Order_exec.result))
  in
  let rows =
    List.init horizon (fun i ->
        let second = i + 1 in
        {
          second;
          chronus_mbps = envelope chronus.Timed_exec.result second;
          tp_mbps = envelope tp.Two_phase_exec.result second;
          or_mbps = envelope ord.Order_exec.result second;
        })
  in
  {
    rows;
    chronus_peak = chronus.Timed_exec.result.Exec_env.peak_mbps;
    tp_peak = tp.Two_phase_exec.result.Exec_env.peak_mbps;
    or_peak = ord.Order_exec.result.Exec_env.peak_mbps;
    chronus_loss = chronus.Timed_exec.result.Exec_env.loss_bytes;
    tp_loss = tp.Two_phase_exec.result.Exec_env.loss_bytes;
    or_loss = ord.Order_exec.result.Exec_env.loss_bytes;
    capacity_mbps = config.Exec_env.capacity_mbps;
  }

let print r =
  let open Chronus_stats in
  Printf.printf
    "# Fig. 6 — bandwidth consumption over time (link capacity %.1f Mbit/s)\n"
    r.capacity_mbps;
  let table =
    Table.create ~headers:[ "second"; "Chronus Mbps"; "TP Mbps"; "OR Mbps" ]
  in
  List.iter
    (fun row ->
      Table.add_row table
        [
          string_of_int row.second;
          Printf.sprintf "%.2f" row.chronus_mbps;
          Printf.sprintf "%.2f" row.tp_mbps;
          Printf.sprintf "%.2f" row.or_mbps;
        ])
    r.rows;
  Table.print table;
  Printf.printf "peaks: Chronus %.2f, TP %.2f, OR %.2f Mbit/s\n"
    r.chronus_peak r.tp_peak r.or_peak;
  Printf.printf "traffic loss (bytes): Chronus %d, TP %d, OR %d\n"
    r.chronus_loss r.tp_loss r.or_loss
