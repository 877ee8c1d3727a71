open Chronus_sim
open Chronus_graph
open Chronus_flow
open Chronus_topo
module Faults = Chronus_faults.Faults
module Obs = Chronus_obs.Obs

(* Every rule-modification command from every executor flows through
   [dispatch], so this is the one place the counter lives. *)
let c_installs = Obs.Counter.v "exec.rule_installs"
let s_finish = Obs.Span.v "exec.finish"

type config = {
  capacity_mbps : float;
  rate_mbps : float;
  delay_unit : Sim_time.t;
  chunk : Sim_time.t;
  warmup : Sim_time.t;
  drain : Sim_time.t;
  control_latency : Sim_time.t * Sim_time.t;
  sample : Sim_time.t;
  preinstall : (int * Controller.flow_mod) list;
      (** background forwarding state, installed per (switch, flow-mod)
          before the experiment starts; part of the persisted
          configuration a crash-restarting switch reverts to *)
}

let default =
  {
    capacity_mbps = 5.0;
    rate_mbps = 5.0;
    delay_unit = Sim_time.msec 50;
    chunk = Sim_time.msec 10;
    warmup = Sim_time.sec 3;
    drain = Sim_time.sec 5;
    control_latency = (Sim_time.msec 2, Sim_time.msec 40);
    sample = Sim_time.sec 1;
    preinstall = [];
  }

type env = {
  net : Network.t;
  controller : Controller.t;
  monitor : Monitor.t;
  rng : Rng.t;
  config : config;
  inst : Instance.t;
  faults : Faults.Engine.t;
  snapshots : (int, Flow_table.snapshot) Hashtbl.t;
}

let build ?(config = default) ?(seed = 1) ?(faults = Faults.zero) ~tag_initial
    inst =
  let engine = Engine.create () in
  let net = Network.create engine in
  let rng = Rng.make seed in
  let g = inst.Instance.graph in
  List.iter (fun v -> Network.add_switch net v) (Graph.nodes g);
  List.iter
    (fun (u, v, (e : Graph.edge)) ->
      Network.add_link net ~capacity_mbps:config.capacity_mbps
        ~delay:(e.Graph.delay * config.delay_unit)
        u v)
    (Graph.edges g);
  (* Background state first: preinstalled rules get the lowest ids, so
     the experiment's own rules stay younger and tie-breaks among them
     are unaffected by how much ballast surrounds them. *)
  List.iter
    (fun (switch, mod_) ->
      let table = Network.table net switch in
      match mod_ with
      | Controller.Install { priority; dst; tag_match; action } ->
          ignore (Flow_table.install table ~priority ~dst ~tag_match action)
      | Controller.Modify { dst; tag_match; action } ->
          ignore (Flow_table.modify_actions table ~dst ~tag_match action)
      | Controller.Remove { dst; tag_match } ->
          ignore (Flow_table.remove table ~dst ~tag_match)
      | Controller.Install_prefix { priority; prefix; len; tag_match; action } ->
          ignore
            (Flow_table.install_prefix table ~priority ~prefix ~len ~tag_match
               action))
    config.preinstall;
  let dst = Instance.destination inst in
  let src = Instance.source inst in
  let tag_match =
    match tag_initial with
    | None -> Flow_table.Any_tag
    | Some v -> Flow_table.Tag v
  in
  (* Initial rules along the old path; the ingress stamps the version tag
     in the two-phase variant. *)
  List.iter
    (fun v ->
      match Instance.old_next inst v with
      | None -> ()
      | Some w ->
          let table = Network.table net v in
          if v = src then
            ignore
              (Flow_table.install table ~priority:10 ~dst
                 ~tag_match:Flow_table.Any_tag
                 { Flow_table.set_tag = tag_initial; forward = Flow_table.Out w })
          else
            ignore
              (Flow_table.install table ~priority:10 ~dst ~tag_match
                 { Flow_table.set_tag = None; forward = Flow_table.Out w }))
    inst.Instance.p_init;
  ignore
    (Flow_table.install (Network.table net dst) ~priority:10 ~dst
       ~tag_match:Flow_table.Any_tag
       { Flow_table.set_tag = None; forward = Flow_table.To_host });
  let lat_lo, lat_hi = config.control_latency in
  let controller =
    Controller.create
      ~latency:(fun ~switch:_ -> Rng.in_range rng lat_lo lat_hi)
      net
  in
  let monitor = Monitor.create ~interval:config.sample net in
  (* The source runs for the whole experiment; [finish] bounds it. *)
  Network.add_source net ~attach:src ~dst ~rate_mbps:config.rate_mbps
    ~chunk:config.chunk ~start:0
    ~stop:max_int ();
  (* The snapshot a crash-restarting switch reverts to is the initial
     (installed) configuration — what a real switch persists. *)
  let snapshots = Hashtbl.create 16 in
  List.iter
    (fun v -> Hashtbl.replace snapshots v (Flow_table.snapshot (Network.table net v)))
    (Network.switches net);
  let faults = Faults.Engine.create ~seed faults in
  { net; controller; monitor; rng; config; inst; faults; snapshots }

let restore_switch env switch =
  match Hashtbl.find_opt env.snapshots switch with
  | Some s -> Flow_table.restore (Network.table env.net switch) s
  | None -> ()

let dispatch env ?execute_at ?on_ack ~switch mod_ =
  Obs.Counter.incr c_installs;
  let fate = Faults.Engine.command_fate env.faults ~switch in
  (* A timed command executes when the switch's *local* clock reaches the
     stamp, i.e. at [stamp + clock error] of true time. *)
  let execute_at =
    match execute_at with
    | None -> None
    | Some stamp ->
        let err = Faults.Engine.clock_error env.faults ~switch ~at:stamp in
        Some (max 0 (stamp + err))
  in
  let lat_lo, lat_hi = env.config.control_latency in
  let forward () = Rng.in_range env.rng lat_lo lat_hi in
  let handling =
    if fate.Faults.lost then Controller.Lose
    else if fate.Faults.crashed then
      Controller.Crash (fun () -> restore_switch env switch)
    else if fate.Faults.rejected then Controller.Reject
    else Controller.Deliver
  in
  let ack =
    match handling with Controller.Deliver -> on_ack | _ -> None
  in
  Controller.send env.controller ?execute_at
    ~latency:(forward () + fate.Faults.extra_delay_us)
    ~process_delay:fate.Faults.straggle_us ~handling ?ack ~switch mod_;
  if fate.Faults.duplicated then
    (* The copy arrives independently, later (it waits out one channel
       extra-delay window) and is not counted as a controller command. *)
    let cfg = (Faults.Engine.config env.faults).Faults.channel in
    Controller.send env.controller ?execute_at
      ~latency:(forward () + cfg.Faults.extra_delay_us)
      ~counted:false ~switch mod_

type result = {
  series : ((int * int) * Monitor.sample list) list;
  busiest : (int * int) option;
  peak_mbps : float;
  congested_samples : int;
  peak_rules : int;
  loss_bytes : int;
  update_span : Sim_time.t;
  commands : int;
  events : int;  (** events the engine dispatched over the whole run *)
  violations : Monitor.violations;
}

let update_start env = env.config.warmup

let finish env ~update_done =
  let engine = Network.engine env.net in
  let horizon = update_done + env.config.drain in
  Monitor.stop_after env.monitor horizon;
  (* Source emission events re-arm themselves forever; run to the horizon
     and stop. *)
  Engine.run ~until:horizon engine;
  Obs.Span.with_h s_finish (fun () ->
      let busiest, peak_mbps =
        match Monitor.busiest_link env.monitor with
        | Some (link, peak) -> (Some link, peak)
        | None -> (None, 0.)
      in
      let stats = Network.stats env.net in
      let violations = Monitor.violations env.monitor in
      {
        series = Monitor.all_series env.monitor;
        busiest;
        peak_mbps;
        (* Every link's capacity is fixed at [build], so the overload
           count kept at each tick is the number of congested samples. *)
        congested_samples = violations.Monitor.overload_samples;
        peak_rules =
          max (Monitor.peak_rules env.monitor)
            (Controller.peak_rules env.controller);
        loss_bytes = stats.Network.dropped_no_rule + stats.Network.dropped_loop;
        update_span = max 0 (update_done - env.config.warmup);
        commands = Controller.commands_sent env.controller;
        events = Engine.dispatched engine;
        violations;
      })

let modify_of_update inst (u : Instance.update) =
  let dst = Instance.destination inst in
  match (u.Instance.old_next, u.Instance.new_next) with
  | Some _, Some w ->
      Controller.Modify
        {
          dst;
          tag_match = Flow_table.Any_tag;
          action = { Flow_table.set_tag = None; forward = Flow_table.Out w };
        }
  | None, Some w ->
      Controller.Install
        {
          priority = 10;
          dst;
          tag_match = Flow_table.Any_tag;
          action = { Flow_table.set_tag = None; forward = Flow_table.Out w };
        }
  | Some _, None ->
      Controller.Remove { dst; tag_match = Flow_table.Any_tag }
  | None, None -> assert false
