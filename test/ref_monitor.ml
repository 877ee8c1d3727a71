(* Reference model for the differential test in suite_monitor.ml: the
   hash-table-backed link monitor that [Chronus_sim.Monitor] replaced,
   unchanged except that it feeds no metrics. Every tick it reads
   [Network.links] and keeps per-link state in tables keyed by
   [(src, dst)]; the production monitor must agree with it on every
   query. *)

open Chronus_sim

type sample = Monitor.sample = { at : Sim_time.t; mbps : float }

type violations = Monitor.violations = {
  transient_loops : int;
  blackholes : int;
  overload_samples : int;
}

type t = {
  net : Network.t;
  interval : Sim_time.t;
  previous : (int * int, int) Hashtbl.t;
  samples : (int * int, sample list) Hashtbl.t;
  (* Running per-link peak, so [peak]/[busiest_link] don't refold the
     whole sample history on every call. *)
  peaks : (int * int, float) Hashtbl.t;
  mutable peak_rules : int;
  mutable stop_at : Sim_time.t option;
  mutable transient_loops : int;
  mutable blackholes : int;
  mutable overload_samples : int;
}

let take_sample t =
  List.iter
    (fun link ->
      let current = Network.link_bytes t.net link in
      let before =
        Option.value ~default:0 (Hashtbl.find_opt t.previous link)
      in
      Hashtbl.replace t.previous link current;
      let bits = float_of_int ((current - before) * 8) in
      let mbps = bits /. Sim_time.to_sec t.interval /. 1e6 in
      let s =
        { at = Engine.now (Network.engine t.net); mbps }
      in
      let history =
        Option.value ~default:[] (Hashtbl.find_opt t.samples link)
      in
      Hashtbl.replace t.samples link (s :: history);
      let best =
        Option.value ~default:0. (Hashtbl.find_opt t.peaks link)
      in
      if mbps > best then Hashtbl.replace t.peaks link mbps;
      if mbps > Network.link_capacity_mbps t.net link then
        t.overload_samples <- t.overload_samples + 1)
    (Network.links t.net);
  t.peak_rules <- max t.peak_rules (Network.total_rules t.net)

let create ?(interval = Sim_time.sec 1) net =
  let t =
    {
      net;
      interval;
      previous = Hashtbl.create 32;
      samples = Hashtbl.create 32;
      peaks = Hashtbl.create 32;
      peak_rules = Network.total_rules net;
      stop_at = None;
      transient_loops = 0;
      blackholes = 0;
      overload_samples = 0;
    }
  in
  Network.on_drop net (fun reason ~switch:_ ~bytes:_ ->
      match reason with
      | Network.Hop_limit -> t.transient_loops <- t.transient_loops + 1
      | Network.No_rule -> t.blackholes <- t.blackholes + 1);
  let engine = Network.engine net in
  let rec tick at =
    let beyond =
      match t.stop_at with Some stop -> at > stop | None -> false
    in
    if not beyond then
      Engine.at engine at (fun () ->
          take_sample t;
          tick (at + interval))
  in
  tick (Engine.now engine + interval);
  t

let stop_after t time = t.stop_at <- Some time

let series t link =
  List.rev (Option.value ~default:[] (Hashtbl.find_opt t.samples link))

let peak t link =
  Option.value ~default:0. (Hashtbl.find_opt t.peaks link)

let busiest_link t =
  Hashtbl.fold
    (fun link _ acc ->
      let p = peak t link in
      match acc with
      | Some (_, best) when best >= p -> acc
      | _ -> Some (link, p))
    t.samples None

let congested_samples t =
  Hashtbl.fold
    (fun link history acc ->
      let capacity = Network.link_capacity_mbps t.net link in
      List.fold_left
        (fun acc s -> if s.mbps > capacity then (link, s) :: acc else acc)
        acc history)
    t.samples []
  |> List.sort compare

let violations t =
  {
    transient_loops = t.transient_loops;
    blackholes = t.blackholes;
    overload_samples = t.overload_samples;
  }

let peak_rules t = t.peak_rules
