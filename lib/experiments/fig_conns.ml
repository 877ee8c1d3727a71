open Chronus_graph
open Chronus_sim
open Chronus_flow
open Chronus_topo
open Chronus_exec
module Fiber = Chronus_fiber.Fiber
module Obs = Chronus_obs.Obs

(* Heavy-traffic control plane: thousands of concurrent switch sessions —
   each a fiber pinging the control channel and awaiting its ack — while
   one Chronus timed update executes cleanly underneath on a k-ary
   fat-tree. Virtual-time RTT percentiles, peak fiber counts and event
   totals are deterministic at any job count; wall_s is measured. *)

type row = {
  conns : int;
  switches : int;
  peak_fibers : int;
  pings : int;
  rtt_p50_ms : float;
  rtt_p99_ms : float;
  update_clean : bool;
  update_span_s : float;
  events : int;
  wall_s : float;
}

(* An echo destination no flow table holds: the [Remove] is a no-op on
   the switch's rules, but the command and its ack ride the full
   controller -> switch -> controller channel — a session ping. *)
let echo_dst = 0x3FFF_FF00

(* Short warmup/drain, as in fig_scale: sessions need the whole horizon
   live, not a long idle tail. *)
let config =
  {
    Exec_env.default with
    Exec_env.warmup = Sim_time.sec 1;
    drain = Sim_time.sec 2;
  }

(* One session: ping a fixed switch, await the ack, think, repeat until
   the update's deadline has passed. All timing is virtual, so the RTT
   distribution is deterministic. *)
let session ~env ~rng ~switch ~stop ~rtts ~pings box =
  let rec loop () =
    if Fiber.now () < stop then begin
      let sent = Fiber.now () in
      Exec_env.dispatch env ~switch
        ~on_ack:(fun at -> Fiber.Mailbox.send box at)
        (Controller.Remove { dst = echo_dst; tag_match = Flow_table.Any_tag });
      let at = Fiber.Mailbox.recv box in
      rtts := (at - sent) :: !rtts;
      incr pings;
      Fiber.sleep (Rng.in_range rng (Sim_time.msec 100) (Sim_time.msec 300));
      loop ()
    end
  in
  loop ()

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let i = min (n - 1) (int_of_float (q *. float_of_int n)) in
    Sim_time.to_sec sorted.(i) *. 1e3

let run_cell ~seed ~k conns =
  let wall0 = Obs.clock_ns () in
  let rng = Rng.derive seed [ 30; k; conns ] in
  let inst = Scenario.fat_tree_reroute ~rng k in
  let { Chronus_core.Fallback.schedule; clean } =
    Chronus_core.Fallback.schedule inst
  in
  let env = Exec_env.build ~config ~seed:(Rng.int rng 0x3FFFFFFF)
      ~tag_initial:None inst
  in
  let engine = Network.engine env.Exec_env.net in
  let rt = Engine.fiber_runtime engine in
  let prog = Timed_exec.launch env schedule in
  let stop = prog.Timed_exec.deadline in
  let nodes = Array.of_list (Graph.nodes inst.Instance.graph) in
  let rtts = ref [] and pings = ref 0 in
  (* Spawn every session up front: all [conns] fibers are live from
     virtual time zero through the update's whole execution window. *)
  let sessions =
    List.init conns (fun i ->
        let srng = Rng.derive seed [ 31; k; conns; i ] in
        let switch = nodes.(Rng.int srng (Array.length nodes)) in
        let box = Fiber.Mailbox.create rt in
        Fiber.spawn_root rt (fun () ->
            (* Desynchronise the first ping across the warmup window. *)
            Fiber.sleep_until (Rng.in_range srng 0 (Sim_time.msec 900));
            session ~env ~rng:srng ~switch ~stop ~rtts ~pings box))
  in
  Engine.run ~until:(stop + Sim_time.sec 1) engine;
  let peak_fibers = (Fiber.stats rt).Fiber.peak_live in
  (* Sessions exit on their own once [stop] passes; retire any straggler
     still parked on a mailbox before closing the books. *)
  List.iter Fiber.cancel sessions;
  Fiber.drain rt;
  let update_done =
    match prog.Timed_exec.finished with
    | Some at -> at
    | None -> stop + Sim_time.sec 1
  in
  let result = Exec_env.finish env ~update_done in
  let sorted = Array.of_list !rtts in
  Array.sort compare sorted;
  {
    conns;
    switches = Graph.node_count inst.Instance.graph;
    peak_fibers;
    pings = !pings;
    rtt_p50_ms = percentile sorted 0.50;
    rtt_p99_ms = percentile sorted 0.99;
    update_clean =
      clean
      && (not prog.Timed_exec.fallen_back)
      && prog.Timed_exec.pending = 0
      && Monitor.no_violations result.Exec_env.violations;
    update_span_s = Sim_time.to_sec result.Exec_env.update_span;
    events = result.Exec_env.events;
    wall_s = float_of_int (Obs.clock_ns () - wall0) /. 1e9;
  }

(* Tiny keeps CI fast on an 80-switch fat-tree; the session counts of
   [scale.conns] run on k=16 otherwise. *)
let fat_tree_k scale = if scale.Scale.instances <= 4 then 8 else 16

let run ?jobs ?(scale = Scale.quick) () =
  let seed = scale.Scale.seed in
  let k = fat_tree_k scale in
  (* One cell per connection count; RNG lanes are keyed by (k, conns),
     so rows are bit-identical at any job count and under any cell
     mix. *)
  Chronus_parallel.Pool.parallel_map ?jobs
    (fun n -> run_cell ~seed ~k n)
    scale.Scale.conns

let stable rows = List.map (fun r -> { r with wall_s = 0. }) rows

let json rows =
  let open Chronus_obs.Json in
  [
    ( "rows",
      Obj
        (List.map
           (fun r ->
             ( Printf.sprintf "conns-%d" r.conns,
               Obj
                 [
                   ("switches", Int r.switches);
                   ("peak_fibers", Int r.peak_fibers);
                   ("pings", Int r.pings);
                   ("rtt_p50_ms", Float r.rtt_p50_ms);
                   ("rtt_p99_ms", Float r.rtt_p99_ms);
                   ("update_clean", Bool r.update_clean);
                   ("update_span_s", Float r.update_span_s);
                   ("events", Int r.events);
                   ("wall_s", Float r.wall_s);
                 ] ))
           rows) );
  ]

let print rows =
  let open Chronus_stats in
  let table =
    Table.create
      ~headers:
        [
          "conns";
          "switches";
          "peak fibers";
          "pings";
          "RTT p50 ms";
          "RTT p99 ms";
          "update clean";
          "update s";
          "events";
          "wall s";
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          string_of_int r.conns;
          string_of_int r.switches;
          string_of_int r.peak_fibers;
          string_of_int r.pings;
          Printf.sprintf "%.1f" r.rtt_p50_ms;
          Printf.sprintf "%.1f" r.rtt_p99_ms;
          (if r.update_clean then "yes" else "no");
          Printf.sprintf "%.2f" r.update_span_s;
          string_of_int r.events;
          Printf.sprintf "%.2f" r.wall_s;
        ])
    rows;
  print_endline
    "# Connections — timed update under heavy concurrent control traffic";
  Table.print table
