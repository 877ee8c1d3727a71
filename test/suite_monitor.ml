(* The array-indexed [Monitor] against [Ref_monitor], the hash-table
   monitor it replaced. Both watch identical copies of a random small
   network: links added in shuffled order, some while the monitor runs
   and some after the last tick, a few re-added (which resets them);
   random per-destination next hops, so traffic may loop, blackhole on a
   missing link, or overload a link; and equal-rate sources, often
   parallel, so tied peaks are the rule. Every query and [Network.links]
   must agree exactly, including [busiest_link]'s tie-break. *)

open Chronus_sim
open QCheck

type link = int * int * float * Sim_time.t

type desc = {
  switches : int;
  interval : Sim_time.t;
  horizon : Sim_time.t;
  initial : link list;  (** added before the monitor starts, in order *)
  late : (Sim_time.t * link) list;  (** added while the engine runs *)
  after : link list;  (** added after the run, before the queries *)
  routes : (int * int * int option) list;
      (** (switch, dst, next hop); [None] delivers to the host *)
  sources : (int * int * float) list;  (** attach, dst, rate *)
  stop : Sim_time.t;
}

let pick st a = a.(Random.State.int st (Array.length a))

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let desc_of_seed seed =
  let st = Random.State.make [| seed |] in
  let n = 3 + Random.State.int st 12 in
  let density = pick st [| 0.15; 0.4; 0.8 |] in
  let link u v =
    ( u,
      v,
      pick st [| 2.; 4.; 5.; 10. |],
      Sim_time.msec (1 + Random.State.int st 40) )
  in
  let pairs =
    List.concat_map
      (fun u ->
        List.filter_map
          (fun v ->
            if u <> v && Random.State.float st 1. < density then
              Some (link u v)
            else None)
          (List.init n Fun.id))
      (List.init n Fun.id)
    |> shuffle st
  in
  let interval = pick st [| Sim_time.msec 500; Sim_time.sec 1 |] in
  let horizon = Sim_time.msec 4500 in
  let step () = Sim_time.msec (250 * Random.State.int st 19) in
  let initial, late, after =
    List.fold_left
      (fun (i, l, a) lk ->
        let r = Random.State.int st 20 in
        if r < 15 then (lk :: i, l, a)
        else if r < 18 then (i, (step (), lk) :: l, a)
        else (i, l, lk :: a))
      ([], [], []) pairs
  in
  (* A few re-adds of an existing link: new capacity, counter reset. *)
  let readds =
    List.filter_map
      (fun (u, v, _, _) ->
        if Random.State.int st 10 = 0 then Some (step (), link u v) else None)
      initial
  in
  let dsts =
    List.init (1 + Random.State.int st 3) (fun _ -> Random.State.int st n)
  in
  let routes =
    List.concat_map
      (fun d ->
        List.filter_map
          (fun v ->
            if v = d then Some (v, d, None)
            else
              let outs = List.filter (fun (u, _, _, _) -> u = v) pairs in
              if outs = [] || Random.State.int st 8 = 0 then None
              else
                let _, w, _, _ = pick st (Array.of_list outs) in
                Some (v, d, Some w))
          (List.init n Fun.id))
      (List.sort_uniq compare dsts)
  in
  let rate = pick st [| 2.; 4.; 5. |] in
  let sources =
    List.init
      (1 + Random.State.int st 4)
      (fun _ ->
        let attach = Random.State.int st n in
        let d = pick st (Array.of_list dsts) in
        (* Mostly one shared rate, so parallel flows tie. *)
        let r =
          if Random.State.int st 4 = 0 then pick st [| 2.; 4.; 5. |] else rate
        in
        (attach, d, r))
  in
  {
    switches = n;
    interval;
    horizon;
    initial = List.rev initial;
    late = List.rev_append readds late;
    after;
    routes;
    sources;
    stop = Sim_time.msec (2000 + (250 * Random.State.int st 11));
  }

let add net (u, v, capacity_mbps, delay) =
  Network.add_link net ~capacity_mbps ~delay u v

(* Build [d] on a fresh engine, start a monitor with [watch], run to the
   horizon, then add [d.after]. *)
let run d watch =
  let e = Engine.create () in
  let net = Network.create e in
  for v = 0 to d.switches - 1 do
    Network.add_switch net v
  done;
  List.iter (add net) d.initial;
  List.iter
    (fun (v, dst, next) ->
      let forward =
        match next with
        | None -> Flow_table.To_host
        | Some w -> Flow_table.Out w
      in
      ignore
        (Flow_table.install (Network.table net v) ~priority:1 ~dst
           ~tag_match:Flow_table.Any_tag
           { Flow_table.set_tag = None; forward }))
    d.routes;
  let m, stop_after = watch net in
  List.iter (fun (at, lk) -> Engine.at e at (fun () -> add net lk)) d.late;
  List.iter
    (fun (attach, dst, rate_mbps) ->
      Network.add_source net ~attach ~dst ~rate_mbps
        ~chunk:(Sim_time.msec 50) ~start:0 ~stop:d.stop ())
    d.sources;
  stop_after d.horizon;
  Engine.run ~until:d.horizon e;
  List.iter (add net) d.after;
  (net, m)

let agree ~what d =
  let net, m =
    run d (fun net ->
        let m = Monitor.create ~interval:d.interval net in
        (m, Monitor.stop_after m))
  in
  let rnet, r =
    run d (fun net ->
        let r = Ref_monitor.create ~interval:d.interval net in
        (r, Ref_monitor.stop_after r))
  in
  let expect field ok =
    if not ok then Test.fail_reportf "%s: %s differs" what field
  in
  let added =
    List.map
      (fun (u, v, _, _) -> (u, v))
      (d.initial @ List.map snd d.late @ d.after)
  in
  let keys = (d.switches, d.switches + 1) :: added in
  let links = List.sort_uniq compare added in
  expect "Network.links"
    (Network.links net = links && Network.links rnet = links);
  List.iter
    (fun k ->
      expect "series" (Monitor.series m k = Ref_monitor.series r k);
      expect "peak" (Monitor.peak m k = Ref_monitor.peak r k))
    keys;
  expect "all_series"
    (Monitor.all_series m
    = List.map (fun k -> (k, Ref_monitor.series r k)) links);
  expect "busiest_link" (Monitor.busiest_link m = Ref_monitor.busiest_link r);
  expect "congested_samples"
    (Monitor.congested_samples m = Ref_monitor.congested_samples r);
  expect "violations" (Monitor.violations m = Ref_monitor.violations r);
  expect "peak_rules" (Monitor.peak_rules m = Ref_monitor.peak_rules r);
  true

let differential =
  Test.make ~count:200 ~name:"monitor agrees with the hash-table reference"
    (int_bound 1_000_000)
    (fun seed ->
      agree ~what:(Printf.sprintf "seed %d" seed) (desc_of_seed seed))

(* A link first sampled after the first tick is inserted into the
   reference's table last, so it wins a tie against an older link in the
   same bucket. Random networks rarely tie two such links in one bucket;
   pin it with single-link flows of equal rate on colliding keys, the
   late link sorting both after and before the early one. *)
let test_late_link_tie () =
  let switches = List.init 10 Fun.id in
  let keys =
    List.concat_map
      (fun u ->
        List.filter_map
          (fun v -> if u <> v then Some (u, v) else None)
          switches)
      switches
  in
  let bucket k = Hashtbl.hash k land 31 in
  let collisions =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b -> if a < b && bucket a = bucket b then Some (a, b) else None)
          keys)
      keys
  in
  Alcotest.(check bool)
    "colliding keys exist" true
    (List.length collisions >= 4);
  List.iteri
    (fun i (a, b) ->
      if i < 4 then
        List.iter
          (fun ((u, v), (u', v')) ->
            let link u v = (u, v, 4., Sim_time.msec 5) in
            let d =
              {
                switches = 10;
                interval = Sim_time.sec 1;
                horizon = Sim_time.msec 4500;
                initial = [ link u v ];
                late = [ (Sim_time.msec 1500, link u' v') ];
                after = [];
                routes =
                  [
                    (u, v, Some v);
                    (v, v, None);
                    (u', v', Some v');
                    (v', v', None);
                  ];
                sources = [ (u, v, 4.); (u', v', 4.) ];
                stop = Sim_time.msec 4500;
              }
            in
            ignore (agree ~what:(Printf.sprintf "late (%d,%d)" u' v') d);
            let _, m =
              run d (fun net ->
                  let m = Monitor.create net in
                  (m, Monitor.stop_after m))
            in
            Alcotest.(check (option (pair (pair int int) (float 0.))))
              "the late link wins the tie"
              (Some ((u', v'), 4.))
              (Monitor.busiest_link m))
          [ (a, b); (b, a) ])
    collisions

let suite =
  ( "monitor",
    [
      QCheck_alcotest.to_alcotest differential;
      Alcotest.test_case "late link wins a tied bucket" `Quick
        test_late_link_tie;
    ] )
