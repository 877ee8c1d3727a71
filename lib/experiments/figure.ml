module Obs = Chronus_obs.Obs

type t =
  | Figure : {
      name : string;
      aliases : string list;
      trial : bool;
      run : jobs:int -> scale:Scale.t -> 'r;
      print : 'r -> unit;
      stable : 'r -> 'r;
      json : 'r -> (string * Chronus_obs.Json.t) list;
    }
      -> t

let v ?(aliases = []) ?(trial = false) ?(stable = Fun.id) ?(json = fun _ -> [])
    name run print =
  Figure { name; aliases; trial; run; print; stable; json }

let all =
  [
    v "table2-flow-tables" ~aliases:[ "table2" ]
      (fun ~jobs ~scale:_ -> Table2.run ~jobs ()) Table2.print;
    v "fig6-bandwidth-consumption" ~aliases:[ "fig6" ]
      (fun ~jobs:_ ~scale:_ -> Fig6.run ()) Fig6.print;
    v "fig7-congestion-cases" ~aliases:[ "fig7" ] ~trial:true
      (fun ~jobs ~scale -> Fig7.run ~jobs ~scale ()) Fig7.print;
    v "fig8-congested-links" ~aliases:[ "fig8" ] ~trial:true
      (fun ~jobs ~scale -> Fig8.run ~jobs ~scale ()) Fig8.print;
    v "fig9-forwarding-rules" ~aliases:[ "fig9" ] ~trial:true
      (fun ~jobs ~scale -> Fig9.run ~jobs ~scale ()) Fig9.print;
    v "fig10-running-time" ~aliases:[ "fig10" ] ~stable:Fig10.stable
      (fun ~jobs ~scale -> Fig10.run ~jobs ~scale ()) Fig10.print;
    v "fig11-update-time-cdf" ~aliases:[ "fig11" ] ~trial:true
      (fun ~jobs ~scale -> Fig11.run ~jobs ~scale ()) Fig11.print;
    v "fig-robust-clock-error" ~aliases:[ "robust" ] ~trial:true
      (fun ~jobs ~scale -> Fig_robust.run ~jobs ~scale ()) Fig_robust.print;
    v "ablation-scheduler-engines" ~aliases:[ "ablation" ] ~trial:true
      (fun ~jobs ~scale -> Ablation.run ~jobs ~scale ()) Ablation.print;
    v "fig-scale" ~aliases:[ "scale" ] ~stable:Fig_scale.stable ~json:Fig_scale.json
      (fun ~jobs ~scale -> Fig_scale.run ~jobs ~scale ()) Fig_scale.print;
    v "fig-service" ~aliases:[ "service" ] ~stable:Fig_service.stable ~json:Fig_service.json
      (fun ~jobs ~scale -> Fig_service.run ~jobs ~scale ()) Fig_service.print;
    v "fig-conns" ~aliases:[ "conns" ] ~stable:Fig_conns.stable ~json:Fig_conns.json
      (fun ~jobs ~scale -> Fig_conns.run ~jobs ~scale ()) Fig_conns.print;
  ]

let name (Figure f) = f.name
let names (Figure f) = f.name :: f.aliases

let find s =
  match List.find_opt (fun fig -> List.mem s (names fig)) all with
  | Some fig -> Ok fig
  | None ->
      Error
        (Printf.sprintf "unknown figure %S; valid figures:\n  %s" s
           (String.concat "\n  "
              (List.map (fun fig -> String.concat ", " (names fig)) all)))

type measured = {
  figure : t;
  wall_s : float;
  metrics : Obs.snapshot;
  digest : string;
  print : unit -> unit;
  json : (string * Chronus_obs.Json.t) list;
}

let measure (Figure f as figure) ~jobs ~scale =
  let before = Obs.snapshot () in
  let t0 = Obs.clock_ns () in
  let r = f.run ~jobs ~scale in
  let wall_s = float_of_int (Obs.clock_ns () - t0) /. 1e9 in
  {
    figure;
    wall_s;
    metrics = Obs.diff before (Obs.snapshot ());
    digest =
      Digest.to_hex
        (Digest.string (Marshal.to_string (f.stable r) [ Marshal.No_sharing ]));
    print = (fun () -> f.print r);
    json = f.json r;
  }
