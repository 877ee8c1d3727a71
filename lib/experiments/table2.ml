open Chronus_graph
open Chronus_flow
open Chronus_sim
open Chronus_exec

type result = {
  source_before : string;
  source_during : string;
  destination_before : string;
  destination_during : string;
}

(* The 12-switch emulation topology: R1 is the source, R12 the
   destination, and the update reverses the middle of the route. *)
let instance () =
  let p_init = List.init 12 (fun i -> i + 1) in
  let p_fin = [ 1; 2; 7; 6; 5; 4; 3; 8; 9; 10; 11; 12 ] in
  let g = Graph.create () in
  List.iter
    (fun p ->
      List.iter
        (fun (u, v) ->
          if not (Graph.mem_edge g u v) then
            Graph.add_edge ~capacity:5 ~delay:1 g u v)
        (Path.edges p))
    [ p_init; p_fin ];
  Instance.create ~graph:g ~demand:5 ~p_init ~p_fin

let dump table = Format.asprintf "%a" Flow_table.pp table

(* Render the two switches' tables concurrently: each dump reads only
   its own flow table, so the pair is safe to fan out. *)
let dump_pair ?jobs net src dst =
  match
    Chronus_parallel.Pool.parallel_map ?jobs
      (fun v -> dump (Network.table net v))
      [ src; dst ]
  with
  | [ s; d ] -> (s, d)
  | _ -> assert false

let run ?jobs () =
  let inst = instance () in
  let env = Exec_env.build ~tag_initial:(Some 1) inst in
  let src = Instance.source inst and dst = Instance.destination inst in
  let source_before, destination_before =
    dump_pair ?jobs env.Exec_env.net src dst
  in
  (* Mid two-phase transition: version-2 rules installed everywhere along
     the final path, ingress already stamping the new tag. *)
  List.iter
    (fun v ->
      match Instance.new_next inst v with
      | None -> ()
      | Some w ->
          ignore
            (Flow_table.install
               (Network.table env.Exec_env.net v)
               ~priority:20 ~dst
               ~tag_match:(Flow_table.Tag 2)
               { Flow_table.set_tag = None; forward = Flow_table.Out w }))
    (List.filter (fun v -> v <> dst) inst.Instance.p_fin);
  ignore
    (Flow_table.modify_actions
       (Network.table env.Exec_env.net src)
       ~dst ~tag_match:Flow_table.Any_tag
       {
         Flow_table.set_tag = Some 2;
         forward =
           (match Instance.new_next inst src with
           | Some w -> Flow_table.Out w
           | None -> assert false);
       });
  let source_during, destination_during =
    dump_pair ?jobs env.Exec_env.net src dst
  in
  { source_before; source_during; destination_before; destination_during }

let print r =
  print_endline "# Table II — flow tables at source R1 and destination R12";
  print_endline "## Source switch R1, steady state";
  print_endline r.source_before;
  print_endline "## Source switch R1, during the two-phase transition";
  print_endline r.source_during;
  print_endline "## Destination switch R12, steady state";
  print_endline r.destination_before;
  print_endline "## Destination switch R12, during the two-phase transition";
  print_endline r.destination_during
