open Chronus_graph

(* Node ids are ints; monomorphic hashing keeps the oracle's per-hop
   lookups off the polymorphic-hash path. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type memo = {
  old_next_tbl : Graph.node Itbl.t;
  new_next_tbl : Graph.node Itbl.t;
  old_prev_tbl : Graph.node Itbl.t;
  new_prev_tbl : Graph.node Itbl.t;
}

type t = {
  graph : Graph.t;
  demand : int;
  p_init : Path.t;
  p_fin : Path.t;
  memo : memo;
}

type update_kind = Modify | Add | Delete

type update = {
  switch : Graph.node;
  old_next : Graph.node option;
  new_next : Graph.node option;
  kind : update_kind;
}

exception Ill_formed of string

let ill_formed fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

let check_path g demand label p =
  if p = [] then ill_formed "%s is empty" label;
  if not (Path.is_simple p) then ill_formed "%s repeats a switch" label;
  List.iter
    (fun v ->
      if not (Graph.mem_node g v) then
        ill_formed "%s visits unknown switch v%d" label v)
    p;
  List.iter
    (fun (u, v) ->
      match Graph.find_edge g u v with
      | None -> ill_formed "%s uses missing link v%d -> v%d" label u v
      | Some e ->
          if e.capacity < demand then
            ill_formed
              "%s link v%d -> v%d has capacity %d < demand %d (steady state \
               already congested)"
              label u v e.capacity demand)
    (Path.edges p)

let hop_tables p =
  let next = Itbl.create (List.length p) in
  let prev = Itbl.create (List.length p) in
  List.iter
    (fun (u, v) ->
      Itbl.replace next u v;
      Itbl.replace prev v u)
    (Path.edges p);
  (next, prev)

let create ~graph ~demand ~p_init ~p_fin =
  if demand < 1 then ill_formed "demand must be positive, got %d" demand;
  check_path graph demand "initial path" p_init;
  check_path graph demand "final path" p_fin;
  if Path.source p_init <> Path.source p_fin then
    ill_formed "paths have different sources (v%d vs v%d)"
      (Path.source p_init) (Path.source p_fin);
  if Path.destination p_init <> Path.destination p_fin then
    ill_formed "paths have different destinations (v%d vs v%d)"
      (Path.destination p_init)
      (Path.destination p_fin);
  let old_next_tbl, old_prev_tbl = hop_tables p_init in
  let new_next_tbl, new_prev_tbl = hop_tables p_fin in
  {
    graph;
    demand;
    p_init;
    p_fin;
    memo = { old_next_tbl; new_next_tbl; old_prev_tbl; new_prev_tbl };
  }

let source i = Path.source i.p_init

let destination i = Path.destination i.p_init

let old_next i v = Itbl.find_opt i.memo.old_next_tbl v

let new_next i v = Itbl.find_opt i.memo.new_next_tbl v

let old_prev i v = Itbl.find_opt i.memo.old_prev_tbl v

let new_prev i v = Itbl.find_opt i.memo.new_prev_tbl v

let updates i =
  let module Ints = Set.Make (Int) in
  let all =
    Ints.union (Ints.of_list i.p_init) (Ints.of_list i.p_fin)
    |> Ints.remove (destination i)
  in
  Ints.fold
    (fun v acc ->
      let o = old_next i v and n = new_next i v in
      if o = n then acc
      else
        let kind =
          match (o, n) with
          | Some _, Some _ -> Modify
          | None, Some _ -> Add
          | Some _, None -> Delete
          | None, None -> assert false
        in
        { switch = v; old_next = o; new_next = n; kind } :: acc)
    all []
  |> List.rev

let switches_to_update i = List.map (fun u -> u.switch) (updates i)

let update_count i = List.length (updates i)

let is_trivial i = Path.equal i.p_init i.p_fin

let init_delay i = Path.delay i.graph i.p_init

let fin_delay i = Path.delay i.graph i.p_fin

let pp ppf i =
  Format.fprintf ppf
    "@[<v>instance: demand %d@,initial: %a@,final:   %a@,updates: %d@]"
    i.demand Path.pp i.p_init Path.pp i.p_fin (update_count i)

(* ------------------------------------------------------------------ *)
(* Multi-flow instances: N dynamic flows sharing one graph, interacting
   only through link capacities. Each flow projects to a single-flow [t]
   for the schedulers; the cross-flow interaction is carried by the
   [background] closure the oracle's capacity scan consults. *)

type flow = { fid : int; f_demand : int; f_init : Path.t; f_fin : Path.t }

type multi = { m_graph : Graph.t; m_flows : flow list }

(* Same packed directed-link keys as the oracle's capacity table. *)
let pack2 u v = (u lsl 21) lor v

let background loads =
  let tbl = Itbl.create 64 in
  List.iter
    (fun (demand, path) ->
      List.iter
        (fun (u, v) ->
          let key = pack2 u v in
          let prior = Option.value ~default:0 (Itbl.find_opt tbl key) in
          Itbl.replace tbl key (prior + demand))
        (Path.edges path))
    loads;
  fun u v -> Option.value ~default:0 (Itbl.find_opt tbl (pack2 u v))

let check_joint g label loads =
  let bg = background loads in
  List.iter
    (fun (u, v, e) ->
      let load = bg u v in
      if load > e.Graph.capacity then
        ill_formed
          "%s steady state overloads link v%d -> v%d (joint load %d > \
           capacity %d)"
          label u v load e.Graph.capacity)
    (Graph.edges g)

let create_multi ~graph flows =
  let seen = Itbl.create (List.length flows) in
  List.iter
    (fun f ->
      if f.fid < 0 then ill_formed "flow id must be non-negative, got %d" f.fid;
      if Itbl.mem seen f.fid then ill_formed "duplicate flow id %d" f.fid;
      Itbl.replace seen f.fid ();
      (* Per-flow validation is exactly the single-flow contract. *)
      ignore
        (create ~graph ~demand:f.f_demand ~p_init:f.f_init ~p_fin:f.f_fin))
    flows;
  check_joint graph "initial"
    (List.map (fun f -> (f.f_demand, f.f_init)) flows);
  check_joint graph "final" (List.map (fun f -> (f.f_demand, f.f_fin)) flows);
  {
    m_graph = graph;
    m_flows = List.sort (fun a b -> Int.compare a.fid b.fid) flows;
  }

let flows m = m.m_flows

let residual_graph g bg =
  let r = Graph.create ~size:(Graph.node_count g) () in
  List.iter (fun v -> Graph.add_node r v) (Graph.nodes g);
  List.iter
    (fun (u, v, e) ->
      let capacity = e.Graph.capacity - bg u v in
      if capacity > 0 then Graph.add_edge ~capacity ~delay:e.Graph.delay r u v)
    (Graph.edges g);
  r
