open Chronus_graph
open Chronus_flow

type t = {
  inst : Instance.t;
  order : Graph.node array;
  prefix : int array;
  index : (Graph.node, int) Hashtbl.t;
}

let make inst =
  let path = inst.Instance.p_init in
  let order = Array.of_list path in
  let n = Array.length order in
  let prefix = Array.make n 0 in
  for k = 1 to n - 1 do
    prefix.(k) <-
      prefix.(k - 1)
      + Graph.delay inst.Instance.graph order.(k - 1) order.(k)
  done;
  let index = Hashtbl.create n in
  Array.iteri (fun k v -> Hashtbl.replace index v k) order;
  { inst; order; prefix; index }

type view = { base : t; arrival : Horizon.t array; exit : Horizon.t array }

(* A diversion threshold is expressed on *injection* times: cohorts
   injected at [threshold] or later never reach past the diverting
   switch. *)
let view base sched =
  let n = Array.length base.order in
  let arrival = Array.make n Horizon.Forever in
  let exit = Array.make n Horizon.Forever in
  let divert_tau = ref Horizon.Forever in
  for k = 0 to n - 1 do
    (* Arrivals at v_k stop with the strictest threshold strictly
       upstream; they continue one step past it. *)
    arrival.(k) <-
      (match !divert_tau with
      | Horizon.Forever -> Horizon.Forever
      | Horizon.Never -> Horizon.Never
      | Horizon.Until tau -> Horizon.Until (tau - 1 + base.prefix.(k)));
    let own_threshold =
      match Schedule.find base.order.(k) sched with
      | None -> Horizon.Forever
      | Some s -> Horizon.Until (s - base.prefix.(k))
    in
    (* Entries on the old outgoing link of v_k additionally stop when v_k's
       own rule flips. *)
    let exit_threshold = Horizon.min !divert_tau own_threshold in
    exit.(k) <-
      (match exit_threshold with
      | Horizon.Forever -> Horizon.Forever
      | Horizon.Never -> Horizon.Never
      | Horizon.Until tau -> Horizon.Until (tau - 1 + base.prefix.(k)));
    divert_tau := exit_threshold
  done;
  (* The destination has no outgoing old link. *)
  if n > 0 then exit.(n - 1) <- Horizon.Never;
  { base; arrival; exit }

let last_arrival view v =
  match Hashtbl.find_opt view.base.index v with
  | None -> Horizon.Never
  | Some k -> view.arrival.(k)

let last_old_exit view v =
  match Hashtbl.find_opt view.base.index v with
  | None -> Horizon.Never
  | Some k -> view.exit.(k)

let expiries view =
  let collect acc = function Horizon.Until x -> x :: acc | _ -> acc in
  let acc = Array.fold_left collect [] view.arrival in
  let acc = Array.fold_left collect acc view.exit in
  List.sort_uniq compare acc

let all_drained_by view =
  let base = view.base in
  let g = base.inst.Instance.graph in
  let n = Array.length base.order in
  let acc = ref Horizon.Never in
  for k = 0 to n - 2 do
    let link_delay = Graph.delay g base.order.(k) base.order.(k + 1) in
    acc := Horizon.max !acc (Horizon.add view.exit.(k) link_delay)
  done;
  !acc
