module Obs = Chronus_obs.Obs

(* High-water mark of a network's total installed rules; fed by the
   per-table size observers so it costs O(1) per flow-mod. *)
let g_rules_high_water = Obs.Gauge.v "sim.rules_high_water"

type drop_reason = No_rule | Hop_limit

type stats = {
  delivered_bytes : int;
  dropped_no_rule : int;
  dropped_loop : int;
}

(* A link is reached from its source switch's out-list and points at its
   destination switch, so forwarding a chunk hashes nothing. *)
type link = {
  src : int;
  dst : int;
  mutable capacity_mbps : float;
  mutable delay : Sim_time.t;
  mutable bytes_in : int;
  into : switch;
}

and switch = { id : int; table : Flow_table.t; mutable out : link list }

module Link = struct
  type t = link

  let src l = l.src
  let dst l = l.dst
  let capacity_mbps l = l.capacity_mbps
  let bytes l = l.bytes_in
end

type t = {
  engine : Engine.t;
  switches : (int, switch) Hashtbl.t;
  (* Every link sorted by (src, dst); [None] after [add_link] adds a
     link, rebuilt from the out-lists on the next read. *)
  mutable sorted : link array option;
  mutable rules_total : int;
  mutable delivered_bytes : int;
  mutable dropped_no_rule : int;
  mutable dropped_loop : int;
  mutable drop_observers : (drop_reason -> switch:int -> bytes:int -> unit) list;
}

let hop_limit = 64

let create engine =
  {
    engine;
    switches = Hashtbl.create 64;
    sorted = None;
    rules_total = 0;
    delivered_bytes = 0;
    dropped_no_rule = 0;
    dropped_loop = 0;
    drop_observers = [];
  }

let engine t = t.engine

let add_switch t v =
  if not (Hashtbl.mem t.switches v) then begin
    let table = Flow_table.create () in
    Flow_table.on_size_change table (fun delta ->
        t.rules_total <- t.rules_total + delta;
        Obs.Gauge.observe g_rules_high_water t.rules_total);
    Hashtbl.replace t.switches v { id = v; table; out = [] }
  end

let rec out_to w = function
  | [] -> raise Not_found
  | l :: rest -> if l.dst = w then l else out_to w rest

let add_link t ~capacity_mbps ~delay u v =
  add_switch t u;
  add_switch t v;
  let from = Hashtbl.find t.switches u in
  match out_to v from.out with
  | l ->
      l.capacity_mbps <- capacity_mbps;
      l.delay <- delay;
      l.bytes_in <- 0
  | exception Not_found ->
      let l =
        {
          src = u;
          dst = v;
          capacity_mbps;
          delay;
          bytes_in = 0;
          into = Hashtbl.find t.switches v;
        }
      in
      from.out <- l :: from.out;
      t.sorted <- None

let table t v = (Hashtbl.find t.switches v).table

let switches t =
  Hashtbl.fold (fun v _ acc -> v :: acc) t.switches [] |> List.sort compare

let compare_links a b =
  if a.src <> b.src then Int.compare a.src b.src else Int.compare a.dst b.dst

let link_array t =
  match t.sorted with
  | Some a -> a
  | None ->
      let a =
        Hashtbl.fold (fun _ sw acc -> List.rev_append sw.out acc) t.switches []
        |> Array.of_list
      in
      Array.sort compare_links a;
      t.sorted <- Some a;
      a

let links t =
  Array.fold_right (fun l acc -> (l.src, l.dst) :: acc) (link_array t) []

let link_state t (u, v) = out_to v (Hashtbl.find t.switches u).out

let link_capacity_mbps t key = (link_state t key).capacity_mbps
let link_delay t key = (link_state t key).delay
let link_bytes t key = (link_state t key).bytes_in

let drop t reason ~switch ~bytes =
  (match reason with
  | No_rule -> t.dropped_no_rule <- t.dropped_no_rule + bytes
  | Hop_limit -> t.dropped_loop <- t.dropped_loop + bytes);
  List.iter (fun f -> f reason ~switch ~bytes) t.drop_observers

(* Process a chunk arriving at switch [sw] now. *)
let rec arrive t sw ~dst ~tag ~bytes ~hops =
  if hops > hop_limit then drop t Hop_limit ~switch:sw.id ~bytes
  else
    match Flow_table.lookup sw.table ~dst ~tag with
    | None -> drop t No_rule ~switch:sw.id ~bytes
    | Some rule -> (
        let tag =
          match rule.Flow_table.action.Flow_table.set_tag with
          | None -> tag
          | Some stamp -> Some stamp
        in
        match rule.Flow_table.action.Flow_table.forward with
        | Flow_table.Drop -> drop t No_rule ~switch:sw.id ~bytes
        | Flow_table.To_host -> t.delivered_bytes <- t.delivered_bytes + bytes
        | Flow_table.Out w -> (
            match out_to w sw.out with
            | exception Not_found -> drop t No_rule ~switch:sw.id ~bytes
            | link ->
                link.bytes_in <- link.bytes_in + bytes;
                Engine.after t.engine link.delay (fun () ->
                    arrive t link.into ~dst ~tag ~bytes ~hops:(hops + 1))))

let inject t ~at ~dst ?tag ~bytes () =
  arrive t (Hashtbl.find t.switches at) ~dst ~tag ~bytes ~hops:0

let add_source t ~attach ~dst ~rate_mbps ?(chunk = Sim_time.msec 10) ~start
    ~stop () =
  let bytes_per_chunk =
    int_of_float (rate_mbps *. 1e6 /. 8. *. Sim_time.to_sec chunk)
  in
  let rec emit at =
    if at < stop then
      Engine.at t.engine at (fun () ->
          inject t ~at:attach ~dst ~bytes:bytes_per_chunk ();
          emit (at + chunk))
  in
  emit start

let stats t =
  {
    delivered_bytes = t.delivered_bytes;
    dropped_no_rule = t.dropped_no_rule;
    dropped_loop = t.dropped_loop;
  }

(* O(1): maintained incrementally by the per-table size observers, so
   callers polling it after every command (Controller.apply, Monitor)
   no longer rescan every switch. *)
let total_rules t = t.rules_total

let on_drop t f = t.drop_observers <- t.drop_observers @ [ f ]
