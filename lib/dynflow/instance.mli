(** A network update instance: one dynamic flow of demand [d] must move
    from an initial routing path [p_init] to a final routing path [p_fin]
    with common source and destination (Section II-B of the paper). *)

open Chronus_graph

type memo
(** Precomputed next/previous-hop tables; an implementation detail that
    keeps the per-hop operations of the oracle O(1) on long paths. *)

type t = private {
  graph : Graph.t;
  demand : int;
  p_init : Path.t;  (** the solid line of Fig. 1 *)
  p_fin : Path.t;  (** the dashed line of Fig. 1 *)
  memo : memo;
}

(** How a switch's forwarding state changes during the update. *)
type update_kind =
  | Modify  (** on both paths with different next hops: action rewritten *)
  | Add  (** only on the final path: a rule is installed *)
  | Delete  (** only on the initial path: the rule is removed *)

type update = {
  switch : Graph.node;
  old_next : Graph.node option;
  new_next : Graph.node option;
  kind : update_kind;
}

exception Ill_formed of string

val create : graph:Graph.t -> demand:int -> p_init:Path.t -> p_fin:Path.t -> t
(** Validates the instance: both paths are simple and valid in [graph],
    share source and destination, [demand >= 1], and every link of either
    path has capacity at least [demand] (otherwise even the steady states
    are congested).
    @raise Ill_formed with an explanatory message otherwise. *)

val source : t -> Graph.node
val destination : t -> Graph.node

val old_next : t -> Graph.node -> Graph.node option
(** Next hop on [p_init]; [None] off the path or at the destination. *)

val new_next : t -> Graph.node -> Graph.node option
(** Next hop on [p_fin]; [None] off the path or at the destination. *)

val old_prev : t -> Graph.node -> Graph.node option
(** Predecessor on [p_init]. *)

val new_prev : t -> Graph.node -> Graph.node option

val updates : t -> update list
(** Switches whose forwarding state differs between the two paths, sorted
    by switch id. The destination never appears. *)

val switches_to_update : t -> Graph.node list
(** [List.map (fun u -> u.switch) (updates l)]. *)

val update_count : t -> int

val is_trivial : t -> bool
(** [true] when [p_init = p_fin] (nothing to update). *)

val init_delay : t -> int
(** [phi p_init]: total transmission delay of the initial path. *)

val fin_delay : t -> int

val pp : Format.formatter -> t -> unit

(** {1 Multi-flow instances}

    A production controller routes many flows over one network; the
    update service ({!Chronus_service.Service}) moves them one
    transaction at a time. A {!multi} captures that shared state: N
    flows, each with its own demand and (initial, final) path pair,
    interacting only through the capacity of shared links. Each flow is
    scheduled with the single-flow machinery; the cross-flow capacity
    interaction is expressed as a {!background} load function that
    {!Oracle.evaluate} charges on shared links. *)

type flow = {
  fid : int;  (** caller-chosen identifier, unique and non-negative *)
  f_demand : int;  (** the flow's rate, in the same units as capacities *)
  f_init : Path.t;  (** the flow's current routing path *)
  f_fin : Path.t;  (** where the update wants to move it *)
}
(** One dynamic flow of a multi-flow instance. A flow whose [f_init]
    equals [f_fin] is a steady flow that merely occupies capacity. *)

type multi = private {
  m_graph : Graph.t;  (** the shared network *)
  m_flows : flow list;  (** sorted by [fid] *)
}
(** N flows over one graph. Only {!create_multi} builds values of this
    type, so every [multi] in flight satisfies its validation. *)

val create_multi : graph:Graph.t -> flow list -> multi
(** Validates every flow exactly as {!create} does (simple valid paths,
    shared endpoints, positive demand, per-link capacity at least the
    flow's own demand), requires the [fid]s to be distinct, and checks
    both {e joint} steady states: summed over all flows, neither the
    initial nor the final configuration may load any link beyond its
    capacity. Flows are re-sorted by [fid].
    @raise Ill_formed with an explanatory message otherwise. *)

val flows : multi -> flow list
(** The flow set, sorted by [fid]. *)

val background : (int * Path.t) list -> Graph.node -> Graph.node -> int
(** [background loads] is the steady load function of a set of routed
    flows, given as [(demand, path)] pairs: [background loads u v] sums
    the demands of every path that uses the directed link [u -> v].
    This is the closure to pass as [?background] to {!Oracle.evaluate}
    when validating one flow's schedule against the others' routes, and
    the load that {!residual_graph} subtracts. Cost: one table build at
    closure creation, O(1) per query. *)

val residual_graph : Graph.t -> (Graph.node -> Graph.node -> int) -> Graph.t
(** [residual_graph g bg] is a fresh graph with every link's capacity
    reduced by [bg]: the network as seen by one flow when everyone
    else's routes are pinned. Links with no residual capacity are
    dropped entirely (a capacity-0 edge is not representable, and no
    schedule may use such a link anyway); delays and the node set are
    preserved. Scheduling a flow on its residual graph and validating
    with [?background] on the full graph agree — the differential
    property [test/suite_service.ml] asserts. *)
