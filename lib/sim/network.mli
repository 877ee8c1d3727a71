(** The simulated data plane: switches with flow tables, links with
    propagation delay and capacity, constant-bit-rate traffic sources, and
    cumulative per-link byte counters (what Floodlight's statistics module
    reads in the paper's Fig. 6 measurement).

    Traffic is fluid: a source emits one *chunk* per emission interval,
    carrying [rate * interval] bytes. A chunk arriving at a switch is
    matched against the flow table at that instant, optionally re-stamped,
    accounted on the chosen link's byte counter, and delivered to the next
    switch one propagation delay later. A chunk that matches no rule is
    dropped (blackhole); a chunk exceeding the hop limit is dropped as a
    loop. *)

type t

type drop_reason = No_rule | Hop_limit

type stats = {
  delivered_bytes : int;
  dropped_no_rule : int;  (** bytes *)
  dropped_loop : int;  (** bytes *)
}

val create : Engine.t -> t
val engine : t -> Engine.t

val add_switch : t -> int -> unit
(** Idempotent. *)

val add_link : t -> capacity_mbps:float -> delay:Sim_time.t -> int -> int -> unit
(** Directed link. Endpoints are added as needed. Adding a link that
    exists resets it: new capacity and delay, byte counter back to 0. *)

val table : t -> int -> Flow_table.t
(** The flow table of a switch. @raise Not_found for unknown switches. *)

val switches : t -> int list

(** A directed link's live state, as {!link_array} hands it out. *)
module Link : sig
  type t

  val src : t -> int
  val dst : t -> int
  val capacity_mbps : t -> float

  val bytes : t -> int
  (** Cumulative bytes that have entered the link. *)
end

val link_array : t -> Link.t array
(** Every link, sorted by [(src, dst)]. The array is built on the first
    call after {!add_link} adds a new link and cached until the next
    such call, so repeated calls return the same (physically equal)
    array without sorting. Callers must not mutate it. *)

val links : t -> (int * int) list
(** Every link as [(src, dst)], sorted; read from the cached
    {!link_array}, so a call costs one list, not a sort. *)

val link_capacity_mbps : t -> int * int -> float
val link_delay : t -> int * int -> Sim_time.t

val link_bytes : t -> int * int -> int
(** Cumulative bytes that have *entered* the link. *)

val inject : t -> at:int -> dst:int -> ?tag:int -> bytes:int -> unit -> unit
(** Hand a chunk to a switch at the current simulation time. *)

val add_source :
  t ->
  attach:int ->
  dst:int ->
  rate_mbps:float ->
  ?chunk:Sim_time.t ->
  start:Sim_time.t ->
  stop:Sim_time.t ->
  unit ->
  unit
(** Emit chunks every [chunk] interval (default 10 ms) from [start]
    (inclusive) to [stop] (exclusive). *)

val stats : t -> stats
val total_rules : t -> int
(** Sum of flow-table sizes over all switches (Fig. 9's quantity). *)

val on_drop : t -> (drop_reason -> switch:int -> bytes:int -> unit) -> unit
(** Register a drop observer (appended; all observers fire). *)
