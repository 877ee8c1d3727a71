(** Hierarchical destination addressing for the generated topologies.

    Hosts get fixed-width bitstring addresses laid out so that
    aggregation is a prefix: every host address sets the top bit (the
    marker, which keeps host addresses disjoint from raw switch ids),
    then packs the holder switch's position, then the host index. On a
    fat-tree the holder field is [pod ++ edge], so "everything in pod p"
    and "everything under edge switch e" are both single prefixes — the
    shapes [Chronus_sim.Table_compiler] compresses to. *)

type t

val width : int
(** Address width in bits; equal to [Chronus_sim.Flow_table.addr_bits]
    (asserted by the test suite — the libraries cannot depend on each
    other). *)

val fat_tree : ?hosts_per_holder:int -> int -> t
(** Addressing for [Topology.fat_tree k]: holders are the edge
    switches, addresses pack [marker | pod | edge | host].
    [hosts_per_holder] defaults to 4. *)

val flat : ?hosts_per_holder:int -> holders:int list -> unit -> t
(** Addressing for flat topologies (B4, random WANs): holders are the
    given switch ids, addresses pack [marker | holder-id | host]. *)

val holders : t -> int list
(** The switches that host endpoints, in address order. *)

val hosts_per_holder : t -> int

val addr_of : t -> holder:int -> host:int -> int
(** The address of [host] (in [0 .. hosts_per_holder - 1]) attached to
    holder switch [holder]. *)

val holder_prefix : t -> int -> int * int
(** [(prefix, len)] covering exactly the host addresses of a holder. *)

val all_addrs : t -> int list
(** Every host address, grouped by holder in {!holders} order. *)
