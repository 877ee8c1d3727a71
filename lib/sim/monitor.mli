(** Bandwidth measurement, Floodlight-style: the controller periodically
    reads every link's cumulative byte counter; the difference between two
    reads divided by the interval is the bandwidth consumption plotted in
    Fig. 6. Also keeps a running count of rule-table occupancy so that
    Fig. 9 can report the peak footprint over a run.

    Per-link state is kept in arrays indexed by position in
    {!Network.link_array}, so a tick is one sweep over the links with no
    hashing or sorting (a [monitor.sample] span). A link whose counter
    did not move gets the tick's shared idle sample and costs the tick
    no allocation. Links added after sampling started are picked up at
    the next tick. *)

type t

type sample = {
  at : Sim_time.t;  (** end of the interval *)
  mbps : float;
}

(** Consistency violations observed online during a run: forwarding
    loops (chunks dropped at the hop limit), blackholes (chunks matching
    no rule), and link-overload sampling intervals. The first two arrive
    through a {!Network.on_drop} observer the moment they happen; the
    third is counted at each sampling tick. Chronus's correctness claim
    is exactly that a consistent update keeps all three at zero. *)
type violations = {
  transient_loops : int;  (** hop-limit drops (loop evidence) *)
  blackholes : int;  (** no-rule drops *)
  overload_samples : int;  (** samples where a link exceeded capacity *)
}

val create : ?interval:Sim_time.t -> Network.t -> t
(** Start sampling every [interval] (default 1 s) from the current time;
    runs for as long as the engine does. Also registers a drop observer
    on the network, so violation counting starts immediately. *)

val violations : t -> violations

val no_violations : violations -> bool

val stop_after : t -> Sim_time.t -> unit
(** Do not schedule samples beyond this absolute time (the engine would
    otherwise never drain). *)

val series : t -> int * int -> sample list
(** Chronological bandwidth series of a link. Empty when never sampled.
    A binary search, then one walk over the ticks since the link's
    first; the list is built fresh on each call. *)

val all_series : t -> ((int * int) * sample list) list
(** [series] of every link of the network, in {!Network.links} order:
    one sweep, O(links + samples). *)

val peak : t -> int * int -> float
(** Highest observed consumption on a link, in Mbit/s; 0 when unknown. *)

val busiest_link : t -> ((int * int) * float) option
(** Link with the highest peak consumption; [None] before the first
    tick. Ties are common (every link of a path carries the same rate)
    and are broken as the original hash-table-backed monitor broke them,
    which the golden digests pin: the winner is the first tied link in
    the iteration order of a stdlib [Hashtbl.create 32] into which each
    tick inserted the links it sampled for the first time, in sorted
    order. That is the tied link with the lowest bucket index
    [Hashtbl.hash (u, v) land (buckets - 1)] and, within a bucket, the
    one first sampled last. One sweep; only tied links are hashed. *)

val congested_samples : t -> ((int * int) * sample) list
(** Samples whose consumption exceeded the link capacity, sorted by link
    then time. Their number equals [(violations t).overload_samples]
    unless a link's capacity changed after it was sampled. *)

val peak_rules : t -> int
(** Largest total rule count observed at any sampling instant. *)
