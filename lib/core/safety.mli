(** Per-candidate safety checks used by the greedy scheduler (Algorithm 2
    lines 9–14): may switch [v] flip at step [t] given the schedule
    committed so far?

    Two engines with the same verdict type:

    - {!analytic} is the paper's polynomial-time check, refined: the first
      redirected cohort is traced through the tentative rules (a timed
      Algorithm 4, including the backward-walk condition that the onward
      route must not revisit the candidate's old-path prefix), and at
      every switch it crosses the scheduler counts how many live streams
      would share the outgoing link — the pure old stream (drain
      horizons) plus the redirected streams of earlier flips
      ({!stream_walk}s, recomputed by the greedy each step) — and requires
      the link to carry them all (the generalisation of Algorithm 3's
      [2d] test). A walk that itself passes through the candidate before
      the probed switch is being rerouted by the very flip under test and
      is not counted. Cost O(path length x live walks).
    - {!exact} validates the whole tentative partial schedule with the
      dynamic-flow oracle. Exhaustive, cost proportional to the simulated
      window; the decider for the instance sizes of Figs. 6–9 and 11. *)

open Chronus_graph
open Chronus_flow

type verdict =
  | Safe
  | Would_loop of Graph.node
  | Would_congest of Graph.node * Graph.node * int
      (** link and entry step that would exceed capacity *)
  | Would_blackhole of Graph.node
  | Not_drained
      (** the switch's rule may only be deleted (or its stream merged) once
          traffic through it has drained; wait *)

val is_safe : verdict -> bool

type stream_walk
(** The route of the traffic redirected by one already-committed flip,
    traced under the rules currently in force. *)

val make_walk :
  feed:Horizon.t -> base:int -> (Graph.node * int) list -> stream_walk
(** [feed]: until when cohorts keep entering the stream at its origin;
    [base]: the step the visit times were traced at; visits list the
    route, origin first, with absolute steps. *)

val walk_feed : stream_walk -> Horizon.t
val walk_base : stream_walk -> int
val walk_visits : stream_walk -> (Graph.node * int) list
val with_feed : Horizon.t -> stream_walk -> stream_walk
val walk_crosses : stream_walk -> Graph.node -> bool
(** Does the walk visit this switch (other than as its origin)? *)

type stream_view
(** A set of stream walks indexed by the switches they cross, so that the
    per-candidate checks touch only the walks that matter. *)

val view_of_walks : stream_walk list -> stream_view

val analytic :
  ?streams:stream_view ->
  Instance.t ->
  Drain.t ->
  Schedule.t ->
  time:int ->
  Graph.node ->
  verdict
(** [streams] defaults to the empty view: no stream walks at all. *)

val exact : Instance.t -> Schedule.t -> time:int -> Graph.node -> verdict

val pp_verdict : Format.formatter -> verdict -> unit
