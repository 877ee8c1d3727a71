(** Drain bookkeeping: when does old flow stop crossing each switch?

    One cohort is injected at the source per time step and follows the
    initial path until the first switch whose rule has already flipped.
    Scheduling switch [v_j] (at old-path prefix delay [P_j]) at time [s]
    therefore stops pure-old-path *arrivals* at every strictly downstream
    switch [v_k] for cohorts injected at [s - P_j] or later, i.e. arrivals
    at [v_k] from step [s - P_j + P_k] on. These closed-form horizons are
    what Algorithm 3's dependency test and the greedy scheduler's safety
    check consult, keeping each candidate test linear in the path length
    instead of requiring a full oracle simulation. *)

open Chronus_graph
open Chronus_flow

type t
(** Immutable per-instance precomputation (old-path order and prefix
    delays). *)

val make : Instance.t -> t

type view
(** Drain horizons under one concrete (partial) schedule. *)

val view : t -> Schedule.t -> view
(** O(|p_init|). Queries on the view are O(1). *)

val last_arrival : view -> Graph.node -> Horizon.t
(** Until when do pure-old-path cohorts keep *arriving* at the switch?
    [Never] for switches off the initial path. The source receives
    injections forever. *)

val last_old_exit : view -> Graph.node -> Horizon.t
(** Until when do cohorts keep *entering* the link from this switch to its
    old next hop? Stops both when upstream diverts and when the switch's
    own rule flips. [Never] off the initial path and at the destination. *)

val all_drained_by : view -> Horizon.t
(** A step from which no old-path link carries flow anymore: the latest
    [last_old_exit] plus the final link delay. [Forever] while some
    old-path switch has no scheduled diverter upstream. *)

val expiries : view -> int list
(** The sorted finite horizon values of the view (arrival and exit
    horizons over all old-path switches). The scheduler's state can only
    change when one of these passes, so waiting can jump between them. *)
