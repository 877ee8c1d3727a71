(** Executing a Chronus timed update on the simulator — Algorithm 5,
    hardened against the fault model of [Chronus_faults].

    The schedule computed by the greedy algorithm (with the best-effort
    fallback for infeasible instances) is translated into timed flow-mods:
    one command per switch carrying the execution timestamp
    [t0 + step * delay_unit], dispatched ahead of time through
    {!Exec_env.dispatch} (the fault injection point). Every command
    carries ack semantics: a command whose acknowledgement has not
    returned within [ack_timeout] (plus linear backoff per attempt) is
    re-sent, up to [max_retries] times. If any command is still un-acked
    at [deadline_slack] past the schedule's nominal completion, the timed
    plan is aborted and an emergency two-phase update (version tag 9, so
    it composes with the untagged timed rules) installs the final path —
    the [path] field of {!t} reports which path completed the run. *)

open Chronus_sim
open Chronus_flow

(** Which mechanism completed the update. *)
type path =
  | Timed  (** every command acked; the schedule ran as planned *)
  | Two_phase_fallback
      (** the deadline passed with un-acked commands; the emergency
          two-phase path took over *)

val pp_path : Format.formatter -> path -> unit

(** Retry/fallback policy knobs. Without [?retry], {!launch} and {!run}
    use a 200 ms ack timeout, 100 ms backoff, 3 retries and 1 s
    slack. *)
type retry = {
  ack_timeout : Sim_time.t;
      (** how long after the scheduled execution time to wait for the
          ack before re-sending *)
  backoff : Sim_time.t;  (** added per attempt (linear backoff) *)
  max_retries : int;  (** re-sends per command *)
  deadline_slack : Sim_time.t;
      (** grace past the schedule's nominal completion before the timed
          plan is declared failed and the fallback runs *)
}

type t = {
  result : Exec_env.result;
  schedule : Schedule.t;
  clean : bool;  (** the greedy found a provably consistent schedule *)
  path : path;
  retries : int;  (** commands re-sent after a missing ack *)
  unacked : int;  (** switches never acked (0 on the timed path) *)
}

(** Mutable scoreboard of a launched timed update — read it after (or
    while) driving the engine. *)
type progress = {
  mutable finished : Sim_time.t option;
      (** completion time: last ack on the timed path, or the final
          barrier of the fallback *)
  mutable pending : int;  (** switches not yet acked *)
  mutable retries : int;
  mutable fallen_back : bool;
  deadline : Sim_time.t;
      (** when the timed plan is abandoned for the fallback *)
}

val launch : ?retry:retry -> Exec_env.env -> Schedule.t -> progress
(** Spawn the update's fibers (one per timed command, plus the deadline
    watcher) on [env]'s engine without driving it: the caller runs the
    engine, typically alongside other fibers — [Fig_conns] executes a
    timed update under ten thousand live switch sessions this way.
    {!run} is [build] + [launch] + [Engine.run] + [finish]. *)

val run :
  ?config:Exec_env.config ->
  ?seed:int ->
  ?mode:Chronus_core.Greedy.mode ->
  ?faults:Chronus_faults.Faults.config ->
  ?retry:retry ->
  Instance.t ->
  t
