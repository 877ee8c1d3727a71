(** OPT: the exact MUTP solver — branch and bound over timed schedules in
    the time-extended network, standing in for the integer program (3).

    Iterative deepening on the makespan [|T|]: for each candidate bound,
    a depth-first search walks the time steps in order, at each step
    choosing a subset of not-yet-updated switches to flip. Pruning uses
    the prefix property of the dynamic-flow model: a violation at step
    [s] is caused entirely by flips at steps [<= s], so a partial schedule
    exhibiting one below the search frontier can never be repaired and
    the branch dies. The first bound with a solution is optimal.

    Exponential in the worst case (MUTP is NP-complete); [budget] and
    [timeout] make runs at Fig. 10 sizes terminate with an honest
    [`Unknown]. *)

open Chronus_flow

type outcome =
  | Optimal of Schedule.t
  | Feasible of Schedule.t
      (** best schedule found before the budget ran out *)
  | Infeasible  (** no consistent schedule within the horizon *)
  | Unknown  (** budget ran out without finding any schedule *)

type result = {
  outcome : outcome;
  makespan : int option;
  nodes_explored : int;
  elapsed : float;  (** seconds of processor time *)
}

val solve :
  ?budget:int ->
  ?timeout:float ->
  ?horizon:int ->
  ?hint:Schedule.t ->
  Instance.t ->
  result
(** [budget] caps explored search nodes (default 500_000); [timeout] caps
    processor seconds (default 60.0, the cut-off used in Fig. 10);
    [horizon] bounds the makespan (default: the hint's makespan, else the
    greedy's when it succeeds, else the sequential-with-drain bound).
    [hint] is a known-consistent schedule (typically the greedy's): it
    supplies the upper bound and is the [Feasible] fallback when the
    budget runs out.

    The search runs on the calling domain and is deterministic: the same
    instance and arguments explore the same nodes in the same order, so
    [nodes_explored] is reproducible whenever the [timeout] does not
    trip. Callers that want parallelism run several solves at once, as
    the trial fan-out of the experiments does. *)

val makespan_of : result -> int option
