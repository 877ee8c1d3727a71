(** Algorithm 2: the greedy timed-update scheduler.

    Time advances step by step (jumping over provably uneventful waits);
    at every step the dependency relation set (Algorithm 3) nominates the
    chain heads, each head is vetted by a safety check (the timed loop
    check of Algorithm 4 plus the congestion test), and every safe head is
    committed at the current step — updating as many switches as possible
    per step so as to minimise the total update time [|T|].

    If at some step nothing can be committed, the scheduler waits: old
    traffic keeps draining and previously unsafe flips become safe. Once
    the network state can provably no longer change (every drain horizon
    has passed and all committed transients have settled) and switches
    remain, the instance is declared infeasible — this is the monotonicity
    argument behind Theorem 2: a flip that is unsafe in a static state
    stays unsafe forever. *)

open Chronus_graph
open Chronus_flow

type mode =
  | Exact  (** oracle-gated candidate checks; guaranteed-consistent output *)
  | Analytic
      (** the paper's polynomial checks via {!Safety.analytic}; scales to
          thousands of switches (Fig. 10). The finished schedule is
          validated once against the oracle; when the polynomial
          approximation missed an interaction, the scheduler
          transparently redoes the work in [Exact] mode — so [Scheduled]
          results are always oracle-consistent in both modes. Misses
          never occur on [Scenario.long_chain] instances but are the
          majority on [Scenario.random_final] ones whose final path
          revisits the chain out of order: 301 of the 427 plans
          validated over 500 instances with n 20-24 and capacities
          1/2/2; 255 of those left a loop or blackhole, 46 only an
          overload. *)

type outcome =
  | Scheduled of Schedule.t
  | Infeasible of { partial : Schedule.t; remaining : Graph.node list }

type stats = {
  steps_examined : int;  (** time steps actually visited *)
  candidates_checked : int;
  waits : int;  (** steps at which nothing could be committed *)
}

val schedule :
  ?mode:mode ->
  ?relax_congestion:bool ->
  ?oracle:Oracle.Checker.t ->
  Instance.t ->
  outcome
(** Compute a timed update schedule. [mode] defaults to [Exact]. In
    [Exact] mode a [Scheduled] result is always oracle-consistent.

    With [relax_congestion] (default false) capacity violations no longer
    gate a flip — only transient loops and blackholes do. This is the
    best-effort engine behind {!Fallback}: on an instance with no
    congestion-free schedule it still sequences every switch while
    guaranteeing (in [Exact] mode) that no traffic is ever misrouted.

    [oracle] (Exact mode) supplies an externally owned incremental
    {!Oracle.Checker} session to use instead of creating one per run —
    the update service pools such sessions across transactions. The
    session must already target [inst] (physically, see
    {!Oracle.Checker.instance}); it is normalised to the empty base with
    {!Oracle.Checker.retarget} if needed, and is left holding the run's
    final schedule as its base on a [Scheduled] outcome — so the caller's
    schedule gate is the session's free {!Oracle.Checker.base_report}.
    Scheduling decisions and outputs are bit-identical with and without
    it. @raise Invalid_argument if the session targets another
    instance. *)

val schedule_with_stats :
  ?mode:mode ->
  ?relax_congestion:bool ->
  ?oracle:Oracle.Checker.t ->
  Instance.t ->
  outcome * stats

val makespan : outcome -> int option
(** Number of time steps of a successful schedule. *)
