(** Ablation study of the scheduler's design choices (not a paper figure).

    Three dimensions, each over the same instance population:

    - engine: the oracle-gated exact greedy vs the polynomial analytic
      greedy — success rate, makespan and candidate checks;
    - dependency guidance: chain heads first vs a plain sweep of every
      remaining switch (Algorithm 3's contribution to check counts);
    - waiting: event-jumping drain-aware waits vs the naive one-at-a-time
      stepping the makespan objective implies (quantified by the waits
      counter). *)

type row = {
  instances : int;
  switches : int;
  (* engines *)
  exact_success : int;
  analytic_success : int;
  agree : int;  (** same feasibility verdict *)
  exact_mean_makespan : float;
  analytic_mean_makespan : float;
  exact_mean_checks : float;
  analytic_mean_checks : float;
  mean_waits : float;
}

val run : ?jobs:int -> ?scale:Scale.t -> unit -> row list
(** [jobs] is the domain count for the trial fan-out (default
    {!Chronus_parallel.Pool.default_jobs}); any value yields the same
    rows. *)

val print : row list -> unit
