(** Fig. 11: CDF of the update time (the makespan [|T|], in time units)
    at 40 switches, Chronus vs OPT. *)

open Chronus_stats

type result = {
  switches : int;
  instances : int;
  chronus : Cdf.t;
  opt : Cdf.t;
  chronus_median : float;
  opt_median : float;
}

val run : ?jobs:int -> ?scale:Scale.t -> ?switches:int -> unit -> result
(** [jobs] is the domain count for the trial fan-out (default
    {!Chronus_parallel.Pool.default_jobs}); any value yields the same
    result. *)

val print : result -> unit
