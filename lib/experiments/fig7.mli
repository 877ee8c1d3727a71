(** Fig. 7: percentage of congestion cases vs number of switches, for
    Chronus, OPT and OR. A case is congested when the executed schedule
    overloads at least one time-extended link (or, for OR, also when it
    loops or blackholes in-flight traffic — OR ignores transmission
    delays entirely). *)

type row = {
  switches : int;
  instances : int;
  chronus_congestion_pct : float;
  opt_congestion_pct : float;
  or_congestion_pct : float;
}

val run : ?jobs:int -> ?scale:Scale.t -> unit -> row list
(** [jobs] is the domain count for the trial fan-out (default
    {!Chronus_parallel.Pool.default_jobs}); any value yields the same
    rows. *)

val print : row list -> unit
