(** Fig. 8: number of congested links (counted in the time-extended
    network, summed over all instances of a data point), Chronus vs OR. *)

type row = {
  switches : int;
  instances : int;
  chronus_congested : int;
  or_congested : int;
  reduction_pct : float;  (** how many congested links Chronus avoids *)
}

val run : ?jobs:int -> ?scale:Scale.t -> unit -> row list
(** [jobs] is the domain count for the trial fan-out (default
    {!Chronus_parallel.Pool.default_jobs}); any value yields the same
    rows. *)

val print : row list -> unit
