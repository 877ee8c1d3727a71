(** Fig. 9: number of forwarding rules needed during the transition —
    Chronus as a box plot (it only rewrites actions in place), TP as the
    mean of its doubled, versioned footprint. *)

open Chronus_stats

type row = {
  switches : int;
  chronus : Boxplot.t;
  chronus_mean : float;
  tp_mean : float;
  saving_pct : float;  (** mean rules Chronus saves over TP *)
}

val run : ?jobs:int -> ?scale:Scale.t -> unit -> row list
(** [jobs] is the domain count for the trial fan-out (default
    {!Chronus_parallel.Pool.default_jobs}); any value yields the same
    rows. *)

val print : row list -> unit
