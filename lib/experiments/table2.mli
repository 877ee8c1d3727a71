(** Table II: the flow tables at the source switch R1 and the destination
    switch R12 of the emulation topology, shown in the steady state and in
    the middle of a two-phase transition (when the versioned rule copies
    coexist). *)

type result = {
  source_before : string;
  source_during : string;
  destination_before : string;
  destination_during : string;
}

val run : ?jobs:int -> unit -> result
val print : result -> unit
