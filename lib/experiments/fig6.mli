(** Fig. 6: link bandwidth consumption over time during one update on the
    emulated network (the Mininet experiment) — Chronus vs TP vs OR on the
    same 10-switch instance, 5 Mbit/s links carrying a 5 Mbit/s aggregate
    flow, link delays up to ~1 s, byte counters sampled every second.
    Each scheme's series is its most-loaded link; OR's consumption spikes
    above the link capacity while Chronus and TP stay in range. *)

type row = {
  second : int;
  chronus_mbps : float;
  tp_mbps : float;
  or_mbps : float;
}

type result = {
  rows : row list;
  chronus_peak : float;
  tp_peak : float;
  or_peak : float;
  chronus_loss : int;  (** bytes *)
  tp_loss : int;
  or_loss : int;
  capacity_mbps : float;
}

val run : ?seed:int -> ?switches:int -> unit -> result
val print : result -> unit
