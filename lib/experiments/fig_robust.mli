(** Robustness experiment: consistency-violation rate, completion time
    and fallback rate versus clock-error magnitude, for Chronus against
    the OR and TP baselines — the axis Time4 and "Timed Consistent
    Network Updates" evaluate and the paper assumes away.

    Each trial picks (from its own RNG coordinates) an instance whose
    greedy schedule is provably consistent, then runs all three
    executors under a fault configuration whose only non-zero knobs are
    the per-switch clock offset and per-flip jitter, both set to the
    row's error magnitude. At 0 ms Chronus must be violation-free; at
    one delay unit (50 ms) and beyond, skewed flips misorder the
    schedule and the violation or fallback rate becomes non-zero, while
    TP — which never relies on synchronised time — stays flat. Trials
    fan out over [Chronus_parallel.Pool]; every cell derives its
    generators from (seed, error index, trial index), so rows are
    bit-identical at any [CHRONUS_JOBS] value. *)

type row = {
  clock_error_ms : int;
  trials : int;
  chronus_violation_pct : float;
      (** trials with ≥1 loop/blackhole/overload, timed executor *)
  tp_violation_pct : float;
  or_violation_pct : float;
  chronus_fallback_pct : float;
      (** trials where the deadline passed and the two-phase fallback ran *)
  chronus_retries : int;  (** total command re-sends across trials *)
  chronus_span_s : float;  (** mean update span, seconds *)
  tp_span_s : float;
  or_span_s : float;
}

val run : ?jobs:int -> ?scale:Scale.t -> ?switches:int -> unit -> row list
(** One row per [scale.clock_errors_ms] (the delay unit is 50 ms). *)

val print : row list -> unit
