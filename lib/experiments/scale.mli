(** Experiment scale presets. The paper averages over at least 30 runs of
    500 update instances on an i5-2400; [quick] keeps `dune runtest` and
    the benchmark executable fast, [paper] approaches the published scale
    (minutes of compute), and every field can be overridden — the CLI's
    axis flags are record updates of the last four. *)

(** A fig-scale topology cell: a k-ary fat-tree, the B4-like WAN, or an
    N-site random WAN. *)
type topo = Fat_tree of int | B4 | Wan of int

type t = {
  instances : int;  (** update instances per data point (Figs. 7–9, 11) *)
  switch_counts : int list;  (** the x-axis of Figs. 7–9 *)
  big_switch_counts : int list;  (** the x-axis of Fig. 10 *)
  opt_budget : int;  (** search-node budget per OPT call *)
  opt_timeout : float;  (** seconds per OPT call *)
  or_budget : int;  (** search-node budget per exact OR call *)
  baseline_cap : float;  (** Fig. 10 cut-off in seconds (paper: 60) *)
  seed : int;
  clock_errors_ms : int list;  (** the x-axis of the robustness figure *)
  topos : topo list;  (** the cells of fig-scale ([--topos]) *)
  rates : int list;  (** fig-service's offered rates per round ([--rates]) *)
  conns : int list;  (** fig-conns' concurrent session counts ([--conns]) *)
}

val quick : t
val paper : t

val tiny : t
(** Seconds-scale preset for CI smoke runs and the test suite. *)

val presets : (string * t) list
(** [tiny], [quick] and [paper], by name. *)

val parse : string -> t
(** A preset by name.
    @raise Invalid_argument otherwise. *)

val topo_of_string : string -> (topo, string) result
(** [fatK] ([K] even, at least 4), [b4] or [wanN] ([N] at least 4);
    [Error] names the accepted forms. *)

val topo_to_string : topo -> string
(** The inverse of {!topo_of_string}. *)
