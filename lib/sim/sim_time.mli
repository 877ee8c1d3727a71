(** Simulated wall-clock time in integer microseconds — the resolution of
    Time4-style scheduled updates ("on the order of one microsecond"). *)

type t = int

val msec : int -> t
(** [msec n] is [n] milliseconds. *)

val sec : int -> t
(** [sec n] is [n] seconds. *)

val of_sec_float : float -> t
(** Fractional seconds, truncated to whole microseconds. *)

val to_sec : t -> float
(** Microseconds to fractional seconds. *)

val to_msec : t -> float
(** Microseconds to fractional milliseconds. *)

val pp : Format.formatter -> t -> unit
(** Prints seconds with millisecond precision. *)
