(** A minimal JSON writer (the repository has no JSON dependency and
    must not grow one). It serves both [BENCH_results.json] (pretty,
    two-space indented) and the one-record-per-line JSONL trace sink of
    {!Obs}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** NaN and infinities are written as [null] *)
  | String of string
  | Obj of (string * t) list

val to_string : t -> string
(** Pretty-printed with two-space indentation and a trailing newline. *)

val add_line : Buffer.t -> t -> unit
(** Append [t] on one line, members separated by [", "] (no trailing
    newline) — the trace sink's record format. *)
