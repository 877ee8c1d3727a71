(** The registry of every table and figure this repository regenerates:
    the paper's Table II and Figs. 6–11 plus our own robustness,
    ablation, scale, service and connections figures. The bench
    executable, [chronus experiment], the test suite and CI all iterate
    over {!all}, so adding a figure means writing its module and adding
    one line here. *)

type t =
  | Figure : {
      name : string;  (** canonical: the key of its bench report entry *)
      aliases : string list;  (** short names, accepted wherever [name] is *)
      trial : bool;  (** trial-parallel: counted in the bench's [trial_wall_s] *)
      run : jobs:int -> scale:Scale.t -> 'r;
      print : 'r -> unit;
      stable : 'r -> 'r;
          (** wall-measured columns zeroed: identical at any job count,
              and what the determinism digest covers *)
      json : 'r -> (string * Chronus_obs.Json.t) list;
          (** the figure's own keys in the bench report (often none) *)
    }
      -> t

val all : t list
(** In print order: the paper's figures, then ours. *)

val name : t -> string

val names : t -> string list
(** The canonical name, then the aliases. *)

val find : string -> (t, string) result
(** Resolve a canonical name or an alias; [Error] lists every valid
    name. *)

(** One measured run of a figure. *)
type measured = {
  figure : t;
  wall_s : float;
  metrics : Chronus_obs.Obs.snapshot;  (** the {!Chronus_obs.Obs.diff} of the run *)
  digest : string;  (** hex digest of the [stable] result *)
  print : unit -> unit;  (** the figure's table for this result *)
  json : (string * Chronus_obs.Json.t) list;
}

val measure : t -> jobs:int -> scale:Scale.t -> measured
