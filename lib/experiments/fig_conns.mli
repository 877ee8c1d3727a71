(** Heavy-traffic figure: a clean Chronus timed update under thousands
    of concurrent control-plane sessions.

    Each cell builds a k-ary fat-tree reroute instance (k=8 tiny, k=16
    otherwise) and spawns [conns] session fibers on the environment's
    deterministic runtime — every session loops ping (a no-op [Remove]
    dispatched through {!Chronus_exec.Exec_env.dispatch}, so it rides
    the same faulted control channel as the update's own commands),
    await the ack on its mailbox, think 100–300 virtual ms — while
    {!Chronus_exec.Timed_exec.launch} executes the timed update
    concurrently on the same engine. The quick and paper presets hold
    ten thousand and forty thousand live fibers respectively through
    the update's whole execution window.

    Per-session RNG lanes are keyed by [(k, conns, session)] and all
    timing is virtual, so every column except [wall_s] is bit-identical
    at any [CHRONUS_JOBS]. *)

type row = {
  conns : int;  (** concurrent session fibers *)
  switches : int;
  peak_fibers : int;
      (** runtime high-water of live fibers: sessions + per-switch
          channel fibers + the update's command fibers *)
  pings : int;  (** echo round-trips completed across all sessions *)
  rtt_p50_ms : float;  (** virtual-time switch RTT, median *)
  rtt_p99_ms : float;  (** virtual-time switch RTT, 99th percentile *)
  update_clean : bool;
      (** the greedy schedule was consistent, every command acked on the
          timed path, and the monitor saw no violations *)
  update_span_s : float;
  events : int;  (** engine events over the whole run *)
  wall_s : float;  (** wall-clock cell time (zeroed by {!stable}) *)
}

val run : ?jobs:int -> ?scale:Scale.t -> unit -> row list
(** One row per session count of [scale.conns] (tiny: 500 and 2,000;
    quick: 2,000 and 10,000; paper: 10,000 and 40,000). *)

val print : row list -> unit

val stable : row list -> row list
(** The rows with [wall_s] zeroed. *)

val json : row list -> (string * Chronus_obs.Json.t) list
(** [rows]: every column, keyed [conns-N]. *)
