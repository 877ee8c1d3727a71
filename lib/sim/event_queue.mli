(** Timestamped event queue: a bucketed calendar queue (Brown 1988) over
    the integer microsecond clock. A ring of day-width buckets gives
    O(1) amortized push and pop; the ring resizes itself (counted by the
    [sim.queue_resizes] counter) to track event density.

    Events pop in time order, and events at the same instant pop in
    insertion order, so simulations are deterministic. *)

type t
(** A mutable event queue; grows on demand. *)

val create : unit -> t
(** An empty queue. *)

val is_empty : t -> bool
(** [true] iff no event is pending. *)

val size : t -> int
(** Number of pending events. *)

val push : t -> time:Sim_time.t -> (unit -> unit) -> unit
(** Enqueue a thunk to fire at the given time. *)

val pop : t -> (Sim_time.t * (unit -> unit)) option
(** Earliest event, [None] when empty. *)

val peek_time : t -> Sim_time.t option
(** Timestamp of the earliest event without removing it. *)

val next_time : t -> Sim_time.t
(** Like {!peek_time} but allocation-free: raises [Not_found] when
    empty. Pair with {!is_empty} in hot loops. *)

val run_next : t -> bool
(** Dequeue and run the earliest event; [false] when the queue was
    empty. Avoids the [Some (time, thunk)] allocation of {!pop}. *)
