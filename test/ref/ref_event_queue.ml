(* Reference model for the differential test in suite_event_queue.ml and
   the [event-queue/heap-push-pop] micro-benchmark: the binary min-heap
   that the calendar queue of [Chronus_sim.Event_queue] replaced,
   unchanged except that it feeds no metrics. Ties break by insertion
   order via an explicit sequence number. *)

open Chronus_sim

type entry = { time : Sim_time.t; seq : int; thunk : unit -> unit }

type t = {
  mutable data : entry array;
  mutable size : int;
  mutable next_seq : int;
}

let dummy = { time = 0; seq = 0; thunk = ignore }

let create () = { data = Array.make 256 dummy; size = 0; next_seq = 0 }

let is_empty h = h.size = 0

let size h = h.size

let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap h i j =
  let tmp = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- tmp

let push h ~time thunk =
  if h.size = Array.length h.data then begin
    let data = Array.make (2 * h.size) dummy in
    Array.blit h.data 0 data 0 h.size;
    h.data <- data
  end;
  h.data.(h.size) <- { time; seq = h.next_seq; thunk };
  h.next_seq <- h.next_seq + 1;
  h.size <- h.size + 1;
  let i = ref (h.size - 1) in
  while !i > 0 && earlier h.data.(!i) h.data.((!i - 1) / 2) do
    swap h !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let take h =
  let top = h.data.(0) in
  h.size <- h.size - 1;
  h.data.(0) <- h.data.(h.size);
  h.data.(h.size) <- dummy;
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let best = ref !i in
    if l < h.size && earlier h.data.(l) h.data.(!best) then best := l;
    if r < h.size && earlier h.data.(r) h.data.(!best) then best := r;
    if !best = !i then continue := false
    else begin
      swap h !i !best;
      i := !best
    end
  done;
  top

let pop h =
  if h.size = 0 then None
  else
    let top = take h in
    Some (top.time, top.thunk)

let peek_time h = if h.size = 0 then None else Some h.data.(0).time

let next_time h = if h.size = 0 then raise Not_found else h.data.(0).time

let run_next h =
  if h.size = 0 then false
  else begin
    let top = take h in
    top.thunk ();
    true
  end
