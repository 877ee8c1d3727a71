(* The benchmark's own span recorder. Each span wraps one call from the
   benchmark into a layer's public function, so the program under test
   is measured from outside and stays unmodified. Spans are kept in
   memory while the traced run goes and written out when it ends;
   with recording off, [with_] is a plain call. *)

module Obs = Chronus_obs.Obs

type t = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 for a root *)
  req : int;  (** request id the span belongs to, -1 during set-up *)
  start_ns : int;
  mutable end_ns : int;
}

let on = ref false
let next_id = ref 0
let open_spans : t list ref = ref []
let closed : t list ref = ref []
let request = ref (-1)

let set_request r = request := r

let with_ name f =
  if not !on then f ()
  else begin
    let parent = match !open_spans with [] -> -1 | s :: _ -> s.id in
    let s =
      { id = !next_id; name; parent; req = !request; start_ns = Obs.clock_ns (); end_ns = 0 }
    in
    incr next_id;
    open_spans := s :: !open_spans;
    Fun.protect f ~finally:(fun () ->
        s.end_ns <- Obs.clock_ns ();
        open_spans := List.tl !open_spans;
        closed := s :: !closed)
  end

let recorded () = List.rev !closed
let dur_ns s = s.end_ns - s.start_ns

(* Self time: the span's duration minus the part its children cover.
   Children of one span never overlap — the benchmark is one client on
   one domain — so the covered part is the sum of their durations. *)
let self_ns spans =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (dur_ns s + Option.value ~default:0 (Hashtbl.find_opt covered s.parent)))
    spans;
  fun s -> dur_ns s - Option.value ~default:0 (Hashtbl.find_opt covered s.id)

let write_jsonl path spans =
  let t0 = List.fold_left (fun t s -> min t s.start_ns) max_int spans in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        s.id s.name s.parent s.req (s.start_ns - t0) (s.end_ns - t0))
    spans;
  close_out oc
