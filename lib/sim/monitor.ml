module Obs = Chronus_obs.Obs

type sample = { at : Sim_time.t; mbps : float }

type violations = {
  transient_loops : int;
  blackholes : int;
  overload_samples : int;
}

(* Per-link state lives in arrays indexed by position in [links], the
   network's sorted link array as of the last tick, so a tick is one
   sweep with no hashing. Links are only ever added: a tick that finds
   a new array re-indexes the old state into it ([resync]).

   A link's series is every tick's sample since its first tick. Only the
   samples whose counter moved are stored per link ([moved]); every
   other one is that tick's shared [idle] sample, so an idle link costs
   a tick no allocation and no write. *)
type t = {
  net : Network.t;
  interval : Sim_time.t;
  mutable links : Network.Link.t array;
  mutable previous : int array;  (** byte counter at the last tick *)
  mutable peaks : float array;  (** running peak, 0 until positive *)
  mutable moved : sample list array;  (** newest first *)
  mutable first_tick : int array;  (** index of the link's first tick *)
  mutable idle : sample list;  (** one per tick, newest first *)
  mutable ticks : int;
  mutable peak_rules : int;
  mutable stop_at : Sim_time.t option;
  mutable transient_loops : int;
  mutable blackholes : int;
  mutable overload_samples : int;
}

let c_loops = Obs.Counter.v "monitor.transient_loops"
let c_blackholes = Obs.Counter.v "monitor.blackhole_drops"
let c_overloads = Obs.Counter.v "monitor.overload_samples"
let s_sample = Obs.Span.v "monitor.sample"

let compare_key link (u, v) =
  let c = Int.compare (Network.Link.src link) u in
  if c <> 0 then c else Int.compare (Network.Link.dst link) v

let same_key a b =
  Network.Link.src a = Network.Link.src b
  && Network.Link.dst a = Network.Link.dst b

let resync t links =
  let n = Array.length links in
  let old = t.links in
  let previous = Array.make n 0
  and peaks = Array.make n 0.
  and moved = Array.make n []
  and first_tick = Array.make n t.ticks in
  (* [old] is a sorted subsequence of [links]; the rest are new and are
     first sampled by the tick under way. *)
  let j = ref 0 in
  Array.iteri
    (fun i link ->
      if !j < Array.length old && same_key old.(!j) link then begin
        previous.(i) <- t.previous.(!j);
        peaks.(i) <- t.peaks.(!j);
        moved.(i) <- t.moved.(!j);
        first_tick.(i) <- t.first_tick.(!j);
        incr j
      end)
    links;
  t.links <- links;
  t.previous <- previous;
  t.peaks <- peaks;
  t.moved <- moved;
  t.first_tick <- first_tick

let take_sample t =
  let links = Network.link_array t.net in
  if links != t.links then resync t links;
  let at = Engine.now (Network.engine t.net) in
  let seconds = Sim_time.to_sec t.interval in
  let idle = { at; mbps = 0. /. seconds /. 1e6 } in
  t.idle <- idle :: t.idle;
  t.ticks <- t.ticks + 1;
  for i = 0 to Array.length links - 1 do
    let link = links.(i) in
    let current = Network.Link.bytes link in
    let delta = current - t.previous.(i) in
    let s =
      if delta = 0 then idle
      else begin
        t.previous.(i) <- current;
        let s = { at; mbps = float_of_int (delta * 8) /. seconds /. 1e6 } in
        t.moved.(i) <- s :: t.moved.(i);
        s
      end
    in
    if s.mbps > t.peaks.(i) then t.peaks.(i) <- s.mbps;
    if s.mbps > Network.Link.capacity_mbps link then begin
      t.overload_samples <- t.overload_samples + 1;
      Obs.Counter.incr c_overloads
    end
  done;
  t.peak_rules <- max t.peak_rules (Network.total_rules t.net)

let create ?(interval = Sim_time.sec 1) net =
  let t =
    {
      net;
      interval;
      links = [||];
      previous = [||];
      peaks = [||];
      moved = [||];
      first_tick = [||];
      idle = [];
      ticks = 0;
      peak_rules = Network.total_rules net;
      stop_at = None;
      transient_loops = 0;
      blackholes = 0;
      overload_samples = 0;
    }
  in
  Network.on_drop net (fun reason ~switch:_ ~bytes:_ ->
      match reason with
      | Network.Hop_limit ->
          t.transient_loops <- t.transient_loops + 1;
          Obs.Counter.incr c_loops
      | Network.No_rule ->
          t.blackholes <- t.blackholes + 1;
          Obs.Counter.incr c_blackholes);
  let engine = Network.engine net in
  let rec tick at =
    let beyond =
      match t.stop_at with Some stop -> at > stop | None -> false
    in
    if not beyond then
      Engine.at engine at (fun () ->
          Obs.Span.with_h s_sample (fun () -> take_sample t);
          tick (at + interval))
  in
  tick (Engine.now engine + interval);
  t

let stop_after t time = t.stop_at <- Some time

(* Position of [key] in [t.links], by binary search. *)
let position t key =
  let rec search lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = compare_key t.links.(mid) key in
      if c = 0 then Some mid
      else if c < 0 then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length t.links)

let key link = (Network.Link.src link, Network.Link.dst link)

(* The chronological series of the link at position [i]: walk the ticks
   from the newest back to its first, taking the link's own sample where
   its counter moved and the tick's idle sample elsewhere. *)
let series_at t i =
  let rec build ticks idle moved acc =
    match idle with
    | s0 :: older when ticks > 0 -> (
        match moved with
        | s :: moved' when s.at = s0.at ->
            build (ticks - 1) older moved' (s :: acc)
        | _ -> build (ticks - 1) older moved (s0 :: acc))
    | _ -> acc
  in
  build (t.ticks - t.first_tick.(i)) t.idle t.moved.(i) []

let series t link =
  match position t link with Some i -> series_at t i | None -> []

let all_series t =
  (* [t.links] is a sorted subsequence of the network's links: walk both
     from the end. *)
  let j = ref (Array.length t.links - 1) in
  Array.fold_right
    (fun link acc ->
      let k = key link in
      if !j >= 0 && compare_key t.links.(!j) k = 0 then begin
        let s = series_at t !j in
        decr j;
        (k, s) :: acc
      end
      else (k, []) :: acc)
    (Network.link_array t.net) []

let peak t link =
  match position t link with Some i -> t.peaks.(i) | None -> 0.

(* Bucket count of a [Hashtbl.create 32] holding [n] keys: it doubles
   whenever the size passes twice the bucket count. *)
let buckets n =
  let rec grow b = if n > 2 * b then grow (2 * b) else b in
  grow 32

(* Ties go where the original table-backed monitor sent them: to the
   first link in the iteration order of the [Hashtbl.create 32] it kept
   histories in, filled at each tick, in sorted order, with the links
   first sampled then. The stdlib table iterates buckets in index order
   and each bucket newest first (insertion prepends; resizing keeps the
   order), so the first of the tied links is the one with the lowest
   bucket and, within it, the latest first sample: the latest first
   tick, then the highest position. Only tied links are hashed. *)
let busiest_link t =
  let n = Array.length t.links in
  if n = 0 then None
  else begin
    let top = Array.fold_left Float.max 0. t.peaks in
    let mask = buckets n - 1 in
    let best = ref (-1) and best_bucket = ref 0 in
    for i = 0 to n - 1 do
      if t.peaks.(i) = top then begin
        let b = Hashtbl.hash (key t.links.(i)) land mask in
        (* [i] comes after [!best]: on an equal first tick it wins. *)
        if
          !best < 0 || b < !best_bucket
          || (b = !best_bucket && t.first_tick.(i) >= t.first_tick.(!best))
        then begin
          best := i;
          best_bucket := b
        end
      end
    done;
    Some (key t.links.(!best), top)
  end

let congested_samples t =
  let acc = ref [] in
  for i = Array.length t.links - 1 downto 0 do
    let link = t.links.(i) in
    let capacity = Network.Link.capacity_mbps link in
    acc :=
      List.filter_map
        (fun s -> if s.mbps > capacity then Some (key link, s) else None)
        (series_at t i)
      @ !acc
  done;
  !acc

let violations t =
  {
    transient_loops = t.transient_loops;
    blackholes = t.blackholes;
    overload_samples = t.overload_samples;
  }

let no_violations (v : violations) =
  v.transient_loops = 0 && v.blackholes = 0 && v.overload_samples = 0

let peak_rules t = t.peak_rules
