open Chronus_graph
module Obs = Chronus_obs.Obs

(* Observability (see OBSERVABILITY.md): the cache counters let the bench
   report prove the incremental engine is actually short-circuiting work.
   They only observe — no oracle decision ever reads them. *)
let c_hits = Obs.Counter.v "oracle.cache_hits"
let c_retraced = Obs.Counter.v "oracle.cohorts_retraced"
let c_full = Obs.Counter.v "oracle.full_evals"
let c_retargets = Obs.Counter.v "oracle.retargets"
let c_reuses = Obs.Counter.v "oracle.probe_reuses"

(* All oracle keys are small ints (switch ids, time steps); monomorphic
   hashing avoids the polymorphic-hash walk on every hot-path lookup. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type outcome = Delivered | Looped of Graph.node | Dropped of Graph.node

type cohort = {
  injected : int;
  visits : (Graph.node * int) list;
  outcome : outcome;
}

type violation =
  | Congestion of {
      u : Graph.node;
      v : Graph.node;
      time : int;
      load : int;
      capacity : int;
    }
  | Loop of { switch : Graph.node; injected : int; time : int }
  | Blackhole of { switch : Graph.node; injected : int; time : int }

type report = {
  ok : bool;
  violations : violation list;
  congested : (Graph.node * Graph.node * int) list;
  peak_load : int;
  window : int * int;
}

(* Monomorphic stand-ins for polymorphic [compare] on the report types;
   both orders match the generic structural order (constructors in
   declaration order, fields in declaration order) so reports sorted here
   are indistinguishable from ones sorted with [compare]. *)
let compare_key3 (u1, v1, t1) (u2, v2, t2) =
  match Int.compare u1 u2 with
  | 0 -> ( match Int.compare v1 v2 with 0 -> Int.compare t1 t2 | c -> c)
  | c -> c

let compare_violation a b =
  match (a, b) with
  | ( Congestion { u = u1; v = v1; time = t1; load = l1; capacity = c1 },
      Congestion { u = u2; v = v2; time = t2; load = l2; capacity = c2 } ) -> (
      match compare_key3 (u1, v1, t1) (u2, v2, t2) with
      | 0 -> (
          match Int.compare l1 l2 with 0 -> Int.compare c1 c2 | c -> c)
      | c -> c)
  | Congestion _, _ -> -1
  | _, Congestion _ -> 1
  | ( Loop { switch = s1; injected = i1; time = t1 },
      Loop { switch = s2; injected = i2; time = t2 } )
  | ( Blackhole { switch = s1; injected = i1; time = t1 },
      Blackhole { switch = s2; injected = i2; time = t2 } ) ->
      compare_key3 (s1, i1, t1) (s2, i2, t2)
  | Loop _, Blackhole _ -> -1
  | Blackhole _, Loop _ -> 1

let rule_at inst sched v t =
  match Schedule.find v sched with
  | Some update_time when t >= update_time -> Instance.new_next inst v
  | Some _ | None -> Instance.old_next inst v

(* Time-extended link keys packed into one immediate int: 21 bits each for
   the endpoints and the (biased, so mildly negative steps fit) entry
   step. One packed key replaces the [(int * int * int)] tuple the load
   table used to allocate and polymorphically hash per entry. *)
let t_bias = 1 lsl 20

let field_mask = (1 lsl 21) - 1

let pack u v t =
  let tb = t + t_bias in
  assert (u land lnot field_mask = 0 && v land lnot field_mask = 0);
  assert (tb land lnot field_mask = 0);
  (u lsl 42) lor (v lsl 21) lor tb

let unpack key =
  ( (key lsr 42) land field_mask,
    (key lsr 21) land field_mask,
    (key land field_mask) - t_bias )

(* Follow one cohort. [record] is called with [(u, v, entry_time)] for every
   link the cohort enters, including the entry on which a loop is detected
   (the flow is physically on that link when it closes the loop). *)
let trace_from_with inst sched ~record start injected =
  let dst = Instance.destination inst in
  let visited = Itbl.create 16 in
  let rec step v t visits =
    Itbl.replace visited v ();
    if v = dst then { injected; visits = List.rev visits; outcome = Delivered }
    else
      match rule_at inst sched v t with
      | None -> { injected; visits = List.rev visits; outcome = Dropped v }
      | Some w ->
          record v w t;
          let t' = t + Graph.delay inst.Instance.graph v w in
          if Itbl.mem visited w then
            {
              injected;
              visits = List.rev ((w, t') :: visits);
              outcome = Looped w;
            }
          else step w t' ((w, t') :: visits)
  in
  step start injected [ (start, injected) ]

let trace_with inst sched ~record injected =
  trace_from_with inst sched ~record (Instance.source inst) injected

let trace inst sched injected =
  trace_with inst sched ~record:(fun _ _ _ -> ()) injected

let trace_from inst sched start time =
  trace_from_with inst sched ~record:(fun _ _ _ -> ()) start time

let rec last_visit = function
  | [] -> assert false
  | [ (w, t) ] -> (w, t)
  | _ :: rest -> last_visit rest

(* The violation time of a loop is the revisit time (the last entry of the
   visit list is the repeated switch); a blackhole happens where and when
   the cohort last arrived. *)
let cohort_violation c =
  match c.outcome with
  | Delivered -> None
  | Looped _ ->
      let w, t = last_visit c.visits in
      Some (Loop { switch = w; injected = c.injected; time = t })
  | Dropped v ->
      let _, t = last_visit c.visits in
      Some (Blackhole { switch = v; injected = c.injected; time = t })

(* The switches at which a cohort *consulted* a forwarding rule: every
   visit except the last for delivered and looped cohorts (the
   destination's rule is never read; the loop-closing re-entry is recorded
   but not consulted), every visit for dropped ones (the last consult is
   the one that found no rule). A cached trace stays valid under any
   schedule change that cannot alter one of these consults. *)
let consults c =
  match c.outcome with
  | Dropped _ -> c.visits
  | Delivered | Looped _ ->
      let rec drop_last = function
        | [] | [ _ ] -> []
        | x :: rest -> x :: drop_last rest
      in
      drop_last c.visits

(* A reusable open-addressed int -> int table over packed link keys: the
   per-step load map [assemble] builds. Linear probing over power-of-two
   arrays kept at most half full; [vals] doubles as the occupancy mark
   (loads are >= 0, so -1 is "empty") and [used] lists the occupied slots
   in insertion order, so a reset costs the entries the last use wrote,
   not the table's size, and iteration never scans empty slots.

   The arrays are bigarrays, stored outside the OCaml heap: a window on
   an 800-switch chain needs tens of thousands of slots, and as int
   arrays those large blocks raised the peak major heap of a planning
   run by 2-5%. *)
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ints_make n v : ints =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill a v;
  a

type loads = {
  mutable keys : ints;
  mutable vals : ints;  (** load per slot; -1 = empty *)
  mutable used : ints;  (** occupied slots, first [count] valid *)
  mutable count : int;
  mutable shift : int;  (** [63 - log2 (dim vals)] *)
}

(* 64 slots to start; [loads_add] doubles the table on demand. *)
let loads_create () =
  let bits = 6 in
  let cap = 1 lsl bits in
  {
    keys = ints_make cap 0;
    vals = ints_make cap (-1);
    used = ints_make (cap / 2) 0;
    count = 0;
    shift = 63 - bits;
  }

let loads_reset l =
  for i = 0 to l.count - 1 do
    l.vals.{l.used.{i}} <- -1
  done;
  l.count <- 0

(* Fibonacci hashing: the top bits of the product mix every field of the
   packed key into the slot index. *)
let loads_slot l key = (key * 0x1E3779B97F4A7C15) lsr l.shift

let rec loads_find keys vals mask key i =
  if vals.{i} < 0 || keys.{i} = key then i
  else loads_find keys vals mask key ((i + 1) land mask)

let rec loads_grow l =
  let keys = l.keys and vals = l.vals and used = l.used and n = l.count in
  let bits = 64 - l.shift in
  let cap = 1 lsl bits in
  l.keys <- ints_make cap 0;
  l.vals <- ints_make cap (-1);
  l.used <- ints_make (cap / 2) 0;
  l.count <- 0;
  l.shift <- 63 - bits;
  for j = 0 to n - 1 do
    let i = used.{j} in
    loads_add l keys.{i} vals.{i}
  done

(* Add [d] to the load entering at packed key [key], inserting it at [d]
   if absent ([d = 0] materialises a key without adding load). *)
and loads_add l key d =
  if 2 * l.count >= Bigarray.Array1.dim l.vals then loads_grow l;
  let mask = Bigarray.Array1.dim l.vals - 1 in
  let i = loads_find l.keys l.vals mask key (loads_slot l key) in
  if l.vals.{i} < 0 then begin
    l.keys.{i} <- key;
    l.vals.{i} <- d;
    l.used.{l.count} <- i;
    l.count <- l.count + 1
  end
  else l.vals.{i} <- l.vals.{i} + d

(* Per-instance lookup context for the simulation hot paths, held as
   direct-address arrays over the (small, dense) switch ids: the old and
   new forwarding rules with the delay and capacity of the edge each rule
   follows, the old-path prefix delays, and per-call scratch (a flip-time
   array mirroring the schedule under evaluation, a generation-stamped
   visited set and the load table [assemble] fills). A trace hop thus
   costs a few array reads instead of a map lookup plus two hash lookups,
   and a capacity check one array read. The context is single-domain
   state: [set_flips]/[clear_flips] bracket every batch of traces. *)
type ctx = {
  nn : int;  (** node id bound: every switch id is < [nn] *)
  mutable src : int;
  mutable dst : int;
  a_old : int array;  (** old rule next hop; -1 = none *)
  a_new : int array;  (** new rule next hop; -1 = none *)
  a_old_dl : int array;  (** delay of v -> a_old.(v) *)
  a_new_dl : int array;  (** delay of v -> a_new.(v) *)
  a_old_cap : int array;  (** capacity of v -> a_old.(v) *)
  a_new_cap : int array;  (** capacity of v -> a_new.(v) *)
  a_prefix : int array;  (** old-path prefix delay; [min_int] = off-path *)
  mutable bg : Graph.node -> Graph.node -> int;
      (** steady cross-flow load per link, added in the capacity scan *)
  flip : int array;  (** scratch: flip time of the schedule being traced *)
  stamp : int array;  (** scratch: visited marks, valid when = [gen] *)
  mutable gen : int;
  loads : loads;  (** scratch: [assemble]'s load table, reset per call *)
}

let no_background _ _ = 0

(* Fill the rule, edge and prefix entries for [inst]'s path switches (the
   only switches with a rule) into arrays holding their empty defaults. *)
let load_instance ctx inst =
  let g = inst.Instance.graph in
  let set_rule next dl cap v = function
    | Some w ->
        let e = Option.get (Graph.find_edge g v w) in
        next.(v) <- w;
        dl.(v) <- e.Graph.delay;
        cap.(v) <- e.Graph.capacity
    | None -> ()
  in
  List.iter
    (fun v ->
      set_rule ctx.a_old ctx.a_old_dl ctx.a_old_cap v (Instance.old_next inst v);
      set_rule ctx.a_new ctx.a_new_dl ctx.a_new_cap v (Instance.new_next inst v))
    (inst.Instance.p_init @ inst.Instance.p_fin);
  let rec walk acc = function
    | [] | [ _ ] -> ()
    | u :: (v :: _ as rest) ->
        if ctx.a_prefix.(u) = min_int then ctx.a_prefix.(u) <- acc;
        let acc = acc + Graph.delay g u v in
        if ctx.a_prefix.(v) = min_int then ctx.a_prefix.(v) <- acc;
        walk acc rest
  in
  (match inst.Instance.p_init with
  | [ only ] -> ctx.a_prefix.(only) <- 0
  | p -> walk 0 p);
  ctx.src <- Instance.source inst;
  ctx.dst <- Instance.destination inst

(* A throwaway [evaluate] context's load table pays only for the entries
   its window needs; a checker's keeps the size its largest window
   reached. *)
let make_ctx ?(background = no_background) inst =
  let nn = 1 + List.fold_left max 0 (Graph.nodes inst.Instance.graph) in
  let ctx =
    {
      nn;
      src = 0;
      dst = 0;
      a_old = Array.make nn (-1);
      a_new = Array.make nn (-1);
      a_old_dl = Array.make nn 0;
      a_new_dl = Array.make nn 0;
      a_old_cap = Array.make nn 0;
      a_new_cap = Array.make nn 0;
      a_prefix = Array.make nn min_int;
      bg = background;
      flip = Array.make nn max_int;
      stamp = Array.make nn 0;
      gen = 0;
      loads = loads_create ();
    }
  in
  load_instance ctx inst;
  ctx

(* Re-point a context at another instance over the *same* graph: the
   direct-address arrays are sized by the graph's node bound, so they
   survive; only the rule, edge and prefix entries — populated on path
   switches alone — need a reset and a refill. O(nn + path length) instead
   of [make_ctx]'s walk over the graph, which is what makes pooling checker
   sessions across transactions worthwhile. *)
let retarget_ctx ctx ?background inst =
  Array.fill ctx.a_old 0 ctx.nn (-1);
  Array.fill ctx.a_new 0 ctx.nn (-1);
  Array.fill ctx.a_old_dl 0 ctx.nn 0;
  Array.fill ctx.a_new_dl 0 ctx.nn 0;
  Array.fill ctx.a_old_cap 0 ctx.nn 0;
  Array.fill ctx.a_new_cap 0 ctx.nn 0;
  Array.fill ctx.a_prefix 0 ctx.nn min_int;
  load_instance ctx inst;
  match background with Some bg -> ctx.bg <- bg | None -> ()

(* Load the schedule's flip times into the context's scratch array (and
   restore the "never flips" sentinel afterwards). Every call to
   [trace_ctx]/[trace_sim]/[trace_window]/[compute_params] must run
   between a matching set/clear pair for the schedule being evaluated. *)
let set_flips ctx sched =
  Schedule.fold (fun v t () -> ctx.flip.(v) <- t) sched ()

let clear_flips ctx sched =
  Schedule.fold (fun v _ () -> ctx.flip.(v) <- max_int) sched ()

(* The internal tracer: [trace_from_with] specialised to the context
   arrays. Behaviourally identical (same visits, outcome, record calls);
   the rule consulted at step [t] is the new one iff [t >= flip.(v)],
   exactly [rule_at]. *)
let trace_ctx ctx ~record tau =
  ctx.gen <- ctx.gen + 1;
  let gen = ctx.gen in
  let dst = ctx.dst and flip = ctx.flip and stamp = ctx.stamp in
  let rec step v t visits =
    stamp.(v) <- gen;
    if v = dst then
      { injected = tau; visits = List.rev visits; outcome = Delivered }
    else begin
      let flipped = t >= flip.(v) in
      let w = if flipped then ctx.a_new.(v) else ctx.a_old.(v) in
      if w < 0 then
        { injected = tau; visits = List.rev visits; outcome = Dropped v }
      else begin
        record v w t;
        let t' =
          t + if flipped then ctx.a_new_dl.(v) else ctx.a_old_dl.(v)
        in
        if stamp.(w) = gen then
          {
            injected = tau;
            visits = List.rev ((w, t') :: visits);
            outcome = Looped w;
          }
        else step w t' ((w, t') :: visits)
      end
    end
  in
  step ctx.src tau [ (ctx.src, tau) ]

(* Everything about a schedule's transition that is *not* a per-cohort
   trace: the simulated injection window, the closed-form pure/stable
   stream descriptions, and the representative's steady-state verdict.
   Cheap to recompute per probe (one route walk plus two schedule folds);
   the per-cohort traces, which dominate, are what the checker caches. *)
type params = {
  tau_min : int;
  tau_start : int;  (** first simulated cohort; pure stream before this *)
  stable_from : int;  (** first closed-form stable cohort *)
  s_off : int array;
      (** steady-route arrival offset per switch; [min_int] = off-route *)
  s_nxt : int array;  (** steady-route next hop per switch; -1 = none *)
  rep_viol : violation option;
      (** the far-future representative's loop/blackhole, if any *)
}

let compute_params inst ctx sched =
  let tmax = max 0 (Schedule.max_time sched) in
  let tau_min = -Instance.init_delay inst in
  (* A cohort injected at tau is pure iff tau + P_x < s_x for every
     scheduled old-path switch x. *)
  let tau_pure_max =
    Schedule.fold
      (fun x s_x acc ->
        let p = ctx.a_prefix.(x) in
        if p = min_int then acc else min acc (s_x - p - 1))
      sched max_int
  in
  let tau_start =
    if tau_pure_max = max_int then tmax + 1 else max tau_min (tau_pure_max + 1)
  in
  (* A cohort that meets every scheduled switch at or after its flip is
     *stable*: it follows the post-transition route, a time-shifted copy
     of every other stable cohort. One far-future representative provides
     the route — and detects a defective steady configuration — and the
     rest are accounted in closed form. *)
  let rep_tau = tmax + 1 + Instance.init_delay inst + Instance.fin_delay inst in
  let rep = trace_ctx ctx ~record:(fun _ _ _ -> ()) rep_tau in
  let s_off = Array.make ctx.nn min_int in
  let s_nxt = Array.make ctx.nn (-1) in
  let rec note_offsets = function
    | [] | [ _ ] -> ()
    | (u, t_u) :: (((v, _) :: _) as rest) ->
        if s_off.(u) = min_int then begin
          s_off.(u) <- t_u - rep_tau;
          s_nxt.(u) <- v
        end;
        note_offsets rest
  in
  note_offsets rep.visits;
  let tau_settled =
    Schedule.fold
      (fun x s_x acc ->
        let off = s_off.(x) in
        if off = min_int then acc else max acc (s_x - off))
      sched min_int
  in
  let stable_from = max tau_settled tau_start in
  { tau_min; tau_start; stable_from; s_off; s_nxt; rep_viol = cohort_violation rep }

(* One simulated transitional cohort, with its recorded link entries kept
   as packed keys so a cached trace can be replayed into a load table
   without re-walking the network. *)
type sim = {
  s_tau : int;
  s_cohort : cohort;
  s_viol : violation option;
  s_entries : int array;
}

let trace_sim ctx tau =
  let entries = ref [] in
  let count = ref 0 in
  let record u v t =
    entries := pack u v t :: !entries;
    incr count
  in
  let c = trace_ctx ctx ~record tau in
  let arr = Array.make !count 0 in
  let rec fill i = function
    | [] -> ()
    | k :: rest ->
        arr.(i) <- k;
        fill (i - 1) rest
  in
  fill (!count - 1) !entries;
  { s_tau = tau; s_cohort = c; s_viol = cohort_violation c; s_entries = arr }

let trace_window ctx params =
  let sims = ref [] in
  for tau = params.tau_start to params.stable_from - 1 do
    sims := trace_sim ctx tau :: !sims
  done;
  !sims

(* Turn the window cohorts plus the closed-form streams into a report.
   Every field is order-canonical (sorted violation and congestion sets, a
   max, a window tuple), so the result is independent of both hash
   iteration order and the order of [sims] — which is what lets the
   incremental checker guarantee reports *identical* to a from-scratch
   evaluation. *)
let assemble inst ctx params sims =
  let demand = inst.Instance.demand in
  let { tau_start; stable_from; s_off; s_nxt; rep_viol; _ } = params in
  let loads = ctx.loads in
  loads_reset loads;
  let flow_violations =
    ref (match rep_viol with None -> [] | Some v -> [ v ])
  in
  List.iter
    (fun s ->
      (match s.s_viol with
      | None -> ()
      | Some v -> flow_violations := v :: !flow_violations);
      let entries = s.s_entries in
      for i = 0 to Array.length entries - 1 do
        loads_add loads entries.(i) demand
      done)
    sims;
  (* Does the pure steady stream enter link (u, v) at step t? Exactly the
     cohorts injected strictly before [tau_start] are accounted here; the
     rest are simulated, so no cohort is counted twice. *)
  let pure_entry u v t =
    ctx.a_old.(u) = v
    && ctx.a_prefix.(u) <> min_int
    && t - ctx.a_prefix.(u) < tau_start
  in
  (* Does the stable stream enter link (u, v) at step t? Exactly the
     cohorts injected at [stable_from] or later are accounted here. *)
  let stable_entry u v t = s_nxt.(u) = v && t - s_off.(u) >= stable_from in
  let extra_load u v t =
    (if pure_entry u v t then demand else 0)
    + if stable_entry u v t then demand else 0
  in
  (* The two closed-form streams can share a link over a window that no
     simulated cohort touches: on every link of the stable route that is
     also an old-path link, the stable head overlaps the pure tail for the
     steps where both deliver. Materialise those keys (at load 0) so the
     capacity scan sees them. *)
  for u = 0 to ctx.nn - 1 do
    let next = s_nxt.(u) in
    if next >= 0 && ctx.a_old.(u) = next && ctx.a_prefix.(u) <> min_int then
      for t = s_off.(u) + stable_from to ctx.a_prefix.(u) + tau_start - 1 do
        loads_add loads (pack u next t) 0
      done
  done;
  let congested = ref [] in
  let peak = ref 0 in
  let congestion_violations = ref [] in
  let keys = loads.keys and vals = loads.vals and used = loads.used in
  for i = 0 to loads.count - 1 do
    let slot = used.{i} in
    let key = keys.{slot} in
    let u = (key lsr 42) land field_mask
    and v = (key lsr 21) land field_mask
    and t = (key land field_mask) - t_bias in
    (* Steady cross-flow load shares the link at every step the dynamic
       flow enters it; see the [?background] contract in the .mli. *)
    let load = vals.{slot} + extra_load u v t + ctx.bg u v in
    if load > !peak then peak := load;
    (* Every entered link is the old- or the new-rule edge of [u]. *)
    let capacity =
      if ctx.a_old.(u) = v then ctx.a_old_cap.(u) else ctx.a_new_cap.(u)
    in
    if load > capacity then begin
      congested := (u, v, t) :: !congested;
      congestion_violations :=
        Congestion { u; v; time = t; load; capacity }
        :: !congestion_violations
    end
  done;
  let violations =
    List.sort_uniq compare_violation
      (!congestion_violations @ !flow_violations)
  in
  {
    ok = (match violations with [] -> true | _ -> false);
    violations;
    congested = List.sort compare_key3 !congested;
    peak_load = !peak;
    window = (tau_start, stable_from);
  }

let evaluate ?background inst sched =
  Obs.Counter.incr c_full;
  let ctx = make_ctx ?background inst in
  set_flips ctx sched;
  let params = compute_params inst ctx sched in
  let sims = trace_window ctx params in
  clear_flips ctx sched;
  assemble inst ctx params sims

(* The exhaustive variant backing {!link_loads}: materialise every cohort
   from the steady-state window up to the point where transitional tails
   have passed, as consumers of the full load table (the time-extended
   views) expect. *)
let link_loads inst sched =
  let demand = inst.Instance.demand in
  let ctx = make_ctx inst in
  set_flips ctx sched;
  let params = compute_params inst ctx sched in
  let loads = ctx.loads in
  let last_entry = ref min_int in
  let record u v t =
    loads_add loads (pack u v t) demand;
    if t > !last_entry then last_entry := t
  in
  let run tau = ignore (trace_ctx ctx ~record tau) in
  for tau = params.tau_min to params.stable_from - 1 do
    run tau
  done;
  let fin = max params.stable_from !last_entry in
  let tau = ref params.stable_from in
  while !tau <= fin do
    run !tau;
    incr tau
  done;
  clear_flips ctx sched;
  List.init loads.count (fun i ->
      let slot = loads.used.{i} in
      (unpack loads.keys.{slot}, loads.vals.{slot}))
  |> List.sort (fun (k1, _) (k2, _) -> compare_key3 k1 k2)

let is_consistent ?background inst sched =
  Schedule.covers inst sched && (evaluate ?background inst sched).ok

let congested_link_count ?background inst sched =
  List.length (evaluate ?background inst sched).congested

(* ------------------------------------------------------------------ *)
(* The incremental engine. A checker is a session over one instance: it
   holds a *base* schedule together with everything [evaluate] computed
   for it — the window cohorts, their packed link entries, the
   closed-form stream parameters — plus an index from each switch to the
   cohorts that consulted its rule. Probing [add v t base] then re-traces
   only the cohorts that can observe the flip: those that consulted [v]
   at arrival step >= t (their recorded route would change) and those
   newly inside the probed schedule's window. Everything else is replayed
   from cache into a fresh load table, which costs an array walk per
   cohort instead of a network walk.

   Cache-invalidation contract (the equivalence obligation): a cached
   trace for injection time tau is valid under [add v t base] iff the
   cohort never consulted [v]'s rule at an arrival step >= t. [v] is
   never in [base] (adding it would raise), so under the base it held the
   old rule at every step; the probe changes its rule exactly on steps
   >= t, and no other switch's rule changes. The consult index makes this
   test O(index entries of v). Every report field is order-canonical, so
   a probe's report is structurally identical to [evaluate] on the probed
   schedule — the differential property suite asserts exactly that. *)
module Checker = struct
  type probe_state = {
    p_sched : Schedule.t;
    p_params : params;
    p_sims : sim list;
    p_report : report;
  }

  type frame = {
    f_base : Schedule.t;
    f_params : params;
    f_cache : sim Itbl.t;
    f_index : (int * int) list Itbl.t;
    f_report : report;
  }

  type t = {
    mutable inst : Instance.t;
    ctx : ctx;
    mutable base : Schedule.t;
    mutable params : params;
    mutable cache : sim Itbl.t;  (** injection time -> cached trace *)
    mutable index : (int * int) list Itbl.t;
        (** switch -> [(injection time, consult step)] over the cache *)
    mutable report : report;
    memo : probe_state Itbl.t;
        (** flip key -> every single-flip probe made on the current base:
            the greedy re-probes stalled heads at the same step, and
            probe-then-commit/push promotes the probed state *)
    mutable frames : frame list;
  }

  let build_index sims =
    let index = Itbl.create 32 in
    List.iter
      (fun s ->
        List.iter
          (fun (u, t) ->
            let prior = Option.value ~default:[] (Itbl.find_opt index u) in
            Itbl.replace index u ((s.s_tau, t) :: prior))
          (consults s.s_cohort))
      sims;
    index

  let cache_of sims =
    let cache = Itbl.create 64 in
    List.iter (fun s -> Itbl.replace cache s.s_tau s) sims;
    cache

  let create ?background inst sched =
    Obs.Counter.incr c_full;
    let ctx = make_ctx ?background inst in
    set_flips ctx sched;
    let params = compute_params inst ctx sched in
    let sims = trace_window ctx params in
    clear_flips ctx sched;
    {
      inst;
      ctx;
      base = sched;
      params;
      cache = cache_of sims;
      index = build_index sims;
      report = assemble inst ctx params sims;
      memo = Itbl.create 16;
      frames = [];
    }

  let base ck = ck.base

  let base_report ck = ck.report

  let instance ck = ck.inst

  (* Re-point the session at a new instance over the same graph, with the
     empty schedule as base. An empty base simulates *zero* window cohorts
     (the pure stream covers every injection before [tmax + 1 = 1] and the
     stable stream everything from [stable_from = 1]), so the whole
     operation costs one representative trace plus an O(nn) array reset —
     not a from-scratch evaluation, hence its own counter. *)
  let retarget ?background ck inst =
    if not (inst.Instance.graph == ck.inst.Instance.graph) then
      invalid_arg "Oracle.Checker.retarget: instance is over a different graph";
    if ck.frames <> [] then
      invalid_arg "Oracle.Checker.retarget: outstanding push frames";
    Obs.Counter.incr c_retargets;
    retarget_ctx ck.ctx ?background inst;
    ck.inst <- inst;
    ck.base <- Schedule.empty;
    let params = compute_params inst ck.ctx Schedule.empty in
    ck.params <- params;
    ck.cache <- Itbl.create 64;
    ck.index <- Itbl.create 32;
    ck.report <- assemble inst ck.ctx params [];
    Itbl.clear ck.memo

  (* Swap the cross-flow background load. Cached cohort traces are routing
     state and never depend on the background, so only the capacity scan
     needs a rerun: reassemble the base report from the cached window. *)
  let set_background ck bg =
    if ck.frames <> [] then
      invalid_arg "Oracle.Checker.set_background: outstanding push frames";
    ck.ctx.bg <- bg;
    let sims = Itbl.fold (fun _ s acc -> s :: acc) ck.cache [] in
    ck.report <- assemble ck.inst ck.ctx ck.params sims;
    Itbl.clear ck.memo

  let rebase ck sched =
    Obs.Counter.incr c_full;
    set_flips ck.ctx sched;
    let params = compute_params ck.inst ck.ctx sched in
    let sims = trace_window ck.ctx params in
    clear_flips ck.ctx sched;
    ck.base <- sched;
    ck.params <- params;
    ck.cache <- cache_of sims;
    ck.index <- build_index sims;
    ck.report <- assemble ck.inst ck.ctx params sims;
    Itbl.clear ck.memo;
    ck.frames <- []

  let compute_probe ck adds =
    let sched' =
      List.fold_left (fun s (v, t) -> Schedule.add v t s) ck.base adds
    in
    set_flips ck.ctx sched';
    let params' = compute_params ck.inst ck.ctx sched' in
    let affected = Itbl.create 8 in
    List.iter
      (fun (v, t) ->
        match Itbl.find_opt ck.index v with
        | None -> ()
        | Some l ->
            List.iter
              (fun (tau, at) -> if at >= t then Itbl.replace affected tau ())
              l)
      adds;
    let sims = ref [] in
    let hits = ref 0 and retraced = ref 0 in
    for tau = params'.tau_start to params'.stable_from - 1 do
      let cached =
        if Itbl.mem affected tau then None else Itbl.find_opt ck.cache tau
      in
      match cached with
      | Some s ->
          incr hits;
          sims := s :: !sims
      | None ->
          incr retraced;
          sims := trace_sim ck.ctx tau :: !sims
    done;
    clear_flips ck.ctx sched';
    Obs.Counter.incr ~by:!hits c_hits;
    Obs.Counter.incr ~by:!retraced c_retraced;
    {
      p_sched = sched';
      p_params = params';
      p_sims = !sims;
      p_report = assemble ck.inst ck.ctx params' !sims;
    }

  let probe_list ck adds = (compute_probe ck adds).p_report

  (* The verdict-table key of the flip [(v, t)]. Flips [compute_probe]
     would reject (a switch id outside the context, a negative step) get
     key -1, which is never stored, so probing them still raises. *)
  let flip_key ck v t =
    if v >= 0 && v < ck.ctx.nn && t >= 0 then (t * ck.ctx.nn) + v else -1

  (* The oracle is deterministic and the table is dropped on every base
     change, so a stored state is exactly what [compute_probe] would
     return for the same flip now. *)
  let probe ck v t =
    let key = flip_key ck v t in
    match Itbl.find ck.memo key with
    | st ->
        Obs.Counter.incr c_reuses;
        st.p_report
    | exception Not_found ->
        let st = compute_probe ck [ (v, t) ] in
        Itbl.replace ck.memo key st;
        st.p_report

  let promote ck st =
    ck.base <- st.p_sched;
    ck.params <- st.p_params;
    ck.cache <- cache_of st.p_sims;
    ck.index <- build_index st.p_sims;
    ck.report <- st.p_report;
    Itbl.clear ck.memo

  let commit ck v t =
    let st =
      match Itbl.find ck.memo (flip_key ck v t) with
      | st -> st
      | exception Not_found -> compute_probe ck [ (v, t) ]
    in
    promote ck st;
    st.p_report

  let push ck v t =
    let saved =
      {
        f_base = ck.base;
        f_params = ck.params;
        f_cache = ck.cache;
        f_index = ck.index;
        f_report = ck.report;
      }
    in
    let report = commit ck v t in
    ck.frames <- saved :: ck.frames;
    report

  let pop ck =
    match ck.frames with
    | [] -> invalid_arg "Oracle.Checker.pop: no pushed frame"
    | f :: rest ->
        ck.frames <- rest;
        ck.base <- f.f_base;
        ck.params <- f.f_params;
        ck.cache <- f.f_cache;
        ck.index <- f.f_index;
        ck.report <- f.f_report;
        Itbl.clear ck.memo
end

let pp_violation ppf = function
  | Congestion { u; v; time; load; capacity } ->
      Format.fprintf ppf "congestion on v%d -> v%d at t=%d (load %d > cap %d)"
        u v time load capacity
  | Loop { switch; injected; time } ->
      Format.fprintf ppf
        "loop through v%d at t=%d (cohort injected at t=%d)" switch time
        injected
  | Blackhole { switch; injected; time } ->
      Format.fprintf ppf
        "blackhole at v%d at t=%d (cohort injected at t=%d)" switch time
        injected

let pp_report ppf r =
  if r.ok then Format.fprintf ppf "consistent (peak load %d)" r.peak_load
  else
    Format.fprintf ppf "@[<v>%d violation(s):@,%a@]"
      (List.length r.violations)
      (Format.pp_print_list pp_violation)
      r.violations
