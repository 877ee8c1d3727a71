(* The transactional update service: rule-granular footprint conflict
   detection (same flow, shared rule slot, link overload), soundness of
   the per-link worst-case transient bounds against the oracle, joint
   safety of concurrently admitted batchmates, the commutativity of
   disjoint-footprint transactions (any submission order, any job count
   — same final routes), deterministic serialization of conflicting ones
   by request id, structured denials, the background-vs-residual oracle
   equivalence the service's solver rests on, a golden multi-flow replay
   through the timed executor, and jobs-parity of the service figure's
   deterministic columns. *)

open Chronus_graph
open Chronus_flow
open Chronus_topo
module Svc = Chronus_service.Service
module Footprint = Chronus_service.Footprint
module Obs = Chronus_obs.Obs
module E = Chronus_experiments

(* ------------------------------------------------------------------ *)
(* Fixtures *)

(* One diamond: base -> base+1 -> base+3 over the top, base -> base+2 ->
   base+3 underneath. The two-diamond graph gives two flows with
   provably disjoint footprints; a single shared diamond gives the
   canonical conflicting pair (same links, same destination). *)
let diamond ?(cap = 2) ?(rng : Rng.t option) g base =
  let e u v =
    let delay = match rng with None -> 1 | Some r -> Rng.in_range r 1 3 in
    Graph.add_edge ~capacity:cap ~delay g u v
  in
  e base (base + 1);
  e (base + 1) (base + 3);
  e base (base + 2);
  e (base + 2) (base + 3)

let via1 base = [ base; base + 1; base + 3 ]
let via2 base = [ base; base + 2; base + 3 ]

let steady fid path = { Instance.fid; f_demand = 1; f_init = path; f_fin = path }

let two_diamond_multi ?cap ?rng () =
  let g = Graph.create () in
  diamond ?cap ?rng g 0;
  diamond ?cap ?rng g 10;
  Instance.create_multi ~graph:g [ steady 0 (via1 0); steady 1 (via1 10) ]

(* Two flows sharing one diamond in opposite arms; swapping them is the
   canonical conflicting request pair. *)
let shared_diamond_multi ?(cap = 2) ?rng () =
  let g = Graph.create () in
  diamond ~cap ?rng g 0;
  Instance.create_multi ~graph:g [ steady 0 (via1 0); steady 1 (via2 0) ]

let committed o =
  match o.Svc.verdict with Svc.Committed _ -> true | Svc.Denied _ -> false

let submit_ok svc ~fid ~target =
  match Svc.submit svc ~fid ~target with
  | Ok rid -> rid
  | Error d -> Alcotest.failf "submit denied: %a" Svc.pp_denial d

(* ------------------------------------------------------------------ *)
(* Footprints: the rule-granular conflict relation. *)

let fail_conflict expected actual =
  Alcotest.failf "expected %s, got %s" expected
    (match actual with
    | None -> "no conflict"
    | Some c -> Format.asprintf "%a" Footprint.pp_conflict c)

let test_footprint_conflicts () =
  let g = Graph.create () in
  diamond g 0;
  diamond g 10;
  let fp fid current target =
    Footprint.of_flow ~graph:g ~fid ~demand:1 ~current ~target
  in
  let conflict ~flows a b =
    Footprint.conflict
      ~capacity:(Graph.capacity g)
      ~steady:(Instance.background (List.map (fun p -> (1, p)) flows))
      a b
  in
  let a = fp 0 (via1 0) (via2 0) in
  let b = fp 1 (via1 10) (via2 10) in
  Alcotest.(check bool) "disjoint diamonds commute" true
    (conflict ~flows:[ via1 0; via1 10 ] a b = None);
  (match conflict ~flows:[ via1 0 ] a a with
  | Some (Footprint.Same_flow 0) -> ()
  | other -> fail_conflict "same flow 0" other);
  (* Opposite arms of one diamond: both transactions rewrite the rule
     slot for destination v3 at the shared source switch. *)
  let b' = fp 1 (via2 0) (via1 0) in
  match conflict ~flows:[ via1 0; via2 0 ] a b' with
  | Some (Footprint.Shared_rule { switch = 0; dst = 3 }) -> ()
  | other -> fail_conflict "shared rule slot (v0, dst v3)" other

(* The detour lattice: two flows with distinct destinations (v0 -> v1
   and v2 -> v3 on direct links) whose min-hop detours meet only on the
   chord v8 -> v9. At chord capacity 1 the pair's combined worst case is
   2 and the budget names exactly that link; at capacity 2 the chord
   absorbs both worst cases and the pair — which every path-granular
   model would serialize — shares a batch. *)
let detour_lattice cap =
  let g = Graph.create () in
  List.iter
    (fun (u, v) -> Graph.add_edge ~capacity:cap ~delay:1 g u v)
    [ (0, 1); (0, 8); (9, 1); (2, 3); (2, 8); (9, 3); (8, 9) ];
  g

let lattice_footprints g =
  ( Footprint.of_flow ~graph:g ~fid:0 ~demand:1 ~current:[ 0; 1 ]
      ~target:[ 0; 8; 9; 1 ],
    Footprint.of_flow ~graph:g ~fid:1 ~demand:1 ~current:[ 2; 3 ]
      ~target:[ 2; 8; 9; 3 ] )

let lattice_steady = Instance.background [ (1, [ 0; 1 ]); (1, [ 2; 3 ]) ]

let test_footprint_link_overload () =
  let g = detour_lattice 1 in
  let a, b = lattice_footprints g in
  (match
     Footprint.conflict ~capacity:(Graph.capacity g) ~steady:lattice_steady a b
   with
  | Some (Footprint.Link_overload { u = 8; v = 9; combined = 2; capacity = 1 })
    ->
      ()
  | other -> fail_conflict "overload of v8 -> v9 (worst-case 2 > cap 1)" other);
  let g2 = detour_lattice 2 in
  let a2, b2 = lattice_footprints g2 in
  Alcotest.(check bool) "a shared link with headroom no longer serializes" true
    (Footprint.conflict ~capacity:(Graph.capacity g2) ~steady:lattice_steady a2
       b2
    = None)

(* The same pair through the live service (the SERVICE.md worked
   example): both detours commit in the first batch with no
   serialization even though their targets share the chord. *)
let test_link_sharing_batchmates () =
  let g = detour_lattice 2 in
  let multi =
    Instance.create_multi ~graph:g [ steady 0 [ 0; 1 ]; steady 1 [ 2; 3 ] ]
  in
  let svc = Svc.create multi in
  ignore (submit_ok svc ~fid:0 ~target:[ 0; 8; 9; 1 ]);
  ignore (submit_ok svc ~fid:1 ~target:[ 2; 8; 9; 3 ]);
  let outcomes = Svc.process ~jobs:2 svc in
  List.iter
    (fun o ->
      Alcotest.(check bool) "committed" true (committed o);
      Alcotest.(check int) "first batch" 1 o.Svc.batch;
      Alcotest.(check (list int)) "no serialization" [] o.Svc.serialized_after)
    outcomes;
  Alcotest.(check (list (pair int (list int)))) "both rerouted"
    [ (0, [ 0; 8; 9; 1 ]); (1, [ 2; 8; 9; 3 ]) ]
    (Svc.routes svc)

(* Footprints are derived once at submit and reused by every admission
   pass that still sees the flow on the path the footprint was computed
   from: two passes over the conflicting pair plus the loser's second
   batch make three reuses (flow 1 itself never moved). *)
let test_footprint_reuse_counter () =
  let svc = Svc.create (shared_diamond_multi ()) in
  ignore (submit_ok svc ~fid:0 ~target:(via2 0));
  ignore (submit_ok svc ~fid:1 ~target:(via1 0));
  let c = Obs.Counter.v "service.footprint_reuse" in
  let before = Obs.Counter.value c in
  ignore (Svc.process ~jobs:1 svc);
  Alcotest.(check int) "submit-time footprints reused" 3
    (Obs.Counter.value c - before)

(* ------------------------------------------------------------------ *)
(* Soundness of the admission model, in two QCheck halves.

   Half 1: the footprint's per-link worst-case number really bounds the
   transient load the flow can place there under ANY loop-free schedule
   — checked by re-running the schedule on a graph whose capacities ARE
   the bounds and asking the oracle for congestion.

   Half 2: pairs the service actually ran concurrently pass a joint
   full-capacity oracle gate — each member's committed schedule stays
   consistent with the other member charged at its worst-case bound on
   every link the budget accounted for both, and at its steady share
   elsewhere (where the solver's own gate already covered it). Together
   the halves say no admitted batch can congest a link, whatever the
   interleaving. *)

let fp_entry fp u v =
  List.find_opt
    (fun e -> e.Footprint.e_u = u && e.Footprint.e_v = v)
    fp.Footprint.links

let fp_worst fp u v =
  match fp_entry fp u v with Some e -> e.Footprint.e_worst | None -> 0

let fp_steady fp u v =
  match fp_entry fp u v with Some e -> e.Footprint.e_steady | None -> 0

let fp_margin fp u v = fp_worst fp u v - fp_steady fp u v

(* The instance's single flow on a graph whose union-link capacities are
   chosen by [cap_of] (delays preserved — cohort routing is untouched). *)
let recapacitated inst cap_of =
  let g = inst.Instance.graph in
  let union =
    List.sort_uniq compare
      (Path.edges inst.Instance.p_init @ Path.edges inst.Instance.p_fin)
  in
  let g' = Graph.create () in
  List.iter
    (fun (u, v) ->
      Graph.add_edge ~capacity:(cap_of u v) ~delay:(Graph.delay g u v) g' u v)
    union;
  Instance.create ~graph:g' ~demand:inst.Instance.demand
    ~p_init:inst.Instance.p_init ~p_fin:inst.Instance.p_fin

let prop_worst_bound_sound =
  QCheck.Test.make ~count:80
    ~name:"footprint worst case bounds any loop-free schedule's load"
    QCheck.(make Gen.(0 -- 10_000))
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      let rng = Rng.derive seed [ 41 ] in
      let sched =
        Schedule.of_list
          (List.map
             (fun v -> (v, Rng.in_range rng 0 5))
             (Instance.switches_to_update inst))
      in
      let fp =
        Footprint.of_flow ~graph:inst.Instance.graph ~fid:0
          ~demand:inst.Instance.demand ~current:inst.Instance.p_init
          ~target:inst.Instance.p_fin
      in
      let roomy = recapacitated inst (fun _ _ -> 1_000_000) in
      if not (Oracle.evaluate roomy sched).Oracle.ok then
        (* the random schedule loops or blackholes: the bound only
           claims to cover consistent cohort behaviour *)
        true
      else
        let bounded = recapacitated inst (fp_worst fp) in
        (Oracle.evaluate bounded sched).Oracle.ok)

(* A small shared WAN carrying unit-demand flows on min-hop routes, and
   the same failed-link detour requests fig-service submits. *)
let wan_workload seed =
  let rng = Rng.derive seed [ 43 ] in
  let g =
    Topology.wan ~params:{ Topology.capacity = 2; delay = 1 } ~rng 10
  in
  let nodes = Array.of_list (Graph.nodes g) in
  let loads = Hashtbl.create 32 in
  let load u v = Option.value ~default:0 (Hashtbl.find_opt loads (u, v)) in
  let rec draw fid acc misses =
    if fid >= 5 || misses > 100 then List.rev acc
    else
      let src = nodes.(Rng.int rng (Array.length nodes)) in
      let dst = nodes.(Rng.int rng (Array.length nodes)) in
      match if src = dst then None else Shortest.hop_path g src dst with
      | Some p
        when List.for_all
               (fun (u, v) -> load u v + 1 <= Graph.capacity g u v)
               (Path.edges p) ->
          List.iter
            (fun (u, v) -> Hashtbl.replace loads (u, v) (load u v + 1))
            (Path.edges p);
          draw (fid + 1) (steady fid p :: acc) misses
      | Some _ | None -> draw fid acc (misses + 1)
  in
  (g, draw 0 [] 0)

let detour_request ~rng g current =
  match Path.edges current with
  | [] -> current
  | edges -> (
      let u, v = Rng.pick rng edges in
      let g' = Graph.copy g in
      Graph.remove_edge g' u v;
      match
        Shortest.hop_path g' (Path.source current) (Path.destination current)
      with
      | Some p -> p
      | None -> current)

(* The joint gate for batchmates A and B over the routes in force when
   their batch solved. *)
let joint_gate g ~routes a_fid a_target a_sched b_fid b_target =
  let current fid = List.assoc fid routes in
  let fp_of fid target =
    Footprint.of_flow ~graph:g ~fid ~demand:1 ~current:(current fid) ~target
  in
  let fpa = fp_of a_fid a_target and fpb = fp_of b_fid b_target in
  let bg_others =
    Instance.background
      (List.filter_map
         (fun (fid, p) ->
           if fid = a_fid || fid = b_fid then None else Some (1, p))
         routes)
  in
  let background u v =
    bg_others u v
    +
    if fp_margin fpa u v > 0 && fp_margin fpb u v > 0 then fp_worst fpb u v
    else fp_steady fpb u v
  in
  match
    Instance.create ~graph:g ~demand:1 ~p_init:(current a_fid) ~p_fin:a_target
  with
  | exception Instance.Ill_formed _ -> false
  | inst -> (Oracle.evaluate ~background inst a_sched).Oracle.ok

let prop_admitted_pairs_jointly_safe =
  QCheck.Test.make ~count:25
    ~name:"concurrently admitted pairs pass the joint oracle gate"
    QCheck.(make Gen.(0 -- 1_000))
    (fun seed ->
      let g, flows = wan_workload seed in
      if List.length flows < 2 then true
      else begin
        let multi = Instance.create_multi ~graph:g flows in
        let svc = Svc.create multi in
        let rng = Rng.derive seed [ 47 ] in
        let n = List.length flows in
        for _k = 1 to 8 do
          let fid = Rng.int rng n in
          let current = Option.get (Svc.current_path svc fid) in
          let target = detour_request ~rng g current in
          ignore (Svc.submit svc ~fid ~target)
        done;
        let outcomes = Svc.process ~jobs:2 svc in
        let commits =
          List.filter_map
            (fun o ->
              match o.Svc.verdict with
              | Svc.Committed { schedule; _ } ->
                  Some (o.Svc.batch, (o.Svc.fid, o.Svc.target, schedule))
              | Svc.Denied _ -> None)
            outcomes
        in
        let routes = Hashtbl.create 8 in
        List.iter
          (fun f -> Hashtbl.replace routes f.Instance.fid f.Instance.f_init)
          flows;
        let batches = List.sort_uniq Int.compare (List.map fst commits) in
        let pairs_ok =
          List.for_all
            (fun b ->
              let members =
                List.filter_map
                  (fun (b', m) -> if b' = b then Some m else None)
                  commits
              in
              let pre =
                Hashtbl.fold (fun fid p acc -> (fid, p) :: acc) routes []
              in
              let ok =
                List.for_all
                  (fun (afid, atgt, asched) ->
                    Schedule.is_empty asched
                    || List.for_all
                         (fun (bfid, btgt, _) ->
                           bfid = afid
                           || joint_gate g ~routes:pre afid atgt asched bfid
                                btgt)
                         members)
                  members
              in
              List.iter
                (fun (fid, target, _) -> Hashtbl.replace routes fid target)
                members;
              ok)
            batches
        in
        let final = Svc.routes svc in
        let bg_all =
          Instance.background (List.map (fun (_, p) -> (1, p)) final)
        in
        let final_ok =
          List.for_all
            (fun (_, p) ->
              List.for_all
                (fun (u, v) -> bg_all u v <= Graph.capacity g u v)
                (Path.edges p))
            final
        in
        pairs_ok && final_ok
      end)

(* Monotonicity against the old model: a pair the path-granular relation
   already ran concurrently (no shared directed link, distinct
   destinations, distinct flows) is always admitted by the rule-granular
   budget too. *)
let prop_path_disjoint_always_admitted =
  QCheck.Test.make ~count:40
    ~name:"rule-granular admission subsumes path-granular disjointness"
    QCheck.(make Gen.(0 -- 1_000))
    (fun seed ->
      let g, flows = wan_workload seed in
      match flows with
      | fa :: fb :: _ ->
          let rng = Rng.derive seed [ 53 ] in
          let pa = fa.Instance.f_init and pb = fb.Instance.f_init in
          let ta = detour_request ~rng g pa
          and tb = detour_request ~rng g pb in
          let la = Path.edges pa @ Path.edges ta
          and lb = Path.edges pb @ Path.edges tb in
          let disjoint =
            List.for_all (fun e -> not (List.mem e lb)) la
            && Path.destination pa <> Path.destination pb
          in
          if not disjoint then true
          else
            let fp f current target =
              Footprint.of_flow ~graph:g ~fid:f.Instance.fid ~demand:1
                ~current ~target
            in
            Footprint.conflict
              ~capacity:(Graph.capacity g)
              ~steady:
                (Instance.background
                   (List.map (fun f -> (1, f.Instance.f_init)) flows))
              (fp fa pa ta) (fp fb pb tb)
            = None
      | _ -> true)

(* ------------------------------------------------------------------ *)
(* Commutativity: disjoint-footprint transactions yield the same final
   routes under any submission order and any job count, and commit in
   the same (first) batch with no serialization. *)

let disjoint_run ~seed ~order ~jobs =
  let multi = two_diamond_multi ~rng:(Rng.derive seed [ 1 ]) () in
  let svc = Svc.create multi in
  List.iter
    (fun fid ->
      ignore (submit_ok svc ~fid ~target:(via2 (if fid = 0 then 0 else 10))))
    order;
  let outcomes = Svc.process ~jobs svc in
  List.iter
    (fun o ->
      Alcotest.(check bool) "committed" true (committed o);
      Alcotest.(check int) "first batch" 1 o.Svc.batch;
      Alcotest.(check (list int)) "no serialization" [] o.Svc.serialized_after)
    outcomes;
  Svc.routes svc

let prop_disjoint_commute =
  QCheck.Test.make ~count:40
    ~name:"disjoint footprints commute (any order, any jobs)"
    QCheck.(make Gen.(0 -- 1_000))
    (fun seed ->
      let reference = disjoint_run ~seed ~order:[ 0; 1 ] ~jobs:1 in
      List.for_all
        (fun (order, jobs) -> disjoint_run ~seed ~order ~jobs = reference)
        [ ([ 0; 1 ], 4); ([ 1; 0 ], 1); ([ 1; 0 ], 4) ])

(* Conflicting pair: whoever holds the smaller rid wins the batch; the
   other request is serialized exactly one batch behind it (Serialize
   policy) or denied naming the winner (Deny policy). *)
let prop_conflict_serializes =
  QCheck.Test.make ~count:40
    ~name:"conflicting pair serializes deterministically by rid"
    QCheck.(make Gen.(pair (0 -- 1_000) bool))
    (fun (seed, swap_order) ->
      let multi = shared_diamond_multi ~rng:(Rng.derive seed [ 2 ]) () in
      let svc = Svc.create multi in
      (* Swap the two flows' arms — maximally conflicting requests. *)
      let submit fid =
        submit_ok svc ~fid ~target:(if fid = 0 then via2 0 else via1 0)
      in
      let first = submit (if swap_order then 1 else 0) in
      let second = submit (if swap_order then 0 else 1) in
      let outcomes = Svc.process ~jobs:2 svc in
      List.for_all committed outcomes
      && List.for_all
           (fun o ->
             if o.Svc.rid = first then
               o.Svc.batch = 1 && o.Svc.serialized_after = []
             else
               o.Svc.rid = second && o.Svc.batch = 2
               && o.Svc.serialized_after = [ first ])
           outcomes
      && Svc.routes svc
         = [ (0, via2 0); (1, via1 0) ])

let test_conflict_deny_policy () =
  let svc =
    Svc.create ~conflict_policy:Svc.Deny (shared_diamond_multi ())
  in
  let r0 = submit_ok svc ~fid:0 ~target:(via2 0) in
  let r1 = submit_ok svc ~fid:1 ~target:(via1 0) in
  match Svc.process ~jobs:1 svc with
  | [ o0; o1 ] ->
      Alcotest.(check bool) "winner committed" true (committed o0);
      Alcotest.(check int) "winner rid" r0 o0.Svc.rid;
      (match o1.Svc.verdict with
      | Svc.Denied (Svc.Conflict { with_rid; _ }) ->
          Alcotest.(check int) "denial names the winner" r0 with_rid
      | v -> Alcotest.failf "expected conflict denial, got %a" Svc.pp_verdict v);
      Alcotest.(check int) "loser rid" r1 o1.Svc.rid;
      Alcotest.(check (list (pair int (list int)))) "loser's route unchanged"
        [ (0, via2 0); (1, via2 0) ]
        (Svc.routes svc)
  | os -> Alcotest.failf "expected two outcomes, got %d" (List.length os)

(* ------------------------------------------------------------------ *)
(* Structured denials *)

let test_door_denials () =
  let svc = Svc.create ~queue_limit:1 (two_diamond_multi ()) in
  (match Svc.submit svc ~fid:9 ~target:(via2 0) with
  | Error (Svc.Unknown_flow 9) -> ()
  | _ -> Alcotest.fail "expected Unknown_flow");
  (match Svc.submit svc ~fid:0 ~target:(via2 10) with
  | Error (Svc.Invalid_path _) -> ()
  | _ -> Alcotest.fail "expected Invalid_path (wrong endpoints)");
  ignore (submit_ok svc ~fid:0 ~target:(via2 0));
  match Svc.submit svc ~fid:1 ~target:(via2 10) with
  | Error (Svc.Queue_full { limit = 1 }) -> ()
  | _ -> Alcotest.fail "expected Queue_full"

let test_capacity_denial () =
  (* A steady neighbour saturates the lower arm: flow 0's request for it
     must be denied with the exact link and residual. *)
  let g = Graph.create () in
  diamond ~cap:1 g 0;
  let multi =
    Instance.create_multi ~graph:g [ steady 0 (via1 0); steady 1 [ 0; 2 ] ]
  in
  let svc = Svc.create multi in
  ignore (submit_ok svc ~fid:0 ~target:(via2 0));
  match Svc.process ~jobs:1 svc with
  | [ { Svc.verdict = Svc.Denied (Svc.Capacity { u = 0; v = 2; need = 1; available = 0 }); _ } ]
    ->
      Alcotest.(check (list (pair int (list int)))) "route unchanged"
        [ (0, via1 0); (1, [ 0; 2 ]) ]
        (Svc.routes svc)
  | [ o ] -> Alcotest.failf "expected capacity denial, got %a" Svc.pp_outcome o
  | os -> Alcotest.failf "expected one outcome, got %d" (List.length os)

let test_unschedulable_denial () =
  (* Helpers.infeasible's topology: no consistent schedule moves the flow
     from [0;1;2;3] to [0;2;3], so the transaction aborts. *)
  let g = Graph.create () in
  List.iter
    (fun (u, v, capacity, delay) -> Graph.add_edge ~capacity ~delay g u v)
    [ (0, 1, 1, 1); (1, 2, 1, 1); (2, 3, 1, 3); (0, 2, 1, 1) ];
  let multi = Instance.create_multi ~graph:g [ steady 0 [ 0; 1; 2; 3 ] ] in
  let svc = Svc.create multi in
  ignore (submit_ok svc ~fid:0 ~target:[ 0; 2; 3 ]);
  match Svc.process ~jobs:1 svc with
  | [ { Svc.verdict = Svc.Denied (Svc.Unschedulable { remaining }); _ } ] ->
      Alcotest.(check bool) "names unplaced switches" true (remaining > 0)
  | [ o ] ->
      Alcotest.failf "expected unschedulable denial, got %a" Svc.pp_outcome o
  | os -> Alcotest.failf "expected one outcome, got %d" (List.length os)

(* ------------------------------------------------------------------ *)
(* The solver's foundation: validating one flow's schedule against the
   others' steady routes via [?background] on the full graph is the same
   judgement as validating on the residual-capacity graph. *)

let prop_background_residual_equivalence =
  QCheck.Test.make ~count:100
    ~name:"oracle ?background == residual-graph evaluation"
    QCheck.(make Gen.(0 -- 10_000))
    (fun seed ->
      let rng = Rng.derive seed [ 3 ] in
      let spec =
        Chronus_topo.Scenario.spec ~capacity_choices:[ 2; 3 ] ~delay_lo:1
          ~delay_hi:3
          (Rng.in_range rng 4 8)
      in
      let inst = Chronus_topo.Scenario.mixed ~rng spec in
      (* A phantom steady flow on the final path: the heaviest plausible
         sharing pattern. *)
      let bg = Instance.background [ (1, inst.Instance.p_fin) ] in
      let residual = Instance.residual_graph inst.Instance.graph bg in
      match
        Instance.create ~graph:residual ~demand:inst.Instance.demand
          ~p_init:inst.Instance.p_init ~p_fin:inst.Instance.p_fin
      with
      | exception Instance.Ill_formed _ -> QCheck.assume_fail ()
      | rinst ->
          let sched =
            Schedule.of_list
              (List.map
                 (fun v -> (v, Rng.in_range rng 0 3))
                 (Instance.switches_to_update inst))
          in
          let full = Oracle.evaluate ~background:bg inst sched in
          let res = Oracle.evaluate rinst sched in
          full.Oracle.ok = res.Oracle.ok
          && full.Oracle.congested = res.Oracle.congested)

let prop_zero_background_identity =
  QCheck.Test.make ~count:100 ~name:"zero background is the identity"
    QCheck.(make Gen.(0 -- 10_000))
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      let sched = Helpers.all_at_zero inst in
      Oracle.evaluate ~background:(fun _ _ -> 0) inst sched
      = Oracle.evaluate inst sched)

(* ------------------------------------------------------------------ *)
(* Golden multi-flow replay: two disjoint transactions and one
   serialized one, driven through the timed executor (Simulate mode).
   The digest pins every deterministic outcome field plus the final
   routes; wall_ns is projected away. Captured at jobs=1 and asserted
   at jobs=2 — the parity is the point. *)

let replay_config =
  {
    Chronus_exec.Exec_env.default with
    Chronus_exec.Exec_env.warmup = Chronus_sim.Sim_time.sec 1;
    drain = Chronus_sim.Sim_time.sec 2;
  }

let proj_outcome (o : Svc.outcome) =
  ( o.Svc.rid,
    o.Svc.fid,
    o.Svc.target,
    (match o.Svc.verdict with
    | Svc.Committed { schedule; makespan } ->
        Ok (Schedule.to_list schedule, makespan)
    | Svc.Denied d -> Error (Format.asprintf "%a" Svc.pp_denial d)),
    o.Svc.batch,
    o.Svc.serialized_after,
    o.Svc.execution )

let replay_run ~jobs =
  let g = Graph.create () in
  diamond g 0;
  diamond g 10;
  let multi =
    Instance.create_multi ~graph:g
      [ steady 0 (via1 0); steady 1 (via1 10); steady 2 (via2 0) ]
  in
  let svc =
    Svc.create ~exec:(Svc.Simulate { seed = 5; config = replay_config }) multi
  in
  ignore (submit_ok svc ~fid:0 ~target:(via2 0));
  ignore (submit_ok svc ~fid:1 ~target:(via2 10));
  ignore (submit_ok svc ~fid:2 ~target:(via1 0));
  let outcomes = Svc.process ~jobs svc in
  (List.map proj_outcome outcomes, Svc.routes svc)

let test_golden_replay () =
  let outcomes, routes = replay_run ~jobs:2 in
  List.iter
    (fun (_, _, _, verdict, _, _, execution) ->
      (match execution with
      | Some e ->
          Alcotest.(check bool) "simulated run clean" true e.Svc.exec_clean
      | None -> Alcotest.fail "expected an execution summary");
      match verdict with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "expected commit, got %s" d)
    outcomes;
  Alcotest.(check string) "replay digest (seed-identical)"
    "5ba917a0b57b81e705eccdec905d0c2d"
    (Helpers.dig (outcomes, routes));
  Alcotest.(check string) "jobs parity" (Helpers.dig (replay_run ~jobs:1)) (Helpers.dig (outcomes, routes))

(* ------------------------------------------------------------------ *)
(* The accept loop: [run_async] must be outcome-identical to the
   synchronous [submit]* + [process] sequence — same admission races,
   batching, serialization and denials — for a same-instant burst, at
   any job count. Random submission sequences over the shared diamond
   (conflicting pairs, repeats of the same flow, the occasional unknown
   fid bounced at the door). *)

let async_submissions seed =
  let rng = Rng.derive seed [ 77 ] in
  let n = Rng.in_range rng 1 8 in
  List.init n (fun _ ->
      let fid =
        if Rng.in_range rng 0 9 = 0 then 7 (* unknown: door denial *)
        else Rng.in_range rng 0 1
      in
      let target = if Rng.in_range rng 0 1 = 0 then via1 0 else via2 0 in
      (fid, target))

let proj_result = function
  | Error (d : Svc.denial) -> Error (Format.asprintf "%a" Svc.pp_denial d)
  | Ok o -> Ok (proj_outcome o)

let sync_burst ~jobs subs =
  let svc = Svc.create (shared_diamond_multi ()) in
  let door =
    List.map (fun (fid, target) -> Svc.submit svc ~fid ~target) subs
  in
  let outcomes = Svc.process ~jobs svc in
  ( List.map
      (function
        | Error d -> proj_result (Error d)
        | Ok rid ->
            proj_result (Ok (List.find (fun o -> o.Svc.rid = rid) outcomes)))
      door,
    Svc.routes svc )

let async_burst ~jobs subs =
  let svc = Svc.create (shared_diamond_multi ()) in
  let results =
    Svc.run_async ~jobs svc
      (List.map
         (fun (fid, target) -> { Svc.at = 0; a_fid = fid; a_target = target })
         subs)
  in
  ( List.map (fun (r : Svc.async_outcome) -> proj_result r.Svc.a_result) results,
    Svc.routes svc )

let prop_run_async_matches_process =
  QCheck.Test.make ~count:30
    ~name:"run_async verdicts match synchronous process (jobs 1 and 4)"
    QCheck.(make Gen.(0 -- 10_000))
    (fun seed ->
      let subs = async_submissions seed in
      let reference = Helpers.dig (sync_burst ~jobs:1 subs) in
      Helpers.dig (async_burst ~jobs:1 subs) = reference
      && Helpers.dig (async_burst ~jobs:4 subs) = reference)

(* Staggered arrivals: each instant forms its own admission round, so a
   pair that would collide in one burst sails through two batches with
   no serialization; verdicts land at the arrival instant. *)
let test_run_async_staggered () =
  let svc = Svc.create (shared_diamond_multi ()) in
  let t1 = Chronus_sim.Sim_time.msec 5 in
  let results =
    Svc.run_async ~jobs:1 svc
      [
        { Svc.at = 0; a_fid = 0; a_target = via2 0 };
        { Svc.at = t1; a_fid = 1; a_target = via1 0 };
      ]
  in
  match results with
  | [ a; b ] ->
      let outcome (r : Svc.async_outcome) =
        match r.Svc.a_result with
        | Ok o -> o
        | Error d -> Alcotest.failf "denied: %a" Svc.pp_denial d
      in
      Alcotest.(check int) "first verdict at its arrival instant" 0 a.Svc.decided_at;
      Alcotest.(check int) "second verdict at its arrival instant" t1
        b.Svc.decided_at;
      Alcotest.(check int) "first round is batch 1" 1 (outcome a).Svc.batch;
      Alcotest.(check int) "second round is batch 2" 2 (outcome b).Svc.batch;
      Alcotest.(check (list int)) "no serialization across rounds" []
        ((outcome b).Svc.serialized_after);
      Alcotest.(check (list (pair int (list int)))) "both rerouted"
        [ (0, via2 0); (1, via1 0) ]
        (Svc.routes svc)
  | _ -> Alcotest.fail "expected two results"

(* ------------------------------------------------------------------ *)
(* The service figure's books balance: every submitted request is
   either committed or denied. *)
let test_fig_service_books_balance () =
  List.iter
    (fun r ->
      Alcotest.(check int)
        "books balance: committed + denied = submitted"
        r.E.Fig_service.submitted
        (r.E.Fig_service.committed + r.E.Fig_service.denied))
    (E.Fig_service.run ~jobs:1 ~scale:E.Scale.tiny ())

let suite =
  ( "service",
    [
      Alcotest.test_case "footprint conflict rules" `Quick
        test_footprint_conflicts;
      Alcotest.test_case "link overload is capacity-aware" `Quick
        test_footprint_link_overload;
      Alcotest.test_case "link-sharing pair shares a batch" `Quick
        test_link_sharing_batchmates;
      Alcotest.test_case "submit-time footprints are reused" `Quick
        test_footprint_reuse_counter;
      QCheck_alcotest.to_alcotest ~long:false prop_worst_bound_sound;
      QCheck_alcotest.to_alcotest ~long:false prop_admitted_pairs_jointly_safe;
      QCheck_alcotest.to_alcotest ~long:false
        prop_path_disjoint_always_admitted;
      QCheck_alcotest.to_alcotest ~long:false prop_disjoint_commute;
      QCheck_alcotest.to_alcotest ~long:false prop_conflict_serializes;
      Alcotest.test_case "deny policy names the winner" `Quick
        test_conflict_deny_policy;
      Alcotest.test_case "door denials are structured" `Quick test_door_denials;
      Alcotest.test_case "capacity denial names the link" `Quick
        test_capacity_denial;
      Alcotest.test_case "unschedulable transaction aborts" `Quick
        test_unschedulable_denial;
      QCheck_alcotest.to_alcotest ~long:false
        prop_background_residual_equivalence;
      QCheck_alcotest.to_alcotest ~long:false prop_zero_background_identity;
      Alcotest.test_case "golden multi-flow replay (seed-identical)" `Quick
        test_golden_replay;
      QCheck_alcotest.to_alcotest ~long:false prop_run_async_matches_process;
      Alcotest.test_case "run_async staggered arrivals round separately" `Quick
        test_run_async_staggered;
      Alcotest.test_case "fig-service books balance" `Slow
        test_fig_service_books_balance;
    ] )
