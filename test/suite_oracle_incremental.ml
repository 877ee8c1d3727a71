(* Differential tests for the incremental oracle: every [Checker] probe,
   commit, push/pop and rebase must produce a report structurally
   identical to [Oracle.evaluate] run from scratch on the same schedule —
   the equivalence obligation stated in oracle.mli. Plus golden replays
   of the schedulers, pinning the exact schedules the pre-incremental
   implementation produced. *)

open Chronus_flow
open Chronus_core
open Chronus_baselines
open QCheck
module O = Oracle
module Rng = Chronus_topo.Rng

let count = 40

(* Reports contain only immediate data (ints, variants, tuples, lists),
   and every list field is order-canonical, so structural equality is the
   right notion of "identical". *)
let report_eq (a : O.report) (b : O.report) = a = b

let add_all flips sched =
  List.fold_left (fun s (v, t) -> Schedule.add v t s) sched flips

(* A random partial base schedule: each switch independently scheduled
   (or not) at a small random time. *)
let random_partial rng inst =
  List.fold_left
    (fun acc v ->
      if Rng.bool rng then Schedule.add v (Rng.in_range rng 0 9) acc else acc)
    Schedule.empty
    (Instance.switches_to_update inst)

let unscheduled inst base =
  List.filter
    (fun v -> not (Schedule.mem v base))
    (Instance.switches_to_update inst)

(* Probes of every unscheduled switch, at an early, a mid-window and a
   beyond-the-horizon time, must match a from-scratch evaluation. *)
let probe_matches =
  Test.make ~count ~name:"probe = evaluate from scratch"
    (Helpers.arbitrary_instance ())
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      let rng = Rng.derive seed [ 17 ] in
      let base = random_partial rng inst in
      let ck = O.Checker.create inst base in
      let horizon =
        (if Schedule.is_empty base then 0 else Schedule.max_time base) + 3
      in
      List.for_all
        (fun v ->
          List.for_all
            (fun t ->
              report_eq (O.Checker.probe ck v t)
                (O.evaluate inst (Schedule.add v t base)))
            [ 0; Rng.in_range rng 1 6; horizon ])
        (unscheduled inst base))

(* Repeating a probe (memoised) must return the identical report. *)
let probe_idempotent =
  Test.make ~count ~name:"repeated probe is stable"
    (Helpers.arbitrary_instance ())
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      let rng = Rng.derive seed [ 19 ] in
      let base = random_partial rng inst in
      let ck = O.Checker.create inst base in
      List.for_all
        (fun v ->
          let t = Rng.in_range rng 0 7 in
          let first = O.Checker.probe ck v t in
          report_eq first (O.Checker.probe ck v t))
        (unscheduled inst base))

(* Growing the base one commit at a time: after every commit the promoted
   report — and the cached [base_report] — must equal a from-scratch
   evaluation of the grown schedule, and subsequent probes must be
   differentially correct against the *new* base. *)
let commit_matches =
  Test.make ~count ~name:"commit sequence tracks evaluate"
    (Helpers.arbitrary_instance ())
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      let rng = Rng.derive seed [ 23 ] in
      let ck = O.Checker.create inst Schedule.empty in
      let _, ok =
        List.fold_left
          (fun (sched, ok) v ->
            let t = Rng.in_range rng 0 8 in
            let sched' = Schedule.add v t sched in
            let committed = O.Checker.commit ck v t in
            let scratch = O.evaluate inst sched' in
            ( sched',
              ok && report_eq committed scratch
              && report_eq (O.Checker.base_report ck) scratch
              && Schedule.equal (O.Checker.base ck) sched' ))
          (Schedule.empty, true)
          (Instance.switches_to_update inst)
      in
      ok)

(* Probing several flips at once (the branch-and-bound's last-step
   closure) must match evaluating them added together. *)
let probe_list_matches =
  Test.make ~count ~name:"probe_list = evaluate of joint schedule"
    (Helpers.arbitrary_instance ())
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      let rng = Rng.derive seed [ 29 ] in
      let base = random_partial rng inst in
      let ck = O.Checker.create inst base in
      match unscheduled inst base with
      | [] -> true
      | free ->
          let flips =
            List.filteri (fun i _ -> i < 3) free
            |> List.map (fun v -> (v, Rng.in_range rng 0 7))
          in
          report_eq
            (O.Checker.probe_list ck flips)
            (O.evaluate inst (add_all flips base)))

(* push/pop bracketing: pushes behave like commits, pops restore the
   saved base exactly (schedule, report, and differential correctness of
   probes issued after the pop). *)
let push_pop_matches =
  Test.make ~count ~name:"push/pop restores the base"
    (Helpers.arbitrary_instance ())
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      let rng = Rng.derive seed [ 31 ] in
      let base = random_partial rng inst in
      let ck = O.Checker.create inst base in
      let before = O.Checker.base_report ck in
      match unscheduled inst base with
      | [] -> true
      | v :: rest ->
          let tv = Rng.in_range rng 0 6 in
          let pushed = O.Checker.push ck v tv in
          let ok1 =
            report_eq pushed (O.evaluate inst (Schedule.add v tv base))
          in
          let ok2 =
            match rest with
            | [] -> true
            | w :: _ ->
                let tw = Rng.in_range rng 0 6 in
                let deep = O.Checker.push ck w tw in
                let good =
                  report_eq deep
                    (O.evaluate inst
                       (Schedule.add w tw (Schedule.add v tv base)))
                in
                O.Checker.pop ck;
                good
                && report_eq (O.Checker.base_report ck) pushed
                && Schedule.equal (O.Checker.base ck) (Schedule.add v tv base)
          in
          O.Checker.pop ck;
          let ok3 =
            report_eq (O.Checker.base_report ck) before
            && Schedule.equal (O.Checker.base ck) base
          in
          let ok4 =
            report_eq
              (O.Checker.probe ck v (tv + 1))
              (O.evaluate inst (Schedule.add v (tv + 1) base))
          in
          ok1 && ok2 && ok3 && ok4)

(* rebase drops all cached state and re-anchors on a fresh schedule. *)
let rebase_matches =
  Test.make ~count ~name:"rebase re-anchors the session"
    (Helpers.arbitrary_instance ())
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      let rng = Rng.derive seed [ 37 ] in
      let ck = O.Checker.create inst (random_partial rng inst) in
      let base' = random_partial rng inst in
      O.Checker.rebase ck base';
      report_eq (O.Checker.base_report ck) (O.evaluate inst base')
      && List.for_all
           (fun v ->
             let t = Rng.in_range rng 0 7 in
             report_eq (O.Checker.probe ck v t)
               (O.evaluate inst (Schedule.add v t base')))
           (unscheduled inst base'))

(* retarget re-points a pooled session at another instance over the same
   graph: afterwards the session must be indistinguishable from a fresh
   [create inst' Schedule.empty] — base report and probes alike — and
   retargeting back must restore the original judgements. The reverse
   move (p_init and p_fin swapped) is a genuinely different instance on
   the same physical graph, exactly the service pool's situation. *)
let retarget_matches =
  Test.make ~count ~name:"retarget = fresh create on the new instance"
    (Helpers.arbitrary_instance ())
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      let rng = Rng.derive seed [ 41 ] in
      let ck = O.Checker.create inst (random_partial rng inst) in
      let inst' =
        Instance.create ~graph:inst.Instance.graph
          ~demand:inst.Instance.demand ~p_init:inst.Instance.p_fin
          ~p_fin:inst.Instance.p_init
      in
      O.Checker.retarget ck inst';
      let fresh v t = O.evaluate inst' (Schedule.add v t Schedule.empty) in
      let ok1 =
        report_eq (O.Checker.base_report ck) (O.evaluate inst' Schedule.empty)
        && Schedule.is_empty (O.Checker.base ck)
        && List.for_all
             (fun v ->
               let t = Rng.in_range rng 0 7 in
               report_eq (O.Checker.probe ck v t) (fresh v t))
             (Instance.switches_to_update inst')
      in
      O.Checker.retarget ck inst;
      ok1
      && report_eq (O.Checker.base_report ck) (O.evaluate inst Schedule.empty)
      && List.for_all
           (fun v ->
             let t = Rng.in_range rng 0 7 in
             report_eq (O.Checker.probe ck v t)
               (O.evaluate inst (Schedule.add v t Schedule.empty)))
           (Instance.switches_to_update inst))

(* set_background swaps the cross-flow steady load under a session
   without re-tracing: reports must match a session created with that
   background from the start, on the base and on probes (cached and
   fresh alike). *)
let set_background_matches =
  Test.make ~count ~name:"set_background = fresh create with background"
    (Helpers.arbitrary_instance ())
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      let rng = Rng.derive seed [ 43 ] in
      let base = random_partial rng inst in
      let ck = O.Checker.create inst base in
      (* Populate the probe cache before the swap so reassembly covers
         cached simulations too. *)
      let probed =
        List.map
          (fun v -> (v, Rng.in_range rng 0 7))
          (unscheduled inst base)
      in
      List.iter (fun (v, t) -> ignore (O.Checker.probe ck v t)) probed;
      let bg u v = (u + (2 * v)) mod 2 in
      O.Checker.set_background ck bg;
      let ck' = O.Checker.create ~background:bg inst base in
      report_eq (O.Checker.base_report ck) (O.Checker.base_report ck')
      && List.for_all
           (fun (v, t) ->
             report_eq (O.Checker.probe ck v t) (O.Checker.probe ck' v t))
           probed)

(* The per-base verdict table must never answer across a base change. A
   random op sequence interleaves probes — most of them repeats of a flip
   already probed, on this base or an earlier one — with commits,
   push/pop, retarget, set_background and rebase; every probe, and every
   base report after a change, must equal a from-scratch evaluation
   against the session's current instance, background and base. *)
let verdict_table_invalidation =
  Test.make ~count ~name:"verdict table never outlives its base"
    (Helpers.arbitrary_instance ())
    (fun seed ->
      let inst = Helpers.instance_of_seed seed in
      let rng = Rng.derive seed [ 47 ] in
      let swapped =
        Instance.create ~graph:inst.Instance.graph
          ~demand:inst.Instance.demand ~p_init:inst.Instance.p_fin
          ~p_fin:inst.Instance.p_init
      in
      let backgrounds = [ (fun _ _ -> 0); (fun u v -> (u + (2 * v)) mod 2) ] in
      let ck = O.Checker.create inst Schedule.empty in
      let cur = ref inst and bg = ref (List.hd backgrounds) in
      let depth = ref 0 and seen = ref [] in
      let scratch sched = O.evaluate ~background:!bg !cur sched in
      let base_ok () =
        report_eq (O.Checker.base_report ck) (scratch (O.Checker.base ck))
      in
      (* A flip on the current base: usually one probed before. *)
      let pick_flip () =
        let base = O.Checker.base ck in
        match
          List.filter (fun (v, _) -> not (Schedule.mem v base)) !seen
        with
        | _ :: _ as old when Rng.int rng 4 > 0 -> Some (Rng.pick rng old)
        | _ -> (
            match unscheduled !cur base with
            | [] -> None
            | free -> Some (Rng.pick rng free, Rng.in_range rng 0 7))
      in
      let with_flip f =
        match pick_flip () with
        | None -> true
        | Some (v, t) ->
            let expected = scratch (Schedule.add v t (O.Checker.base ck)) in
            seen := (v, t) :: !seen;
            report_eq (f v t) expected
      in
      let step () =
        match Rng.int rng 10 with
        | 0 | 1 | 2 | 3 -> with_flip (O.Checker.probe ck)
        | 4 ->
            with_flip (fun v t ->
                incr depth;
                O.Checker.push ck v t)
            && base_ok ()
        (* Commits, retargets and background swaps need every frame
           popped first. *)
        | 5 | 6 | 7 | 8 when !depth > 0 ->
            decr depth;
            O.Checker.pop ck;
            base_ok ()
        | 5 -> with_flip (O.Checker.commit ck) && base_ok ()
        | 6 | 7 ->
            bg := Rng.pick rng backgrounds;
            O.Checker.set_background ck !bg;
            base_ok ()
        | 8 ->
            cur := if !cur == inst then swapped else inst;
            if Rng.bool rng then O.Checker.retarget ck !cur
            else begin
              bg := Rng.pick rng backgrounds;
              O.Checker.retarget ~background:!bg ck !cur
            end;
            base_ok ()
        | _ ->
            depth := 0;
            O.Checker.rebase ck (random_partial rng !cur);
            base_ok ()
      in
      let rec run k ok = if k = 0 then ok else run (k - 1) (step () && ok) in
      run 40 true)

(* A window with more link-steps than the checker's load table starts
   with (64 slots), so its grow path is compared against [evaluate] too:
   an 800-switch chain whose greedy plan, last flip held out, is the
   base. Probing that flip re-opens a window of cohorts that each enter
   hundreds of links. *)
let test_large_window () =
  let inst =
    Chronus_topo.Scenario.long_chain ~rng:(Rng.make 800)
      (Chronus_topo.Scenario.spec ~capacity_choices:[ 2 ] 800)
  in
  let flips =
    match Greedy.schedule ~mode:Greedy.Analytic inst with
    | Greedy.Scheduled s -> Schedule.to_list s
    | Greedy.Infeasible _ -> Alcotest.fail "800-switch chain infeasible"
  in
  let v, tv = List.nth flips (List.length flips - 1) in
  let base = add_all (List.filter (fun (w, _) -> w <> v) flips) Schedule.empty in
  let full = Schedule.add v tv base in
  let lo, hi = (O.evaluate inst full).O.window in
  Alcotest.(check bool) "a window cohort enters more than 64 links" true
    (hi > lo && List.length (O.trace inst full lo).O.visits > 65);
  let ck = O.Checker.create inst base in
  List.iter
    (fun t ->
      let expected = O.evaluate inst (Schedule.add v t base) in
      Alcotest.(check bool) "probe = evaluate" true
        (report_eq (O.Checker.probe ck v t) expected);
      Alcotest.(check bool) "repeated probe = evaluate" true
        (report_eq (O.Checker.probe ck v t) expected))
    [ tv; 0; 40 ];
  Alcotest.(check bool) "commit = evaluate" true
    (report_eq (O.Checker.commit ck v tv) (O.evaluate inst full))

(* --- Golden replays -----------------------------------------------------

   Schedules produced by the schedulers before the incremental oracle
   landed, dumped from the pre-change tree. The checker is a pure
   performance substrate: greedy, fallback and branch-and-bound must
   still produce these exact schedules. *)

let sched_t = Alcotest.(list (pair int int))

let greedy_exact inst =
  match Greedy.schedule ~mode:Greedy.Exact inst with
  | Greedy.Scheduled s -> `Scheduled (Schedule.to_list s)
  | Greedy.Infeasible { partial; remaining } ->
      `Infeasible (Schedule.to_list partial, remaining)

let golden_greedy =
  [
    (1, [ (1, 0); (2, 3); (3, 4); (4, 7) ]);
    (7, [ (0, 0); (3, 0); (1, 3); (4, 3); (5, 5); (2, 6) ]);
    (23, [ (1, 0); (3, 0); (2, 1); (4, 1); (5, 4) ]);
    (123, [ (0, 0); (3, 0); (1, 1); (2, 2); (4, 2); (5, 4); (6, 5) ]);
    (777, [ (1, 0); (0, 3); (2, 3) ]);
    (2024, [ (0, 0); (1, 1); (2, 3); (3, 5) ]);
    (4242, [ (0, 0); (1, 1) ]);
    (9001, [ (0, 0); (1, 0); (2, 3) ]);
    (31415, [ (2, 0); (3, 0); (4, 2); (5, 4) ]);
  ]

(* (seed, optimal makespan, search nodes explored). The node count pins
   the branch-and-bound trajectory, not just its answer: a refactor that
   reorders branches keeps the optimum but moves the count. *)
let golden_opt_makespan =
  [
    (1, 8, 3722); (7, 7, 33268); (23, 5, 1071); (123, 6, 45893);
    (777, 4, 125); (2024, 6, 929); (4242, 2, 4); (9001, 4, 88);
    (31415, 5, 794);
  ]

let test_golden_greedy () =
  (match greedy_exact (Helpers.fig1 ()) with
  | `Scheduled s ->
      Alcotest.check sched_t "fig1 greedy schedule unchanged"
        [ (2, 0); (1, 1); (3, 1); (4, 2); (5, 3) ]
        s
  | `Infeasible _ -> Alcotest.fail "fig1 unexpectedly infeasible");
  List.iter
    (fun (seed, golden) ->
      match greedy_exact (Helpers.instance_of_seed seed) with
      | `Scheduled s ->
          Alcotest.check sched_t
            (Printf.sprintf "seed %d greedy schedule unchanged" seed)
            golden s
      | `Infeasible _ ->
          Alcotest.failf "seed %d unexpectedly infeasible" seed)
    golden_greedy;
  (* The one infeasible seed: the partial schedule and leftovers are
     pinned too, as is the fallback's completion of them. *)
  match greedy_exact (Helpers.instance_of_seed 271828) with
  | `Scheduled _ -> Alcotest.fail "seed 271828 unexpectedly feasible"
  | `Infeasible (partial, remaining) ->
      Alcotest.check sched_t "seed 271828 partial unchanged"
        [ (2, 0); (3, 3); (4, 4) ]
        partial;
      Alcotest.(check (list int)) "seed 271828 remaining unchanged" [ 0; 1 ]
        remaining

let test_golden_fallback () =
  List.iter
    (fun (seed, golden) ->
      let { Fallback.schedule = s; clean } =
        Fallback.schedule (Helpers.instance_of_seed seed)
      in
      Alcotest.check sched_t
        (Printf.sprintf "seed %d fallback schedule unchanged" seed)
        golden (Schedule.to_list s);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d fallback clean" seed)
        true clean)
    golden_greedy;
  let { Fallback.schedule = s; clean } =
    Fallback.schedule (Helpers.instance_of_seed 271828)
  in
  Alcotest.check sched_t "seed 271828 fallback schedule unchanged"
    [ (2, 0); (3, 3); (4, 4); (0, 5); (1, 7) ]
    (Schedule.to_list s);
  Alcotest.(check bool) "seed 271828 fallback not clean" false clean

let test_golden_opt () =
  let fig1 = Opt.solve ~budget:200_000 ~timeout:10.0 (Helpers.fig1 ()) in
  (match fig1.Opt.outcome with
  | Opt.Optimal s ->
      Alcotest.check sched_t "fig1 optimal schedule unchanged"
        [ (2, 0); (1, 1); (3, 1); (4, 2); (5, 3) ]
        (Schedule.to_list s)
  | _ -> Alcotest.fail "fig1 no longer proved optimal");
  Alcotest.(check int) "fig1 nodes explored unchanged" 550
    fig1.Opt.nodes_explored;
  List.iter
    (fun (seed, golden, nodes) ->
      let r =
        Opt.solve ~budget:100_000 ~timeout:10.0
          (Helpers.instance_of_seed seed)
      in
      match r.Opt.outcome with
      | Opt.Optimal s ->
          Alcotest.(check int)
            (Printf.sprintf "seed %d optimal makespan unchanged" seed)
            golden (Schedule.makespan s);
          Alcotest.(check int)
            (Printf.sprintf "seed %d nodes explored unchanged" seed)
            nodes r.Opt.nodes_explored
      | _ -> Alcotest.failf "seed %d no longer proved optimal" seed)
    golden_opt_makespan;
  let r =
    Opt.solve ~budget:100_000 ~timeout:10.0 (Helpers.instance_of_seed 271828)
  in
  Alcotest.(check bool) "seed 271828 opt outcome unchanged" true
    (match r.Opt.outcome with
    | Opt.Unknown | Opt.Feasible _ -> true
    | Opt.Optimal _ | Opt.Infeasible -> false)

let suite =
  let name, qtests =
    Helpers.qsuite "oracle-incremental"
      [
        probe_matches;
        probe_idempotent;
        commit_matches;
        probe_list_matches;
        push_pop_matches;
        rebase_matches;
        retarget_matches;
        set_background_matches;
        verdict_table_invalidation;
      ]
  in
  ( name,
    qtests
    @ [
        Alcotest.test_case "verdict table on a large window" `Quick
          test_large_window;
        Alcotest.test_case "golden greedy schedules" `Quick test_golden_greedy;
        Alcotest.test_case "golden fallback schedules" `Quick
          test_golden_fallback;
        Alcotest.test_case "golden opt makespans" `Slow test_golden_opt;
      ] )
