(* Scale acceptance and golden replay.

   The golden digests below were captured from the seed (pre-indexed,
   pre-calendar) implementation and verified bit-identical against the
   rewrite: they pin the complete observable outcome of one run of each
   executor on the worked example, and of the tiny robustness grid. *)

module E = Chronus_experiments
open Chronus_exec
open Chronus_topo

let proj (r : Exec_env.result) =
  ( r.Exec_env.series,
    r.Exec_env.busiest,
    r.Exec_env.peak_mbps,
    r.Exec_env.congested_samples,
    r.Exec_env.peak_rules,
    r.Exec_env.loss_bytes,
    r.Exec_env.update_span,
    r.Exec_env.commands,
    r.Exec_env.violations )

let test_golden_fig1 () =
  let inst = Scenario.fig1_example () in
  let c = Timed_exec.run ~seed:1 inst in
  Alcotest.(check string) "timed executor digest"
    "517bc243add4b3fd5d9b92fd5ae5b7c2"
    (Helpers.dig
       ( proj c.Timed_exec.result,
         c.Timed_exec.schedule,
         c.Timed_exec.clean,
         c.Timed_exec.path,
         c.Timed_exec.retries,
         c.Timed_exec.unacked ));
  let tp = Two_phase_exec.run ~seed:1 inst in
  Alcotest.(check string) "two-phase executor digest"
    "e6c860f00e610f55803874babc3d851a"
    (Helpers.dig
       ( proj tp.Two_phase_exec.result,
         tp.Two_phase_exec.phase1_done,
         tp.Two_phase_exec.phase2_done,
         tp.Two_phase_exec.rules_installed ));
  let o = Order_exec.run ~seed:1 inst in
  Alcotest.(check string) "ordered executor digest"
    "bebc02a297341a3bc6610ba83cba439e"
    (Helpers.dig
       (proj o.Order_exec.result, o.Order_exec.rounds, o.Order_exec.optimal_rounds))

(* Captured before the monitor moved from hash tables to arrays. A fat-tree
   reroute ties the peaks of every path link across 64 (k = 4) and 216
   (k = 6, past two table resizes) sampled links, so these pin
   [busiest_link]'s tie-break on far more links than fig1's seven. *)
let test_golden_fat_tree_reroute () =
  List.iter
    (fun (k, expected) ->
      let inst = Scenario.fat_tree_reroute ~rng:(Rng.derive 4 [ 97 ]) k in
      let c = Timed_exec.run ~seed:1 inst in
      Alcotest.(check string)
        (Printf.sprintf "k = %d timed executor digest" k)
        expected
        (Helpers.dig (proj c.Timed_exec.result)))
    [
      (4, "791b32216ceb1947fd103e2e5ad77d4a");
      (6, "fd58ec34028d1c05da8a48c53c25ca21");
    ]

let test_golden_fig_robust () =
  let rows = E.Fig_robust.run ~jobs:1 ~scale:E.Scale.tiny () in
  Alcotest.(check string) "robustness grid digest"
    "0b80e9e893e44141c5e81738cffdba7e" (Helpers.dig rows)

(* The acceptance scenario: a fat-tree k=8 — 80 switches, >10k installed
   rules network-wide — completes a timed update end-to-end, cleanly. *)
let test_fat_tree_k8 () =
  let rows =
    E.Fig_scale.run ~jobs:2
      ~scale:{ E.Scale.tiny with E.Scale.topos = [ E.Fig_scale.Fat_tree 8 ] }
      ()
  in
  match rows with
  | [ r ] ->
      Alcotest.(check int) "switches" 80 r.E.Fig_scale.switches;
      Alcotest.(check bool) "at least 10k exact-equivalent rules" true
        (r.E.Fig_scale.rules_exact >= 10_000);
      Alcotest.(check bool) "compiled base is at least 4x smaller" true
        (r.E.Fig_scale.compression >= 4.);
      Alcotest.(check bool) "update completed" true
        (r.E.Fig_scale.chronus_span_s > 0.);
      Alcotest.(check bool) "tp completed" true (r.E.Fig_scale.tp_span_s > 0.);
      Alcotest.(check bool) "or completed" true (r.E.Fig_scale.or_span_s > 0.);
      Alcotest.(check bool) "no violations" true r.E.Fig_scale.chronus_clean;
      Alcotest.(check bool) "events dispatched" true (r.E.Fig_scale.events > 0)
  | rows ->
      Alcotest.failf "expected exactly one row, got %d" (List.length rows)

(* The ISSUE-9 acceptance scenario: a k=32 fat-tree — 1,280 switches,
   2.6M exact-equivalent rules — completes a clean timed update
   end-to-end with the compiled base at >= 4x compression. *)
let test_fat_tree_k32 () =
  let rows =
    E.Fig_scale.run ~jobs:1
      ~scale:{ E.Scale.tiny with E.Scale.topos = [ E.Fig_scale.Fat_tree 32 ] }
      ()
  in
  match rows with
  | [ r ] ->
      Alcotest.(check int) "switches" 1280 r.E.Fig_scale.switches;
      Alcotest.(check bool) "million-rule exact equivalent" true
        (r.E.Fig_scale.rules_exact >= 1_000_000);
      Alcotest.(check bool) "compiled base is at least 4x smaller" true
        (r.E.Fig_scale.compression >= 4.);
      Alcotest.(check bool) "update completed" true
        (r.E.Fig_scale.chronus_span_s > 0.);
      Alcotest.(check bool) "no violations" true r.E.Fig_scale.chronus_clean
  | rows ->
      Alcotest.failf "expected exactly one row, got %d" (List.length rows)

let test_fat_tree_reroute_disjoint () =
  let open Chronus_flow in
  for seed = 0 to 9 do
    let rng = Rng.derive seed [ 99 ] in
    let inst = Scenario.fat_tree_reroute ~rng 8 in
    let edges p = Chronus_graph.Path.edges p in
    let shared =
      List.filter
        (fun e -> List.mem e (edges inst.Instance.p_fin))
        (edges inst.Instance.p_init)
    in
    Alcotest.(check (list (pair int int))) "paths are link-disjoint" [] shared;
    Alcotest.(check int) "4-hop routes" 5 (List.length inst.Instance.p_init)
  done

let test_detour_on_wans () =
  let open Chronus_flow in
  let params = { Topology.capacity = 2; Topology.delay = 1 } in
  for seed = 0 to 9 do
    let rng = Rng.derive seed [ 98 ] in
    let g =
      if seed mod 2 = 0 then Topology.b4 ~params ()
      else Topology.wan ~params ~rng 12
    in
    let inst = Scenario.detour ~rng g in
    Alcotest.(check bool) "paths differ" true
      (inst.Instance.p_init <> inst.Instance.p_fin);
    Alcotest.(check bool) "detour avoids the failed link" true
      (match (inst.Instance.p_init, inst.Instance.p_fin) with
      | a :: b :: _, a' :: b' :: _ -> a = a' && b <> b'
      | _ -> false)
  done

let suite =
  ( "scale",
    [
      Alcotest.test_case "golden fig1 digests (seed-identical)" `Quick
        test_golden_fig1;
      Alcotest.test_case "golden fat-tree reroute digests" `Quick
        test_golden_fat_tree_reroute;
      Alcotest.test_case "golden fig_robust digest (seed-identical)" `Slow
        test_golden_fig_robust;
      Alcotest.test_case "fat-tree k=8 end-to-end" `Slow test_fat_tree_k8;
      Alcotest.test_case "fat-tree k=32 end-to-end (1,280 switches)" `Slow
        test_fat_tree_k32;
      Alcotest.test_case "fat-tree reroute is link-disjoint" `Quick
        test_fat_tree_reroute_disjoint;
      Alcotest.test_case "detour generator on B4/WAN" `Quick test_detour_on_wans;
    ] )
