module Pool = Chronus_parallel.Pool
module E = Chronus_experiments

let square x = x * x

let test_ordering () =
  let input = List.init 100 (fun i -> i - 50) in
  let expected = List.map square input in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "map order preserved at jobs=%d" jobs)
        expected
        (Pool.parallel_map ~jobs square input);
      Alcotest.(check (list int))
        (Printf.sprintf "chunked map order preserved at jobs=%d" jobs)
        expected
        (Pool.parallel_map ~jobs ~chunk:7 square input))
    [ 1; 2; 8 ]

let test_init () =
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "init matches List.init at jobs=%d" jobs)
        (List.init 33 square)
        (Pool.parallel_init ~jobs 33 square))
    [ 1; 2; 8 ]

let test_mapi () =
  Alcotest.(check (list int))
    "mapi passes positions" [ 10; 21; 32 ]
    (Pool.parallel_mapi ~jobs:2 (fun i x -> x + i) [ 10; 20; 30 ])

let test_edge_inputs () =
  List.iter
    (fun jobs ->
      Alcotest.(check (list int)) "empty input" []
        (Pool.parallel_map ~jobs square []);
      Alcotest.(check (list int)) "singleton input" [ 49 ]
        (Pool.parallel_map ~jobs square [ 7 ]);
      Alcotest.(check (list int)) "zero-length init" []
        (Pool.parallel_init ~jobs 0 square))
    [ 1; 2; 8 ]

let test_iter_runs_all () =
  let hits = Atomic.make 0 in
  Pool.parallel_iter ~jobs:4
    (fun _ -> Atomic.incr hits)
    (List.init 57 Fun.id);
  Alcotest.(check int) "every element visited" 57 (Atomic.get hits)

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "first failure re-raised at jobs=%d" jobs)
        (Failure "task-10")
        (fun () ->
          ignore
            (Pool.parallel_map ~jobs
               (fun i ->
                 if i >= 10 then failwith (Printf.sprintf "task-%d" i) else i)
               (List.init 100 Fun.id))))
    [ 1; 2; 8 ]

let test_exception_cancels () =
  (* Once a task fails, no chunk past the failure should start: with the
     failing task at position 0 and chunk 1, far fewer than all 200
     tasks run before the pool drains. Can't assert an exact count —
     workers legitimately finish chunks already claimed — but all-200
     would mean cancellation never happened. *)
  let started = Atomic.make 0 in
  (try
     Pool.parallel_iter ~jobs:2
       (fun i ->
         Atomic.incr started;
         if i = 0 then failwith "early")
       (List.init 200 Fun.id)
   with Failure _ -> ());
  Alcotest.(check bool) "later chunks cancelled" true
    (Atomic.get started < 200)

(* The pool is persistent: after a warm-up batch, further batches at the
   same (or a smaller) job count must not spawn any new domain. *)
let test_pool_reuse () =
  let input = List.init 64 Fun.id in
  let expected = List.map square input in
  ignore (Pool.parallel_map ~jobs:3 square input);
  let before = Pool.spawned_domains () in
  for _ = 1 to 5 do
    Alcotest.(check (list int))
      "warm batch correct" expected
      (Pool.parallel_map ~jobs:3 square input)
  done;
  Alcotest.(check int) "no new domains across batches" before
    (Pool.spawned_domains ());
  ignore (Pool.parallel_map ~jobs:2 square input);
  Alcotest.(check int) "smaller batches reuse parked workers" before
    (Pool.spawned_domains ())

let test_pool_reuse_after_failure () =
  ignore (Pool.parallel_map ~jobs:3 square (List.init 16 Fun.id));
  let before = Pool.spawned_domains () in
  (try
     ignore
       (Pool.parallel_map ~jobs:3
          (fun _ -> failwith "boom")
          (List.init 16 Fun.id))
   with Failure _ -> ());
  Alcotest.(check (list int))
    "pool survives a failing batch"
    (List.init 32 square)
    (Pool.parallel_map ~jobs:3 square (List.init 32 Fun.id));
  Alcotest.(check int) "no new domains after the failure" before
    (Pool.spawned_domains ())

(* A task that itself calls into the pool must not deadlock on the busy
   pool: nested submissions take the spawn-per-call fallback. *)
let test_nested_fallback () =
  let expected = List.init 8 square in
  let outer =
    Pool.parallel_map ~jobs:2
      (fun _ -> Pool.parallel_map ~jobs:2 square (List.init 8 Fun.id))
      (List.init 4 Fun.id)
  in
  List.iter
    (fun inner ->
      Alcotest.(check (list int)) "nested map correct" expected inner)
    outer

let test_jobs_env () =
  let saved = Sys.getenv_opt "CHRONUS_JOBS" in
  let restore () =
    Unix.putenv "CHRONUS_JOBS" (Option.value ~default:"1" saved)
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "CHRONUS_JOBS" "3";
      Alcotest.(check int) "CHRONUS_JOBS honoured" 3 (Pool.default_jobs ());
      Unix.putenv "CHRONUS_JOBS" "0";
      Alcotest.(check bool) "non-positive rejected" true
        (match Pool.default_jobs () with
        | exception Invalid_argument _ -> true
        | _ -> false))

(* Fanning the experiment trials out across domains changes nothing
   about the rows (every figure is checked at jobs 1 and 3 by the
   registry cases of suite_figures.ml) — and metrics observe, never
   branch: a traced parallel run still matches the untraced sequential
   fingerprint. *)
let test_experiments_equal () =
  let scale = E.Scale.tiny in
  let fingerprint v = Digest.string (Marshal.to_string v []) in
  let check name seq par =
    Alcotest.(check string)
      (name ^ " rows identical sequential vs parallel")
      (fingerprint seq) (fingerprint par)
  in
  let fig7_seq = E.Fig7.run ~jobs:1 ~scale () in
  let module Obs = Chronus_obs.Obs in
  let file = Filename.temp_file "chronus_parallel_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_path None;
      Sys.remove file)
    (fun () ->
      Obs.Trace.set_path (Some file);
      check "fig7 traced" fig7_seq (E.Fig7.run ~jobs:4 ~scale ()))

let suite =
  ( "parallel",
    [
      Alcotest.test_case "map ordering" `Quick test_ordering;
      Alcotest.test_case "init" `Quick test_init;
      Alcotest.test_case "mapi positions" `Quick test_mapi;
      Alcotest.test_case "empty and singleton" `Quick test_edge_inputs;
      Alcotest.test_case "iter visits all" `Quick test_iter_runs_all;
      Alcotest.test_case "exception re-raised" `Quick test_exception_propagates;
      Alcotest.test_case "exception cancels" `Quick test_exception_cancels;
      Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
      Alcotest.test_case "pool reuse after failure" `Quick
        test_pool_reuse_after_failure;
      Alcotest.test_case "nested call falls back" `Quick test_nested_fallback;
      Alcotest.test_case "CHRONUS_JOBS env" `Quick test_jobs_env;
      Alcotest.test_case "experiments identical at any jobs" `Slow
        test_experiments_equal;
    ] )
