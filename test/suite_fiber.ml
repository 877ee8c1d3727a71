(* The effects-based cooperative runtime: deterministic replay (same
   spawn order -> bit-identical trace, at any job count), the two-batch
   id-ordered scheduling discipline, mailbox FIFO delivery and timeouts,
   virtual-time sleep/timeout, structured cancellation cascading to
   children, and the heavy-traffic acceptance run — ten thousand live
   session fibers through one clean timed update on a k=16 fat-tree. *)

module Fiber = Chronus_fiber.Fiber
module Engine = Chronus_sim.Engine
module Sim_time = Chronus_sim.Sim_time
module Obs = Chronus_obs.Obs
module E = Chronus_experiments

(* ------------------------------------------------------------------ *)
(* Scheduling: ready fibers run in spawn-id order; yield defers to the
   next batch; the whole interleaving replays bit-identically. *)

(* A little concurrent program whose observable trace depends on every
   scheduler decision: fibers yield, sleep, and relay tokens through a
   shared mailbox. *)
let trace_program () =
  let engine = Engine.create () in
  let rt = Engine.fiber_runtime engine in
  let trace = ref [] in
  let say fmt = Printf.ksprintf (fun s -> trace := s :: !trace) fmt in
  let box = Fiber.Mailbox.create rt in
  for i = 0 to 4 do
    ignore
      (Fiber.spawn_root rt (fun () ->
           say "%d: start at %d" i (Fiber.now ());
           Fiber.yield ();
           say "%d: yielded" i;
           Fiber.sleep (Sim_time.msec (10 * (i + 1)));
           Fiber.Mailbox.send box i;
           say "%d: sent at %d" i (Fiber.now ()))
        : unit Fiber.t)
  done;
  ignore
    (Fiber.spawn_root rt (fun () ->
         for _ = 0 to 4 do
           let i = Fiber.Mailbox.recv box in
           say "collector: got %d at %d" i (Fiber.now ())
         done)
      : unit Fiber.t);
  Engine.run engine;
  List.rev !trace

let test_trace_deterministic () =
  let a = trace_program () in
  Alcotest.(check bool) "trace is non-trivial" true (List.length a > 15);
  Alcotest.(check string) "bit-identical replay" (Helpers.dig a)
    (Helpers.dig (trace_program ()))

let test_ready_order_by_id () =
  let engine = Engine.create () in
  let rt = Engine.fiber_runtime engine in
  let order = ref [] in
  (* Spawn in reverse announcement order: ids still dictate who runs
     first within the batch. *)
  let fibers =
    List.init 5 (fun i ->
        Fiber.spawn_root rt (fun () -> order := i :: !order))
  in
  ignore (fibers : unit Fiber.t list);
  Fiber.drain rt;
  Alcotest.(check (list int)) "id order" [ 0; 1; 2; 3; 4 ] (List.rev !order)

let test_yield_is_starvation_free () =
  let engine = Engine.create () in
  let rt = Engine.fiber_runtime engine in
  let log = ref [] in
  for i = 0 to 1 do
    ignore
      (Fiber.spawn_root rt (fun () ->
           for round = 0 to 2 do
             log := (i, round) :: !log;
             Fiber.yield ()
           done)
        : unit Fiber.t)
  done;
  Fiber.drain rt;
  (* Rounds interleave: both fibers complete round r before either
     starts round r+1. *)
  Alcotest.(check (list (pair int int)))
    "round-robin interleaving"
    [ (0, 0); (1, 0); (0, 1); (1, 1); (0, 2); (1, 2) ]
    (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Mailboxes. *)

let test_mailbox_fifo () =
  let engine = Engine.create () in
  let rt = Engine.fiber_runtime engine in
  let box = Fiber.Mailbox.create rt in
  let got = ref [] in
  List.iter (fun i -> Fiber.Mailbox.send box i) [ 1; 2; 3 ];
  Alcotest.(check int) "depth counts queued messages" 3
    (Fiber.Mailbox.depth box);
  ignore
    (Fiber.spawn_root rt (fun () ->
         for _ = 1 to 3 do
           got := Fiber.Mailbox.recv box :: !got
         done)
      : unit Fiber.t);
  Fiber.drain rt;
  Alcotest.(check (list int)) "FIFO order" [ 1; 2; 3 ] (List.rev !got);
  Alcotest.(check (option int)) "try_recv on empty" None
    (Fiber.Mailbox.try_recv box)

let test_mailbox_recv_until () =
  let engine = Engine.create () in
  let rt = Engine.fiber_runtime engine in
  let box = Fiber.Mailbox.create rt in
  let timed_out = ref None and late = ref None in
  ignore
    (Fiber.spawn_root rt (fun () ->
         timed_out := Some (Fiber.Mailbox.recv_until ~deadline:(Sim_time.msec 5) box);
         (* The message lands at 10 ms, after the first deadline but
            before the second. *)
         late := Some (Fiber.Mailbox.recv_until ~deadline:(Sim_time.msec 50) box))
      : unit Fiber.t);
  ignore
    (Fiber.spawn_root rt (fun () ->
         Fiber.sleep_until (Sim_time.msec 10);
         Fiber.Mailbox.send box 42)
      : unit Fiber.t);
  Engine.run engine;
  Alcotest.(check (option (option int))) "deadline passes empty-handed"
    (Some None) !timed_out;
  Alcotest.(check (option (option int))) "message beats second deadline"
    (Some (Some 42)) !late

(* ------------------------------------------------------------------ *)
(* Virtual time. *)

let test_sleep_and_timeout () =
  let engine = Engine.create () in
  let rt = Engine.fiber_runtime engine in
  let wake = ref (-1) and fast = ref None and slow = ref None in
  ignore
    (Fiber.spawn_root rt (fun () ->
         Fiber.sleep (Sim_time.msec 7);
         wake := Fiber.now ();
         (* A body that finishes before its budget. *)
         fast :=
           Fiber.timeout_at
             (Fiber.now () + Sim_time.msec 100)
             (fun () ->
               Fiber.sleep (Sim_time.msec 1);
               "done");
         (* A body that oversleeps its budget. *)
         slow :=
           Some
             (Fiber.timeout_at
                (Fiber.now () + Sim_time.msec 2)
                (fun () ->
                  Fiber.sleep (Sim_time.msec 50);
                  "never")))
      : unit Fiber.t);
  Engine.run engine;
  Alcotest.(check int) "sleep wakes at the virtual instant" (Sim_time.msec 7)
    !wake;
  Alcotest.(check (option string)) "fast body returns" (Some "done") !fast;
  Alcotest.(check (option (option string))) "slow body times out" (Some None)
    !slow

(* ------------------------------------------------------------------ *)
(* Join, poll, and structured cancellation. *)

let test_wait_and_poll () =
  let engine = Engine.create () in
  let rt = Engine.fiber_runtime engine in
  let child =
    Fiber.spawn_root rt (fun () ->
        Fiber.sleep (Sim_time.msec 3);
        41 + 1)
  in
  Alcotest.(check bool) "unfinished fiber polls None" true
    (Fiber.poll child = None);
  let joined = ref None in
  ignore
    (Fiber.spawn_root rt (fun () -> joined := Some (Fiber.join child))
      : unit Fiber.t);
  Engine.run engine;
  Alcotest.(check (option int)) "join returns the fiber's value" (Some 42)
    !joined;
  Alcotest.(check bool) "finished fiber polls its result" true
    (Fiber.poll child = Some (Ok 42))

let test_cancellation_cascades () =
  let engine = Engine.create () in
  let rt = Engine.fiber_runtime engine in
  let before = Obs.snapshot () in
  let child_state = ref `Running and parent_state = ref `Running in
  let parent =
    Fiber.spawn_root rt (fun () ->
        ignore
          (Fiber.spawn (fun () ->
               match Fiber.sleep (Sim_time.sec 10) with
               | () -> child_state := `Finished
               | exception Fiber.Cancelled ->
                   child_state := `Cancelled;
                   raise Fiber.Cancelled)
            : unit Fiber.t);
        match Fiber.sleep (Sim_time.sec 10) with
        | () -> parent_state := `Finished
        | exception Fiber.Cancelled ->
            parent_state := `Cancelled;
            raise Fiber.Cancelled)
  in
  Fiber.drain rt;
  Fiber.cancel parent;
  Fiber.drain rt;
  let state = Alcotest.testable Fmt.(any "state") ( = ) in
  Alcotest.check state "parent saw Cancelled at its sleep" `Cancelled
    !parent_state;
  Alcotest.check state "cancellation cascaded to the child" `Cancelled
    !child_state;
  Alcotest.(check bool) "the fiber resolved to Cancelled" true
    (match Fiber.poll parent with
    | Some (Error Fiber.Cancelled) -> true
    | _ -> false);
  let cancelled =
    match
      List.assoc_opt "fiber.cancellations" (Obs.diff before (Obs.snapshot ()))
    with
    | Some (Obs.Counter n) -> n
    | _ -> 0
  in
  Alcotest.(check bool) "fiber.cancellations counted both" true (cancelled >= 2)

(* ------------------------------------------------------------------ *)
(* The heavy-traffic figure's acceptance bar: >= 10,000 concurrent
   fibers through one clean timed update on a k=16 fat-tree. Its
   jobs-parity is one of the registry cases in suite_figures.ml. *)

let test_conns_ten_thousand () =
  match
    E.Fig_conns.run ~jobs:1
      ~scale:{ E.Scale.quick with E.Scale.conns = [ 10_000 ] }
      ()
  with
  | [ r ] ->
      Alcotest.(check bool) "k=16 fat-tree" true (r.E.Fig_conns.switches = 320);
      Alcotest.(check bool) "ten thousand concurrent fibers" true
        (r.E.Fig_conns.peak_fibers >= 10_000);
      Alcotest.(check bool) "the timed update completed cleanly" true
        r.E.Fig_conns.update_clean;
      Alcotest.(check bool) "sessions actually pinged" true
        (r.E.Fig_conns.pings > 10_000)
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

let suite =
  ( "fiber",
    [
      Alcotest.test_case "concurrent trace replays bit-identically" `Quick
        test_trace_deterministic;
      Alcotest.test_case "ready fibers run in spawn-id order" `Quick
        test_ready_order_by_id;
      Alcotest.test_case "yield round-robins the batch" `Quick
        test_yield_is_starvation_free;
      Alcotest.test_case "mailbox is FIFO; depth and try_recv" `Quick
        test_mailbox_fifo;
      Alcotest.test_case "recv_until times out and recovers" `Quick
        test_mailbox_recv_until;
      Alcotest.test_case "sleep and timeout_at on virtual time" `Quick
        test_sleep_and_timeout;
      Alcotest.test_case "wait, join and poll" `Quick test_wait_and_poll;
      Alcotest.test_case "cancellation cascades to children" `Quick
        test_cancellation_cascades;
      Alcotest.test_case "conns: 10k fibers, clean k=16 update" `Slow
        test_conns_ten_thousand;
    ] )
