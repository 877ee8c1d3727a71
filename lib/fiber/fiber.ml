module Obs = Chronus_obs.Obs

let c_spawns = Obs.Counter.v "fiber.spawns"
let c_switches = Obs.Counter.v "fiber.context_switches"
let c_cancels = Obs.Counter.v "fiber.cancellations"
let g_mailbox_depth = Obs.Gauge.v "fiber.mailbox_depth"

type time = int

exception Cancelled

type runtime = {
  rt_now : unit -> time;
  rt_schedule : time -> (unit -> unit) -> unit;
  mutable next_id : int;
  (* The two-batch ready queue: [current] is being drained (already
     sorted by fiber id), [batch] collects wakeups in reverse push
     order until [current] empties. *)
  mutable current : (int * (unit -> unit)) list;
  mutable batch : (int * (unit -> unit)) list;
  mutable draining : bool;
  mutable live : int;
  mutable peak_live : int;
  mutable spawned_total : int;
}

let runtime ~now ~schedule =
  {
    rt_now = now;
    rt_schedule = schedule;
    next_id = 0;
    current = [];
    batch = [];
    draining = false;
    live = 0;
    peak_live = 0;
    spawned_total = 0;
  }

type stats = { spawned : int; live : int; peak_live : int }

let stats rt =
  { spawned = rt.spawned_total; live = rt.live; peak_live = rt.peak_live }

let enqueue rt id thunk = rt.batch <- (id, thunk) :: rt.batch

let drain rt =
  if not rt.draining then begin
    rt.draining <- true;
    Fun.protect ~finally:(fun () -> rt.draining <- false) @@ fun () ->
    let rec loop () =
      match rt.current with
      | (_, thunk) :: rest ->
          rt.current <- rest;
          Obs.Counter.incr c_switches;
          thunk ();
          loop ()
      | [] ->
          if rt.batch <> [] then begin
            (* Stable, so several wakeups of one fiber (they cannot all
               resume it, only the first live one does) keep push order. *)
            rt.current <-
              List.stable_sort
                (fun (a, _) (b, _) -> Int.compare a b)
                (List.rev rt.batch);
            rt.batch <- [];
            loop ()
          end
    in
    loop ()
  end

(* A fiber's completion state. Waiters are stored LIFO and notified in
   registration order; each notification just enqueues a resume, so the
   ready queue's id sort decides actual wake order. *)
type 'a state = Running of (unit -> unit) list | Finished of ('a, exn) result

type 'a t = {
  fid : int;
  frt : runtime;
  mutable state : 'a state;
  mutable cancel_requested : bool;
  (* When suspended, how to break out of the suspension with
     [Cancelled]; the suspension's own waker is disarmed by the shared
     [fired] cell. *)
  mutable interrupt : (unit -> unit) option;
  mutable children : packed list;
}

and packed = Packed : 'a t -> packed

type 'a mailbox = {
  mb_q : 'a Queue.t;
  mutable mb_waiters : 'a waiter list; (* FIFO: appended at the tail *)
}

and 'a waiter = { w_fired : bool ref; w_deliver : 'a -> unit }

type _ Effect.t +=
  | Yield : unit Effect.t
  | Now : time Effect.t
  | Spawn : (unit -> 'a) -> 'a t Effect.t
  | Wait : 'a t -> ('a, exn) result Effect.t
  | Wait_until : time * 'a t -> ('a, exn) result option Effect.t
  | Sleep_until : time -> unit Effect.t
  | Recv : 'a mailbox -> 'a Effect.t
  | Recv_until : time * 'a mailbox -> 'a option Effect.t

let rec spawn_on : type a. runtime -> packed option -> (unit -> a) -> a t =
 fun rt parent body ->
  let fid = rt.next_id in
  rt.next_id <- fid + 1;
  rt.spawned_total <- rt.spawned_total + 1;
  rt.live <- rt.live + 1;
  if rt.live > rt.peak_live then rt.peak_live <- rt.live;
  Obs.Counter.incr c_spawns;
  let fb =
    {
      fid;
      frt = rt;
      state = Running [];
      cancel_requested = false;
      interrupt = None;
      children = [];
    }
  in
  (match parent with
  | Some (Packed p) -> p.children <- Packed fb :: p.children
  | None -> ());
  enqueue rt fid (fun () -> start fb body);
  fb

and start : type a. a t -> (unit -> a) -> unit =
 fun fb body ->
  if fb.cancel_requested then finish fb (Error Cancelled)
  else
    Effect.Deep.match_with body ()
      {
        Effect.Deep.retc = (fun v -> finish fb (Ok v));
        exnc = (fun e -> finish fb (Error e));
        effc = (fun (type b) (eff : b Effect.t) -> handle fb eff);
      }

and finish : type a. a t -> (a, exn) result -> unit =
 fun fb r ->
  match fb.state with
  | Finished _ -> ()
  | Running waiters ->
      fb.state <- Finished r;
      fb.frt.live <- fb.frt.live - 1;
      List.iter (fun w -> w ()) (List.rev waiters)

(* Every resume path funnels here: clear the interrupt (the suspension
   is over) and surface a cancellation requested while ready. *)
and resume : type a v. a t -> (v, unit) Effect.Deep.continuation -> v -> unit =
 fun fb k v ->
  fb.interrupt <- None;
  if fb.cancel_requested then Effect.Deep.discontinue k Cancelled
  else Effect.Deep.continue k v

and resume_cancelled :
      type a v. a t -> (v, unit) Effect.Deep.continuation -> unit =
 fun fb k ->
  fb.interrupt <- None;
  Effect.Deep.discontinue k Cancelled

and arm : type a v. a t -> bool ref -> (v, unit) Effect.Deep.continuation -> unit
    =
 fun fb fired k ->
  fb.interrupt <-
    Some
      (fun () ->
        if not !fired then begin
          fired := true;
          enqueue fb.frt fb.fid (fun () -> resume_cancelled fb k)
        end)

and handle :
      type a b. a t -> b Effect.t -> ((b, unit) Effect.Deep.continuation -> unit) option
    =
 fun fb eff ->
  let rt = fb.frt in
  match eff with
  | Yield ->
      Some
        (fun k ->
          if fb.cancel_requested then Effect.Deep.discontinue k Cancelled
          else enqueue rt fb.fid (fun () -> resume fb k ()))
  | Now -> Some (fun k -> Effect.Deep.continue k (rt.rt_now ()))
  | Spawn body ->
      Some
        (fun k ->
          if fb.cancel_requested then Effect.Deep.discontinue k Cancelled
          else Effect.Deep.continue k (spawn_on rt (Some (Packed fb)) body))
  | Wait target ->
      Some
        (fun k ->
          if fb.cancel_requested then Effect.Deep.discontinue k Cancelled
          else begin
            match target.state with
            | Finished r -> Effect.Deep.continue k r
            | Running waiters ->
                let fired = ref false in
                arm fb fired k;
                let wake () =
                  if not !fired then begin
                    fired := true;
                    enqueue rt fb.fid (fun () ->
                        match target.state with
                        | Finished r -> resume fb k r
                        | Running _ -> assert false)
                  end
                in
                target.state <- Running (wake :: waiters)
          end)
  | Wait_until (deadline, target) ->
      Some
        (fun k ->
          if fb.cancel_requested then Effect.Deep.discontinue k Cancelled
          else begin
            match target.state with
            | Finished r -> Effect.Deep.continue k (Some r)
            | Running waiters ->
                let fired = ref false in
                arm fb fired k;
                let wake () =
                  if not !fired then begin
                    fired := true;
                    enqueue rt fb.fid (fun () ->
                        match target.state with
                        | Finished r -> resume fb k (Some r)
                        | Running _ -> assert false)
                  end
                in
                target.state <- Running (wake :: waiters);
                rt.rt_schedule deadline (fun () ->
                    if not !fired then begin
                      fired := true;
                      enqueue rt fb.fid (fun () -> resume fb k None)
                    end)
          end)
  | Sleep_until deadline ->
      Some
        (fun k ->
          if fb.cancel_requested then Effect.Deep.discontinue k Cancelled
          else begin
            let fired = ref false in
            arm fb fired k;
            rt.rt_schedule deadline (fun () ->
                if not !fired then begin
                  fired := true;
                  enqueue rt fb.fid (fun () -> resume fb k ())
                end)
          end)
  | Recv mb ->
      Some
        (fun k ->
          if fb.cancel_requested then Effect.Deep.discontinue k Cancelled
          else if not (Queue.is_empty mb.mb_q) then
            Effect.Deep.continue k (Queue.pop mb.mb_q)
          else begin
            let fired = ref false in
            arm fb fired k;
            mb.mb_waiters <-
              mb.mb_waiters
              @ [
                  {
                    w_fired = fired;
                    w_deliver =
                      (fun v -> enqueue rt fb.fid (fun () -> resume fb k v));
                  };
                ]
          end)
  | Recv_until (deadline, mb) ->
      Some
        (fun k ->
          if fb.cancel_requested then Effect.Deep.discontinue k Cancelled
          else if not (Queue.is_empty mb.mb_q) then
            Effect.Deep.continue k (Some (Queue.pop mb.mb_q))
          else begin
            let fired = ref false in
            arm fb fired k;
            mb.mb_waiters <-
              mb.mb_waiters
              @ [
                  {
                    w_fired = fired;
                    w_deliver =
                      (fun v ->
                        enqueue rt fb.fid (fun () -> resume fb k (Some v)));
                  };
                ];
            rt.rt_schedule deadline (fun () ->
                if not !fired then begin
                  fired := true;
                  enqueue rt fb.fid (fun () -> resume fb k None)
                end)
          end)
  | _ -> None

let rec cancel : type a. a t -> unit =
 fun fb ->
  match fb.state with
  | Finished _ -> ()
  | Running _ ->
      if not fb.cancel_requested then begin
        fb.cancel_requested <- true;
        Obs.Counter.incr c_cancels;
        List.iter (fun (Packed c) -> cancel c) fb.children;
        match fb.interrupt with
        | Some f ->
            fb.interrupt <- None;
            f ()
        | None -> ()
      end

let spawn_root rt body = spawn_on rt None body
let spawn body = Effect.perform (Spawn body)
let yield () = Effect.perform Yield
let now () = Effect.perform Now
let id fb = fb.fid
let wait fb = Effect.perform (Wait fb)
let join fb = match wait fb with Ok v -> v | Error e -> raise e
let wait_until ~deadline fb = Effect.perform (Wait_until (deadline, fb))
let poll fb = match fb.state with Finished r -> Some r | Running _ -> None
let sleep_until t = Effect.perform (Sleep_until t)
let sleep d = sleep_until (now () + max 0 d)

let timeout_at deadline body =
  let fb = spawn body in
  match wait_until ~deadline fb with
  | Some (Ok v) -> Some v
  | Some (Error e) -> raise e
  | None ->
      cancel fb;
      None

module Mailbox = struct
  type 'a t = 'a mailbox

  let create (_ : runtime) = { mb_q = Queue.create (); mb_waiters = [] }

  let send mb v =
    (* Hand to the longest-waiting receiver that has not already been
       woken by a timeout or cancellation; dead waiters are dropped as
       they are skipped. *)
    let rec deliver = function
      | [] ->
          mb.mb_waiters <- [];
          Queue.push v mb.mb_q;
          Obs.Gauge.observe g_mailbox_depth (Queue.length mb.mb_q)
      | w :: rest ->
          if !(w.w_fired) then deliver rest
          else begin
            mb.mb_waiters <- rest;
            w.w_fired := true;
            w.w_deliver v
          end
    in
    deliver mb.mb_waiters

  let recv mb = Effect.perform (Recv mb)
  let recv_until ~deadline mb = Effect.perform (Recv_until (deadline, mb))

  let try_recv mb =
    if Queue.is_empty mb.mb_q then None else Some (Queue.pop mb.mb_q)

  let depth mb = Queue.length mb.mb_q
end
