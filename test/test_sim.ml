(* Tests for the discrete-event simulation substrate. *)

open Camelot_sim
module Heap = Engine.Heap

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iteri
    (fun i p -> Heap.push h ~priority:p ~seq:i p)
    [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let popped = List.init 5 (fun _ -> Option.get (Heap.pop h)) in
  Alcotest.(check (list (float 1e-9))) "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] popped

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iteri (fun i v -> Heap.push h ~priority:1.0 ~seq:i v) [ "a"; "b"; "c" ];
  let popped = List.init 3 (fun _ -> Option.get (Heap.pop h)) in
  Alcotest.(check (list string)) "insertion order" [ "a"; "b"; "c" ] popped

let test_heap_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check bool) "pop none" true (Heap.pop h = None)

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h ~priority:1.0 ~seq:0 ();
  Heap.clear h;
  Alcotest.(check int) "cleared" 0 (Heap.length h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun floats ->
      let h = Heap.create () in
      List.iteri (fun i p -> Heap.push h ~priority:p ~seq:i p) floats;
      let popped = List.init (List.length floats) (fun _ -> Option.get (Heap.pop h)) in
      popped = List.sort compare floats)

(* FasterHeaps-style invariant suite: every push/pop leaves a valid
   heap ([isheap] walks parent/child ordering and verifies
   vacated slots are cleared), and a full drain pops in exact
   [(priority, seq)] order — FIFO on ties. *)

let test_heap_isheap_incremental () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty is a heap" true (Heap.isheap h);
  List.iteri
    (fun i p ->
      Heap.push h ~priority:p ~seq:i p;
      Alcotest.(check bool)
        (Printf.sprintf "heap after push %d" i)
        true
        (Heap.isheap h))
    [ 9.0; 1.0; 8.0; 1.0; 7.0; 1.0; 6.0; 2.0; 5.0; 3.0; 4.0; 0.0 ];
  for i = 1 to 12 do
    ignore (Heap.pop_exn h : float);
    Alcotest.(check bool)
      (Printf.sprintf "heap after pop %d" i)
      true
      (Heap.isheap h)
  done

let test_heap_length_and_clear_reuse () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~priority:(float_of_int (9 - i)) ~seq:i i
  done;
  Alcotest.(check int) "length tracks pushes" 10 (Heap.length h);
  ignore (Heap.pop h : int option);
  Alcotest.(check int) "length tracks pops" 9 (Heap.length h);
  Heap.clear h;
  Alcotest.(check int) "clear empties" 0 (Heap.length h);
  Alcotest.(check bool) "clear leaves a valid heap" true (Heap.isheap h);
  (* a cleared heap is reusable *)
  Heap.push h ~priority:1.0 ~seq:0 7;
  Alcotest.(check (option int)) "reusable after clear" (Some 7) (Heap.pop h)

let test_heap_pop_exn_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.check_raises "pop_exn on empty" (Invalid_argument "Heap.pop_exn: empty")
    (fun () -> ignore (Heap.pop_exn h : int))

let test_heap_min_accessors () =
  let h = Heap.create () in
  Heap.push h ~priority:3.0 ~seq:5 "b";
  Heap.push h ~priority:1.0 ~seq:9 "a";
  check_float "min priority" 1.0 (Heap.min_priority h);
  Alcotest.(check bool) "min before a later time" true
    (Heap.min_before h ~priority:2.0 ~seq:0);
  Alcotest.(check bool) "min before a later seq" true
    (Heap.min_before h ~priority:1.0 ~seq:10);
  Alcotest.(check bool) "not before its own seq" false
    (Heap.min_before h ~priority:1.0 ~seq:9);
  Alcotest.(check bool) "not before an earlier time" false
    (Heap.min_before h ~priority:0.5 ~seq:100)

(* random interleavings of push and pop, checked move-for-move against
   a reference model: every pop must return exactly the minimum by
   [(priority, seq)] — FIFO on ties — and [isheap] must hold
   throughout. [Some p] pushes priority [p] (0..7, so ties are
   common), [None] pops. *)
let prop_heap_random_ops =
  QCheck.Test.make ~name:"heap matches reference model under random ops" ~count:300
    QCheck.(list (option (int_bound 7)))
    (fun ops ->
      let h = Heap.create () in
      let seq = ref 0 in
      let model = ref [] in
      let lt (p1, s1) (p2, s2) = p1 < p2 || (p1 = p2 && s1 < s2) in
      let model_pop () =
        match List.sort (fun a b -> if lt a b then -1 else 1) !model with
        | [] -> None
        | m :: _ ->
            model := List.filter (fun e -> e <> m) !model;
            Some m
      in
      let step op =
        (match op with
        | Some p ->
            let entry = (float_of_int p, !seq) in
            Heap.push h ~priority:(fst entry) ~seq:!seq entry;
            model := entry :: !model;
            incr seq
        | None ->
            if Heap.pop h <> model_pop () then
              QCheck.Test.fail_report "pop disagrees with reference model");
        if Heap.length h <> List.length !model then
          QCheck.Test.fail_report "length disagrees with reference model";
        if not (Heap.isheap h) then
          QCheck.Test.fail_report "isheap violated"
      in
      List.iter step ops;
      (* drain: the remaining contents come out in exact model order *)
      List.iter (fun _ -> step None) !model;
      Heap.is_empty h)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_time_ordering () =
  let eng = Engine.create () in
  let order = ref [] in
  Engine.schedule eng ~delay:5.0 (fun () -> order := 5 :: !order);
  Engine.schedule eng ~delay:1.0 (fun () -> order := 1 :: !order);
  Engine.schedule eng ~delay:3.0 (fun () -> order := 3 :: !order);
  Engine.run eng;
  Alcotest.(check (list int)) "time order" [ 1; 3; 5 ] (List.rev !order);
  check_float "clock at last event" 5.0 (Engine.now eng)

let test_engine_until () =
  let eng = Engine.create () in
  let ran = ref 0 in
  Engine.schedule eng ~delay:1.0 (fun () -> incr ran);
  Engine.schedule eng ~delay:10.0 (fun () -> incr ran);
  Engine.run ~until:5.0 eng;
  Alcotest.(check int) "only first ran" 1 !ran;
  check_float "clock advanced to limit" 5.0 (Engine.now eng);
  Alcotest.(check int) "one pending" 1 (Engine.pending eng)

let test_engine_nested_schedule () =
  let eng = Engine.create () in
  let finish = ref 0.0 in
  Engine.schedule eng ~delay:2.0 (fun () ->
      Engine.schedule eng ~delay:3.0 (fun () -> finish := Engine.now eng));
  Engine.run eng;
  check_float "relative delay" 5.0 !finish

let test_engine_negative_delay () =
  let eng = Engine.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> Engine.schedule eng ~delay:(-1.0) (fun () -> ()))

let test_engine_schedule_at_past_clamps () =
  let eng = Engine.create () in
  let ran_at = ref (-1.0) in
  Engine.schedule eng ~delay:10.0 (fun () ->
      (* scheduling into the past runs at the current time instead *)
      Engine.schedule_at eng ~time:3.0 (fun () -> ran_at := Engine.now eng));
  Engine.run eng;
  check_float "clamped to now" 10.0 !ran_at

let test_engine_executed_counter () =
  let eng = Engine.create () in
  for i = 1 to 5 do
    Engine.schedule eng ~delay:(float_of_int i) (fun () -> ())
  done;
  Engine.run eng;
  Alcotest.(check int) "five events executed" 5 (Engine.executed eng)

let test_engine_cancel_timer () =
  let eng = Engine.create () in
  let ran = ref [] in
  let timer = Engine.schedule_timer eng ~delay:5.0 (fun () -> ran := "t5" :: !ran) in
  Engine.schedule eng ~delay:10.0 (fun () -> ran := "e10" :: !ran);
  Alcotest.(check int) "both pending" 2 (Engine.pending eng);
  Engine.cancel eng timer;
  Alcotest.(check int) "cancelled timer leaves pending" 1 (Engine.pending eng);
  Engine.cancel eng timer;
  (* idempotent *)
  Alcotest.(check int) "double cancel is a no-op" 1 (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check (list string)) "only the live event ran" [ "e10" ] (List.rev !ran);
  Alcotest.(check int) "cancelled timers are not executed" 1 (Engine.executed eng)

let test_engine_timer_fires_then_cancel_noop () =
  let eng = Engine.create () in
  let fired = ref 0 in
  let timer = Engine.schedule_timer eng ~delay:1.0 (fun () -> incr fired) in
  Engine.run eng;
  Alcotest.(check int) "fired once" 1 !fired;
  Engine.cancel eng timer;
  (* cancelling after the fact must not corrupt queue accounting *)
  Alcotest.(check int) "nothing pending" 0 (Engine.pending eng);
  Engine.schedule eng ~delay:1.0 (fun () -> ());
  Alcotest.(check int) "fresh event counted" 1 (Engine.pending eng);
  Engine.run eng

let test_engine_cancel_heavy_drains () =
  let eng = Engine.create () in
  let survivors = ref 0 in
  for i = 1 to 100 do
    let timer =
      Engine.schedule_timer eng ~delay:(float_of_int i) (fun () -> incr survivors)
    in
    if i mod 5 <> 0 then Engine.cancel eng timer
  done;
  Alcotest.(check int) "pending excludes tombstones" 20 (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check int) "survivors all ran" 20 !survivors;
  Alcotest.(check int) "executed counts only live timers" 20 (Engine.executed eng);
  Alcotest.(check int) "queue fully drained" 0 (Engine.pending eng)

let test_engine_zero_delay_fifo_vs_heap () =
  (* the same-instant fast path must not jump ahead of an older event
     sitting in the heap at the same timestamp: A (t=5, seq 0) runs and
     schedules C with delay 0 (t=5, seq 2); B (t=5, seq 1) must still
     run before C *)
  let eng = Engine.create () in
  let order = ref [] in
  Engine.schedule eng ~delay:5.0 (fun () ->
      order := "A" :: !order;
      Engine.schedule eng ~delay:0.0 (fun () -> order := "C" :: !order));
  Engine.schedule eng ~delay:5.0 (fun () -> order := "B" :: !order);
  Engine.run eng;
  Alcotest.(check (list string)) "global (time, seq) order" [ "A"; "B"; "C" ]
    (List.rev !order)

let test_engine_zero_delay_storm () =
  let eng = Engine.create () in
  let ran = ref 0 in
  let rec chain n () =
    if n > 0 then begin
      incr ran;
      Engine.schedule eng ~delay:0.0 (chain (n - 1))
    end
  in
  Engine.schedule eng ~delay:3.0 (chain 500);
  Engine.run eng;
  Alcotest.(check int) "whole chain ran" 500 !ran;
  check_float "clock pinned at the instant" 3.0 (Engine.now eng)

let test_engine_zero_delay_fifo_among_themselves () =
  let eng = Engine.create () in
  let order = ref [] in
  for i = 1 to 50 do
    Engine.schedule eng ~delay:0.0 (fun () -> order := i :: !order)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "insertion order" (List.init 50 (fun i -> i + 1))
    (List.rev !order)

(* randomized schedule/cancel sequences against a reference model of
   the (time, seq) total order — validates the heap/ring merge *)
let prop_engine_order_matches_model =
  (* each element: (delay in 0..4, cancelled?) — delay 0 exercises the
     ring lane, small range forces same-time collisions *)
  QCheck.Test.make ~name:"engine executes in (time, seq) order under cancels"
    ~count:200
    QCheck.(list (pair (int_bound 4) bool))
    (fun specs ->
      let eng = Engine.create () in
      let ran = ref [] in
      let expected = ref [] in
      List.iteri
        (fun i (d, cancelled) ->
          let delay = float_of_int d in
          if cancelled then
            let timer = Engine.schedule_timer eng ~delay (fun () -> ran := i :: !ran) in
            Engine.cancel eng timer
          else begin
            Engine.schedule eng ~delay (fun () -> ran := i :: !ran);
            expected := (delay, i) :: !expected
          end)
        specs;
      Engine.run eng;
      let model =
        List.sort
          (fun (t1, s1) (t2, s2) -> compare (t1, s1) (t2, s2))
          !expected
      in
      List.rev !ran = List.map snd model)

(* The pending/tombstone invariant, ring lane: a cancelled zero-delay
   timer leaves its tombstone in the FIFO ring, not the timed queue —
   [pending] must exclude it there too, and draining must not count it
   as executed. *)
let test_engine_pending_ring_tombstone () =
  let eng = Engine.create () in
  Engine.schedule eng ~delay:1.0 (fun () ->
      let timer = Engine.schedule_timer eng ~delay:0.0 (fun () -> ()) in
      Engine.schedule eng ~delay:0.0 (fun () -> ());
      Engine.cancel eng timer;
      Alcotest.(check int) "ring tombstone excluded" 1 (Engine.pending eng));
  Engine.run eng;
  Alcotest.(check int) "tombstone not executed" 2 (Engine.executed eng);
  Alcotest.(check int) "drained" 0 (Engine.pending eng)

(* The pending/tombstone invariant across [run ~until]: a tombstone
   stranded beyond the limit stays buried with [dead] still counting
   it, so [pending] is correct before, between and after the runs. *)
let test_engine_pending_tombstone_beyond_until () =
  let eng = Engine.create () in
  let timer = Engine.schedule_timer eng ~delay:10.0 (fun () -> ()) in
  Engine.schedule eng ~delay:2.0 (fun () -> ());
  Engine.cancel eng timer;
  Alcotest.(check int) "cancelled before run" 1 (Engine.pending eng);
  Engine.run ~until:5.0 eng;
  Alcotest.(check int) "tombstone past limit stays excluded" 0 (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check int) "still zero after the drain" 0 (Engine.pending eng);
  Alcotest.(check int) "only the live event executed" 1 (Engine.executed eng)

(* Timers that act from inside their own callbacks: each spec arms a
   timer that, when it fires, cancels a sibling and may re-arm a
   follow-up, sometimes at delay 0 (the ring lane). [engine_trace] runs
   the workload on the engine, [model_trace] on a sorted list of
   [(time, seq)] entries — the total order the engine promises. Both
   return the execution log [(time, id)], a follow-up of timer [i]
   logged as [-1 - i]. *)
let follow_up_delay i = if i mod 3 = 0 then 0.0 else float_of_int (i mod 7)

let engine_trace specs =
  let eng = Engine.create () in
  let log = ref [] in
  let timers = Hashtbl.create 16 in
  List.iteri
    (fun i (d10, cancel_at, chain) ->
      let timer =
        Engine.schedule_timer eng ~delay:(float_of_int d10 /. 4.0) (fun () ->
            log := (Engine.now eng, i) :: !log;
            (match Hashtbl.find_opt timers cancel_at with
            | Some tm -> Engine.cancel eng tm
            | None -> ());
            if chain then
              Engine.schedule eng ~delay:(follow_up_delay i) (fun () ->
                  log := (Engine.now eng, -1 - i) :: !log))
      in
      Hashtbl.replace timers i timer)
    specs;
  Engine.run eng;
  List.rev !log

type model_event = Fire of int | Follow_up of int

let model_trace specs =
  let specs = Array.of_list specs in
  (* every spec is armed before the run, so timer [i] holds seq [i] *)
  let pending =
    ref
      (List.sort compare
         (List.init (Array.length specs) (fun i ->
              let d10, _, _ = specs.(i) in
              (float_of_int d10 /. 4.0, i, Fire i))))
  in
  let next_seq = ref (Array.length specs) in
  (* a new entry has the largest seq yet: it goes after every entry
     with the same or an earlier time *)
  let rec insert ((time, _, _) as e) = function
    | ((t, _, _) as x) :: rest when t <= time -> x :: insert e rest
    | l -> e :: l
  in
  let cancelled = Hashtbl.create 16 in
  let log = ref [] in
  let rec loop () =
    match !pending with
    | [] -> ()
    | (time, _, ev) :: rest ->
        pending := rest;
        (match ev with
        | Follow_up i -> log := (time, -1 - i) :: !log
        | Fire i when Hashtbl.mem cancelled i -> ()
        | Fire i ->
            log := (time, i) :: !log;
            let _, cancel_at, chain = specs.(i) in
            Hashtbl.replace cancelled cancel_at ();
            if chain then begin
              let e = (time +. follow_up_delay i, !next_seq, Follow_up i) in
              pending := insert e !pending;
              incr next_seq
            end);
        loop ()
  in
  loop ();
  List.rev !log

(* Replay failures with CAMELOT_SEED=<printed seed>. *)
let prop_engine_rearm_matches_model =
  QCheck.Test.make
    ~name:"cancel/re-arm in callbacks matches model" ~count:300
    QCheck.(list (triple (int_bound 60) (int_bound 19) bool))
    (fun specs -> engine_trace specs = model_trace specs)

(* ------------------------------------------------------------------ *)
(* Fiber *)

let test_fiber_sleep () =
  let eng = Engine.create () in
  let result =
    Fiber.run eng (fun () ->
        Fiber.sleep 10.0;
        Fiber.sleep 5.0;
        Fiber.now ())
  in
  check_float "slept 15ms" 15.0 result

let test_fiber_interleaving () =
  let eng = Engine.create () in
  let log = ref [] in
  Fiber.spawn eng (fun () ->
      Fiber.sleep 1.0;
      log := "a1" :: !log;
      Fiber.sleep 2.0;
      log := "a2" :: !log);
  Fiber.spawn eng (fun () ->
      Fiber.sleep 2.0;
      log := "b1" :: !log);
  Engine.run eng;
  Alcotest.(check (list string)) "interleaved" [ "a1"; "b1"; "a2" ] (List.rev !log)

let test_fiber_group_kill () =
  let eng = Engine.create () in
  let group = Fiber.Group.create () in
  let progressed = ref false in
  let cancelled = ref false in
  Fiber.spawn eng ~group (fun () ->
      (try Fiber.sleep 100.0 with
      | Fiber.Cancelled as e ->
          cancelled := true;
          raise e);
      progressed := true);
  Engine.schedule eng ~delay:10.0 (fun () -> Fiber.Group.kill group);
  Engine.run eng;
  Alcotest.(check bool) "cancelled" true !cancelled;
  Alcotest.(check bool) "did not progress" false !progressed

let test_fiber_group_kill_prevents_start () =
  let eng = Engine.create () in
  let group = Fiber.Group.create () in
  let started = ref false in
  Fiber.Group.kill group;
  Fiber.spawn eng ~group (fun () -> started := true);
  Engine.run eng;
  Alcotest.(check bool) "not started" false !started

(* A kill runs each registered hook once, in registration order, and
   never one withdrawn first. The group's own blocked fibers are
   cancelled before any hook runs: a member waiting on a reply that a
   hook would send (a TranMan request from the crashing site) dies of
   [Cancelled], not of the reply. *)
let test_fiber_group_kill_hook_order () =
  let eng = Engine.create () in
  let group = Fiber.Group.create () in
  let ran = ref [] in
  let waiting = ref None in
  ignore
    (Fiber.Group.register group (fun () ->
         ran := 0 :: !ran;
         Option.iter (fun r -> Fiber.resume r (Ok ())) !waiting)
      : Fiber.Group.handle);
  let handles =
    List.map
      (fun i -> Fiber.Group.register group (fun () -> ran := i :: !ran))
      [ 1; 2; 3; 4; 5; 6; 7 ]
  in
  List.iteri
    (fun i h ->
      if i = 2 || i = 5 then begin
        Fiber.Group.unregister h;
        Fiber.Group.unregister h
      end)
    handles;
  let member = ref "blocked" in
  Fiber.spawn eng ~group (fun () ->
      match Fiber.suspend (fun r -> waiting := Some r) with
      | () -> member := "replied"
      | exception Fiber.Cancelled -> member := "cancelled");
  Engine.schedule eng ~delay:1.0 (fun () ->
      Fiber.Group.kill group;
      Fiber.Group.kill group);
  Engine.run eng;
  Alcotest.(check (list int)) "each hook once, in order" [ 0; 1; 2; 4; 5; 7 ] (List.rev !ran);
  Alcotest.(check string) "member" "cancelled" !member

(* An exception leaving a fiber body is never swallowed: it stops the
   engine as [Fiber.Died], naming the fiber. [Fiber.run] re-raises its
   main fiber's own exception as it is. *)
let test_fiber_exception_escapes () =
  let eng = Engine.create () in
  let later = ref false in
  Fiber.spawn eng ~name:"doomed" (fun () -> failwith "boom");
  Fiber.spawn eng (fun () ->
      Fiber.sleep 1.0;
      later := true);
  (match Engine.run eng with
  | () -> Alcotest.fail "fiber exception swallowed"
  | exception Fiber.Died (name, Failure msg) ->
      Alcotest.(check string) "fiber named" "doomed" name;
      Alcotest.(check string) "exn carried" "boom" msg);
  Alcotest.(check bool) "the engine stopped at the raise" false !later;
  Alcotest.check_raises "main fiber's own exception unwrapped" (Failure "main")
    (fun () -> Fiber.run (Engine.create ()) (fun () -> failwith "main"))

(* A [suspend] registration runs in the effect handler, outside the
   fiber, yet what it raises kills the fiber it was suspending: it
   escapes as [Died] naming that fiber, the wait leaves the fiber's
   group (a later kill finds nothing to cancel), and a wait the
   registration already resumed dies of the exception when its
   resumption runs, not twice. *)
let test_fiber_registration_raise () =
  let died_of eng =
    match Engine.run eng with
    | () -> Alcotest.fail "registration exception swallowed"
    | exception Fiber.Died (name, Failure msg) -> (name, msg)
  in
  let eng = Engine.create () in
  let group = Fiber.Group.create () in
  Fiber.spawn eng ~group ~name:"registrar" (fun () ->
      Fiber.suspend (fun (_ : unit Fiber.resumer) -> failwith "refused"));
  Alcotest.(check (pair string string))
    "dies as its fiber" ("registrar", "refused") (died_of eng);
  Fiber.Group.kill group;
  Engine.run eng;
  Alcotest.(check int) "the dead wait left its group" 0 (Engine.pending eng);
  let eng = Engine.create () in
  Fiber.spawn eng ~name:"resumed" (fun () ->
      Fiber.suspend (fun r ->
          Fiber.resume r (Ok ());
          failwith "late"));
  Alcotest.(check (pair string string))
    "an already resumed wait dies once" ("resumed", "late") (died_of eng);
  Engine.run eng;
  Alcotest.(check int) "nothing left to run" 0 (Engine.pending eng)

let test_fiber_run_deadlock () =
  let eng = Engine.create () in
  Alcotest.check_raises "deadlock detected"
    (Failure "Fiber.run: main fiber blocked forever (deadlock)") (fun () ->
      Fiber.run eng (fun () -> Fiber.suspend (fun (_ : unit Fiber.resumer) -> ())))

let test_fiber_suspend_resume () =
  let eng = Engine.create () in
  let resumer = ref None in
  Engine.schedule eng ~delay:7.0 (fun () ->
      match !resumer with Some r -> Fiber.resume r (Ok 42) | None -> ());
  let result =
    Fiber.run eng (fun () -> Fiber.suspend (fun r -> resumer := Some r))
  in
  Alcotest.(check int) "resumed with value" 42 result

(* A fiber wait may sit in the queue twice at one instant: its expiry,
   stale once a kill has resumed it, and the resumption the kill
   queued. An event at the wake-up instant, ordered before the expiry,
   queues X and then kills the group. The stale expiry must do nothing
   (though it counts as executed), so X runs before the fiber raises
   [Cancelled], which it does once. [block] is how the fiber waits;
   [arm eng event] queues the killing event so that it runs just before
   the fiber's expiry. *)
let kill_at_wake_up_instant ~block ~arm () =
  let eng = Engine.create () in
  let group = Fiber.Group.create () in
  let log = ref [] in
  let event () =
    Engine.schedule eng ~delay:0.0 (fun () -> log := "X" :: !log);
    Fiber.Group.kill group
  in
  Fiber.spawn eng ~group (fun () ->
      match block () with
      | () -> log := "woke" :: !log
      | exception Fiber.Cancelled -> log := "cancelled" :: !log);
  arm eng event;
  Engine.run eng;
  Alcotest.(check (list string))
    "X, then one Cancelled" [ "X"; "cancelled" ] (List.rev !log);
  (* the fiber's start, the event, the stale expiry, X, the resumption *)
  Alcotest.(check int) "stale expiry counted" 5 (Engine.executed eng)

let test_fiber_kill_at_sleep_wake_up =
  kill_at_wake_up_instant
    ~block:(fun () -> Fiber.sleep 5.0)
    ~arm:(fun eng event ->
      (* queued after the fiber's start but before it sleeps: its
         sequence number is below the expiry's *)
      Engine.schedule eng ~delay:5.0 event)

let test_fiber_kill_at_yield_wake_up =
  kill_at_wake_up_instant ~block:Fiber.yield ~arm:(fun eng event ->
      Engine.schedule eng ~delay:0.0 event)

(* ------------------------------------------------------------------ *)
(* Mailbox *)

let test_mailbox_fifo () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let received = ref [] in
  Fiber.spawn eng (fun () ->
      for _ = 1 to 3 do
        received := Mailbox.recv mb :: !received
      done);
  Fiber.spawn eng (fun () ->
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      Fiber.sleep 5.0;
      Mailbox.send mb 3);
  Engine.run eng;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !received)

let test_mailbox_timeout_expires () =
  let eng = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create eng in
  let result =
    Fiber.run eng (fun () ->
        let r = Mailbox.recv_timeout mb 10.0 in
        (r, Fiber.now ()))
  in
  Alcotest.(check (option int)) "timed out" None (fst result);
  check_float "waited full timeout" 10.0 (snd result)

let test_mailbox_timeout_delivery () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  Engine.schedule eng ~delay:3.0 (fun () -> Mailbox.send mb "hi");
  let result = Fiber.run eng (fun () -> Mailbox.recv_timeout mb 10.0) in
  Alcotest.(check (option string)) "delivered" (Some "hi") result

let test_mailbox_timeout_then_send_queues () =
  (* After a receive times out, a later send must queue the message, not
     deliver it to the dead waiter. *)
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let outcome =
    Fiber.run eng (fun () ->
        let first = Mailbox.recv_timeout mb 5.0 in
        Mailbox.send mb 99;
        (first, Mailbox.try_recv mb))
  in
  Alcotest.(check (pair (option int) (option int)))
    "message queued after timeout" (None, Some 99) outcome

(* A timed receive whose delay the engine rejects dies without leaving
   its waiter behind: the next receiver still gets the next message
   and keeps its own timeout. *)
let test_mailbox_rejected_timeout_leaves_no_waiter () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  Fiber.spawn eng ~name:"rejected" (fun () ->
      ignore (Mailbox.recv_timeout mb (-1.0) : int option));
  (match Engine.run eng with
  | () -> Alcotest.fail "negative delay accepted"
  | exception Fiber.Died ("rejected", Invalid_argument _) -> ());
  let got = ref [] in
  Fiber.spawn eng (fun () ->
      got := Mailbox.recv_timeout mb 10.0 :: !got;
      got := Mailbox.recv_timeout mb 10.0 :: !got);
  Engine.schedule eng ~delay:1.0 (fun () -> Mailbox.send mb 7);
  Engine.run eng;
  Alcotest.(check (list (option int)))
    "delivered, then timed out" [ Some 7; None ] (List.rev !got)

let test_mailbox_waiters_count () =
  let eng = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create eng in
  Fiber.spawn eng (fun () -> ignore (Mailbox.recv mb : int));
  Fiber.spawn eng (fun () -> ignore (Mailbox.recv mb : int));
  Engine.run ~until:1.0 eng;
  Alcotest.(check int) "two waiters" 2 (Mailbox.waiters mb);
  Mailbox.send mb 0;
  Engine.run ~until:2.0 eng;
  Alcotest.(check int) "one waiter" 1 (Mailbox.waiters mb)

(* ------------------------------------------------------------------ *)
(* Sync *)

let test_mutex_exclusion () =
  let eng = Engine.create () in
  let m = Sync.Mutex.create () in
  let log = ref [] in
  let worker name =
    Fiber.spawn eng (fun () ->
        Sync.Mutex.lock m;
        log := (name ^ ":in") :: !log;
        Fiber.sleep 10.0;
        log := (name ^ ":out") :: !log;
        Sync.Mutex.unlock m)
  in
  worker "a";
  worker "b";
  Engine.run eng;
  Alcotest.(check (list string))
    "critical sections do not overlap"
    [ "a:in"; "a:out"; "b:in"; "b:out" ]
    (List.rev !log)

let test_mutex_unlock_unlocked () =
  let m = Sync.Mutex.create () in
  Alcotest.check_raises "unlock unheld"
    (Invalid_argument "Sync.Mutex.unlock: not locked") (fun () ->
      Sync.Mutex.unlock m)

let test_semaphore_limits () =
  let eng = Engine.create () in
  let sem = Sync.Semaphore.create 2 in
  let active = ref 0 in
  let max_active = ref 0 in
  for _ = 1 to 5 do
    Fiber.spawn eng (fun () ->
        Sync.Semaphore.acquire sem;
        incr active;
        if !active > !max_active then max_active := !active;
        Fiber.sleep 10.0;
        decr active;
        Sync.Semaphore.release sem)
  done;
  Engine.run eng;
  Alcotest.(check int) "at most 2 concurrent" 2 !max_active

let test_resource_fcfs () =
  let eng = Engine.create () in
  let r = Sync.Resource.create eng in
  let waits = ref [] in
  for _ = 1 to 3 do
    Fiber.spawn eng (fun () ->
        let entered = Fiber.now () in
        Sync.Resource.use r ~duration:15.0;
        (* the wait is what the use took beyond its own duration *)
        waits := (Fiber.now () -. entered -. 15.0) :: !waits)
  done;
  Engine.run eng;
  Alcotest.(check (list (float 1e-9)))
    "queueing delays" [ 0.0; 15.0; 30.0 ]
    (List.sort compare !waits);
  check_float "busy time" 45.0 (Sync.Resource.busy_time r);
  Alcotest.(check int) "completions" 3 (Sync.Resource.completions r)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 in
  let b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.uniform a) (Rng.uniform b)
  done

(* The first draws of each stream, recorded from the generator as it
   stood before its state moved into an unboxed buffer. Comparing two
   generators with each other cannot catch a change of representation
   that alters the stream; these literals can. Floats are exact (hex
   literals). *)
let golden_streams =
  [
    ( 0,
      [ 0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6;
        0x1.f1177150e499p-1; 0x1.b39896a51a87p-4; 0x1.4f2e7c31d1fa8p-2;
        0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1 ],
      [ 883; 431; 26; 970; 106; 327; 173; 771 ],
      [ 47; 52; 15; 44; 27; 42; 33; 60 ],
      [ 0x1.57b7f750f28adp+4; 0x1.69795bce7f0d7p+2; 0x1.1252def4e24bap-2;
        0x1.1ae96e49f6eabp+5; 0x1.1fd6f5a305bd4p+0; 0x1.fb8330ffff23ap+1;
        0x1.e8f61ec81027fp+0; 0x1.d8748f0e223e9p+3 ] );
    ( 1,
      [ 0x1.22145bd91204bp-1; 0x1.7dd71b42cb1ddp-1; 0x1.f12745ddf664ap-1;
        0x1.c7061a43b90b2p-2; 0x1.c6ed53634406cp-2; 0x1.869a17ff202ap-1;
        0x1.c133d8d9ae6c7p-1; 0x1.0bcf761e244fp-1 ],
      [ 566; 745; 971; 444; 444; 762; 877; 523 ],
      [ 1; 39; 30; 11; 57; 0; 37; 53 ],
      [ 0x1.0b8592cae461p+3; 0x1.b642882d6d9b2p+3; 0x1.1b3e8de0b0958p+5;
        0x1.7815d5a379349p+2; 0x1.77f9f79a7b998p+2; 0x1.cc8f547887403p+3;
        0x1.4fbedd8e7981ap+4; 0x1.d9d7ccb30ecf7p+2 ] );
    ( 42,
      [ 0x1.7bae644c5fd6dp-1; 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2;
        0x1.607387fc392b8p-2; 0x1.378b0b448904p-5; 0x1.bc8863f47901bp-1;
        0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1 ],
      [ 741; 159; 278; 344; 38; 868; 218; 800 ],
      [ 21; 3; 18; 20; 50; 6; 29; 36 ],
      [ 0x1.b0fed1f9294abp+3; 0x1.be12543309a76p+0; 0x1.a200306cb2dccp+1;
        0x1.0e01ae481d79ap+2; 0x1.8d06f79c59a8cp-2; 0x1.4444ec6cc286fp+4;
        0x1.3b6a851ee4dc4p+1; 0x1.020430aa77b74p+4 ] );
  ]

let exact_floats = Alcotest.(list (float 0.0))

let test_rng_golden_streams () =
  let draws seed f =
    let r = Rng.create ~seed in
    List.init 8 (fun _ -> f r)
  in
  List.iter
    (fun (seed, uniform, below_1000, below_64, exponential) ->
      let name what = Printf.sprintf "seed %d %s" seed what in
      Alcotest.check exact_floats (name "uniform") uniform (draws seed Rng.uniform);
      Alcotest.(check (list int))
        (name "int_below 1000") below_1000
        (draws seed (fun r -> Rng.int_below r 1000));
      Alcotest.(check (list int))
        (name "int_below 64") below_64
        (draws seed (fun r -> Rng.int_below r 64));
      Alcotest.check exact_floats (name "exponential") exponential
        (draws seed (fun r -> Rng.exponential r ~mean:10.0)))
    golden_streams;
  let parent = Rng.create ~seed:42 in
  let child = Rng.split parent in
  Alcotest.check exact_floats "split of seed 42"
    [ 0x1.5f87eae99441cp-2; 0x1.e957a287fd648p-1; 0x1.f2059ce304a4p-2;
      0x1.13e5dec6f8fd8p-4; 0x1.5a94b320c5fa2p-1; 0x1.1485b98a7ea2p-4;
      0x1.90147a81a0f5cp-3; 0x1.782d47a99890cp-1 ]
    (List.init 8 (fun _ -> Rng.uniform child));
  (* splitting consumed exactly one draw of the parent's stream *)
  Alcotest.check exact_floats "seed 42 after the split"
    [ 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2; 0x1.607387fc392b8p-2;
      0x1.378b0b448904p-5; 0x1.bc8863f47901bp-1; 0x1.bf4b38e229bb4p-3;
      0x1.99ec6bdd3d3c5p-1; 0x1.5c16e1dc2cf5ep-2 ]
    (List.init 8 (fun _ -> Rng.uniform parent))

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let b = Rng.split a in
  let xa = Rng.uniform a and xb = Rng.uniform b in
  Alcotest.(check bool) "streams differ" true (xa <> xb)

let prop_rng_uniform_bounds =
  QCheck.Test.make ~name:"uniform in [0,1)" ~count:1000 QCheck.int (fun seed ->
      let rng = Rng.create ~seed in
      let x = Rng.uniform rng in
      x >= 0.0 && x < 1.0)

let prop_rng_int_below =
  QCheck.Test.make ~name:"int_below in range" ~count:500
    QCheck.(pair int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let x = Rng.int_below rng bound in
      x >= 0 && x < bound)

let prop_rng_exponential_positive =
  QCheck.Test.make ~name:"exponential non-negative" ~count:500 QCheck.int
    (fun seed ->
      let rng = Rng.create ~seed in
      Rng.exponential rng ~mean:10.0 >= 0.0)

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:1 in
  let acc = ref 0.0 in
  let n = 20_000 in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential rng ~mean:10.0
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 10" true (abs_float (mean -. 10.0) < 0.5)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_float "mean" 2.5 (Stats.mean s);
  check_float "min" 1.0 (Stats.min s);
  check_float "max" 4.0 (Stats.max s);
  check_float "total" 10.0 (Stats.total s);
  Alcotest.(check int) "count" 4 (Stats.count s)

let test_stats_variance () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_float "sample variance" (32.0 /. 7.0) (Stats.variance s)

let test_stats_percentile () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 10.0; 20.0; 30.0; 40.0 ];
  check_float "median interpolated" 25.0 (Stats.median s);
  check_float "p0 is min" 10.0 (Stats.percentile s 0.0);
  check_float "p100 is max" 40.0 (Stats.percentile s 100.0)

let test_stats_empty () =
  let s = Stats.create () in
  check_float "mean of empty" 0.0 (Stats.mean s);
  check_float "variance of empty" 0.0 (Stats.variance s);
  Alcotest.check_raises "percentile of empty"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile s 50.0 : float))

let test_stats_histogram () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 0.0; 1.0; 2.0; 3.0; 4.0; 5.0; 9.0; 10.0 ];
  let bins = Stats.histogram s ~buckets:2 in
  (match bins with
  | [ (lo1, hi1, n1); (_, hi2, n2) ] ->
      check_float "first bin starts at min" 0.0 lo1;
      check_float "split at midpoint" 5.0 hi1;
      check_float "last bin ends at max" 10.0 hi2;
      Alcotest.(check (pair int int)) "counts (max in last bin)" (5, 3) (n1, n2)
  | _ -> Alcotest.fail "expected 2 bins");
  Alcotest.check_raises "empty histogram" (Invalid_argument "Stats.histogram: empty")
    (fun () -> ignore (Stats.histogram (Stats.create ()) ~buckets:4))

let prop_stats_histogram_counts_all =
  QCheck.Test.make ~name:"histogram bins sum to sample count" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 60) (float_bound_inclusive 50.0))
              (int_range 1 12))
    (fun (floats, buckets) ->
      let s = Stats.create () in
      List.iter (Stats.add s) floats;
      let total =
        List.fold_left (fun acc (_, _, n) -> acc + n) 0 (Stats.histogram s ~buckets)
      in
      total = List.length floats)

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"mean within [min,max]" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_inclusive 100.0))
    (fun floats ->
      let s = Stats.create () in
      List.iter (Stats.add s) floats;
      Stats.mean s >= Stats.min s -. 1e-9 && Stats.mean s <= Stats.max s +. 1e-9)

let prop_stats_percentile_monotone =
  QCheck.Test.make ~name:"percentiles monotone" ~count:300
    QCheck.(list_of_size Gen.(int_range 2 50) (float_bound_inclusive 100.0))
    (fun floats ->
      let s = Stats.create () in
      List.iter (Stats.add s) floats;
      Stats.percentile s 25.0 <= Stats.percentile s 75.0 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_records () =
  let eng = Engine.create () in
  let tr = Trace.create ~capacity:8 () in
  Engine.schedule eng ~delay:5.0 (fun () -> Trace.record tr eng ~tag:"x" "event %d" 1);
  Engine.run eng;
  match Trace.dump tr with
  | [ r ] ->
      check_float "timestamp" 5.0 r.Trace.time;
      Alcotest.(check string) "tag" "x" r.Trace.tag;
      Alcotest.(check string) "message" "event 1" r.Trace.message
  | l -> Alcotest.fail (Printf.sprintf "expected 1 record, got %d" (List.length l))

let test_trace_ring_overflow () =
  let eng = Engine.create () in
  let tr = Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Trace.record tr eng ~tag:"t" "%d" i
  done;
  let messages = List.map (fun r -> r.Trace.message) (Trace.dump tr) in
  Alcotest.(check (list string)) "keeps newest" [ "3"; "4"; "5" ] messages

let test_trace_disabled () =
  let eng = Engine.create () in
  let tr = Trace.create () in
  Trace.set_enabled tr false;
  Trace.record tr eng ~tag:"t" "dropped";
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.dump tr))

(* ------------------------------------------------------------------ *)
(* Allocation budgets *)

(* Minor-heap words per operation on the wait path, averaged over 10k
   operations. Each budget sits about 10% above what the operation
   costs today, so a change that puts a closure or a box back on the
   path fails here rather than only in the benchmark's heap figures;
   each comment gives today's cost and the budget before a fiber wait
   became one engine block. The [run] functions build their own
   engine; that one-off cost is noise at 10k operations. *)
let alloc_ops = 10_000

let check_budget name ~budget run =
  run ();
  let before = Gc.minor_words () in
  run ();
  let per_op = (Gc.minor_words () -. before) /. float_of_int alloc_ops in
  if per_op > budget then
    Alcotest.failf "%s: %.1f words per operation, budget %.1f" name per_op budget

(* 12.0 words: the effect payload and continuation (5) and the wait
   block (7). Budget 30 before. *)
let test_alloc_sleep () =
  check_budget "Fiber.sleep in a grouped fiber" ~budget:13.2 (fun () ->
      let eng = Engine.create () in
      Fiber.spawn eng ~group:(Fiber.Group.create ()) (fun () ->
          for _ = 1 to alloc_ops do
            Fiber.sleep 1.0
          done);
      Engine.run eng)

(* 18.0 words, with the harness's closure and [Some] cell. Budget 29
   before. *)
let test_alloc_suspend_resume () =
  check_budget "suspend/resume in a grouped fiber" ~budget:19.8 (fun () ->
      let eng = Engine.create () in
      let waiting = ref None in
      Fiber.spawn eng ~group:(Fiber.Group.create ()) (fun () ->
          for _ = 1 to alloc_ops do
            Fiber.suspend (fun r -> waiting := Some r)
          done);
      while Engine.step eng do
        match !waiting with
        | Some r ->
            waiting := None;
            Fiber.resume r (Ok ())
        | None -> ()
      done)

(* Two fibers ping-pong one message: each operation is two sends, each
   to a receiver already blocked in [recv] (or [recv_timeout]). *)
let mailbox_ping_pong recv () =
  let eng = Engine.create () in
  let group = Fiber.Group.create () in
  let ping = Mailbox.create eng and pong = Mailbox.create eng in
  Fiber.spawn eng ~group (fun () ->
      for i = 1 to alloc_ops do
        Mailbox.send ping i;
        ignore (recv pong : int)
      done);
  Fiber.spawn eng ~group (fun () ->
      for _ = 1 to alloc_ops do
        Mailbox.send pong (recv ping)
      done);
  Engine.run eng

(* 32.0 words. Budget 53 before. *)
let test_alloc_mailbox_round_trip () =
  check_budget "Mailbox round trip" ~budget:35.2 (mailbox_ping_pong Mailbox.recv)

(* 56.2 words. Budget 88 before. *)
let test_alloc_mailbox_recv_timeout () =
  check_budget "Mailbox round trip, delivered recv_timeout" ~budget:61.8
    (mailbox_ping_pong (fun mb -> Option.get (Mailbox.recv_timeout mb 100.0)))

let test_alloc_rng_exponential () =
  let total = ref 0.0 in
  check_budget "Rng.exponential" ~budget:2.2 (fun () ->
      let rng = Rng.create ~seed:3 in
      (* a local accumulator stays unboxed; [total] is written once *)
      let sum = ref 0.0 in
      for _ = 1 to alloc_ops do
        sum := !sum +. Rng.exponential rng ~mean:2.0
      done;
      total := !sum);
  Alcotest.(check bool) "draws are positive" true (!total > 0.0)

let test_alloc_disabled_trace () =
  let eng = Engine.create () in
  let tr = Trace.create ~enabled:false () in
  check_budget "guarded disabled trace call" ~budget:0.1 (fun () ->
      for i = 1 to alloc_ops do
        if Trace.enabled tr then
          Trace.record tr eng ~tag:"t" "%d %a" i Format.pp_print_string "x"
      done)

(* ------------------------------------------------------------------ *)

(* CAMELOT_SEED-replayable randomized suites (see test/testutil.ml) *)
let qcheck tests =
  List.map (QCheck_alcotest.to_alcotest ~rand:(Testutil.qcheck_rand ())) tests

let () =
  Alcotest.run "camelot_sim"
    [
      ( "heap",
        [
          Alcotest.test_case "pops in priority order" `Quick test_heap_ordering;
          Alcotest.test_case "FIFO on ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty heap" `Quick test_heap_empty;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "isheap holds push by push" `Quick
            test_heap_isheap_incremental;
          Alcotest.test_case "length and clear reuse" `Quick
            test_heap_length_and_clear_reuse;
          Alcotest.test_case "pop_exn on empty rejected" `Quick test_heap_pop_exn_empty;
          Alcotest.test_case "min accessors" `Quick test_heap_min_accessors;
        ]
        @ qcheck [ prop_heap_sorts; prop_heap_random_ops ] );
      ( "engine",
        [
          Alcotest.test_case "time ordering" `Quick test_engine_time_ordering;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_schedule;
          Alcotest.test_case "negative delay rejected" `Quick test_engine_negative_delay;
          Alcotest.test_case "schedule_at clamps past times" `Quick
            test_engine_schedule_at_past_clamps;
          Alcotest.test_case "executed counter" `Quick test_engine_executed_counter;
          Alcotest.test_case "timer cancel" `Quick test_engine_cancel_timer;
          Alcotest.test_case "cancel after fire is no-op" `Quick
            test_engine_timer_fires_then_cancel_noop;
          Alcotest.test_case "cancel-heavy queue drains" `Quick
            test_engine_cancel_heavy_drains;
          Alcotest.test_case "zero-delay respects older heap events" `Quick
            test_engine_zero_delay_fifo_vs_heap;
          Alcotest.test_case "zero-delay storm" `Quick test_engine_zero_delay_storm;
          Alcotest.test_case "zero-delay FIFO" `Quick
            test_engine_zero_delay_fifo_among_themselves;
          Alcotest.test_case "pending excludes ring tombstones" `Quick
            test_engine_pending_ring_tombstone;
          Alcotest.test_case "pending correct across run ~until" `Quick
            test_engine_pending_tombstone_beyond_until;
        ]
        @ qcheck [ prop_engine_order_matches_model; prop_engine_rearm_matches_model ] );
      ( "fiber",
        [
          Alcotest.test_case "sleep advances clock" `Quick test_fiber_sleep;
          Alcotest.test_case "interleaving" `Quick test_fiber_interleaving;
          Alcotest.test_case "group kill cancels" `Quick test_fiber_group_kill;
          Alcotest.test_case "kill prevents start" `Quick test_fiber_group_kill_prevents_start;
          Alcotest.test_case "kill hook order" `Quick test_fiber_group_kill_hook_order;
          Alcotest.test_case "exception escapes" `Quick test_fiber_exception_escapes;
          Alcotest.test_case "a raising registration kills its fiber" `Quick
            test_fiber_registration_raise;
          Alcotest.test_case "deadlock detected" `Quick test_fiber_run_deadlock;
          Alcotest.test_case "suspend/resume" `Quick test_fiber_suspend_resume;
          Alcotest.test_case "kill at a sleep's wake-up instant" `Quick
            test_fiber_kill_at_sleep_wake_up;
          Alcotest.test_case "kill at a yield's wake-up instant" `Quick
            test_fiber_kill_at_yield_wake_up;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "FIFO delivery" `Quick test_mailbox_fifo;
          Alcotest.test_case "timeout expires" `Quick test_mailbox_timeout_expires;
          Alcotest.test_case "delivery before timeout" `Quick test_mailbox_timeout_delivery;
          Alcotest.test_case "send after timeout queues" `Quick test_mailbox_timeout_then_send_queues;
          Alcotest.test_case "waiter count" `Quick test_mailbox_waiters_count;
          Alcotest.test_case "rejected timeout leaves no waiter" `Quick
            test_mailbox_rejected_timeout_leaves_no_waiter;
        ] );
      ( "sync",
        [
          Alcotest.test_case "mutex exclusion" `Quick test_mutex_exclusion;
          Alcotest.test_case "unlock unheld rejected" `Quick test_mutex_unlock_unlocked;
          Alcotest.test_case "semaphore limits concurrency" `Quick test_semaphore_limits;
          Alcotest.test_case "resource FCFS with durations" `Quick test_resource_fcfs;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic from seed" `Quick test_rng_deterministic;
          Alcotest.test_case "golden streams" `Quick test_rng_golden_streams;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        ]
        @ qcheck
            [ prop_rng_uniform_bounds; prop_rng_int_below; prop_rng_exponential_positive ] );
      ( "stats",
        [
          Alcotest.test_case "basic accumulators" `Quick test_stats_basic;
          Alcotest.test_case "sample variance" `Quick test_stats_variance;
          Alcotest.test_case "percentile interpolation" `Quick test_stats_percentile;
          Alcotest.test_case "empty stats" `Quick test_stats_empty;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
        ]
        @ qcheck
            [
              prop_stats_mean_bounds;
              prop_stats_percentile_monotone;
              prop_stats_histogram_counts_all;
            ] );
      ( "trace",
        [
          Alcotest.test_case "records with timestamps" `Quick test_trace_records;
          Alcotest.test_case "ring overflow keeps newest" `Quick test_trace_ring_overflow;
          Alcotest.test_case "disabled trace records nothing" `Quick test_trace_disabled;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "Fiber.sleep in a grouped fiber" `Quick test_alloc_sleep;
          Alcotest.test_case "suspend/resume" `Quick test_alloc_suspend_resume;
          Alcotest.test_case "Mailbox round trip" `Quick test_alloc_mailbox_round_trip;
          Alcotest.test_case "Mailbox delivered recv_timeout" `Quick
            test_alloc_mailbox_recv_timeout;
          Alcotest.test_case "Rng.exponential" `Quick test_alloc_rng_exponential;
          Alcotest.test_case "guarded disabled trace" `Quick test_alloc_disabled_trace;
        ] );
    ]
