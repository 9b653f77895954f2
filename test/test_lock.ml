(* Tests for the lock manager: modes, FIFO fairness, upgrades,
   timeouts, and Moss-model nested inheritance. *)

open Camelot_sim
open Camelot_lock

(* Owners are (family, path) pairs; ancestry is path-prefix within the
   same family — a miniature of Tid. *)
type owner = { fam : int; path : int list }

let o ?(fam = 1) path = { fam; path }

let rec is_prefix a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' -> x = y && is_prefix a' b'

let is_ancestor a b = a.fam = b.fam && is_prefix a.path b.path

let make () =
  let eng = Engine.create () in
  (eng, Lock_table.create eng ~is_ancestor)

let s = Lock_table.Shared
let x = Lock_table.Exclusive

let test_shared_compatible () =
  let eng, t = make () in
  Fiber.run eng (fun () ->
      Lock_table.acquire t ~owner:(o ~fam:1 []) ~key:"k" s;
      Lock_table.acquire t ~owner:(o ~fam:2 []) ~key:"k" s;
      Alcotest.(check int) "two shared holders" 2
        (List.length (Lock_table.holders t ~key:"k")))

let test_exclusive_blocks () =
  let eng, t = make () in
  let got_lock_at = ref (-1.0) in
  Fiber.spawn eng (fun () ->
      Lock_table.acquire t ~owner:(o ~fam:1 []) ~key:"k" x;
      Fiber.sleep 50.0;
      Lock_table.release_all t ~owner:(o ~fam:1 []));
  Fiber.spawn eng (fun () ->
      Fiber.sleep 1.0;
      Lock_table.acquire t ~owner:(o ~fam:2 []) ~key:"k" x;
      got_lock_at := Fiber.now ());
  Engine.run eng;
  Alcotest.(check (float 1e-6)) "waited for release" 50.0 !got_lock_at

let test_reader_blocks_writer_not_reader () =
  let eng, t = make () in
  let order = ref [] in
  Fiber.spawn eng (fun () ->
      Lock_table.acquire t ~owner:(o ~fam:1 []) ~key:"k" s;
      Fiber.sleep 30.0;
      Lock_table.release_all t ~owner:(o ~fam:1 []));
  Fiber.spawn eng (fun () ->
      Fiber.sleep 1.0;
      Lock_table.acquire t ~owner:(o ~fam:2 []) ~key:"k" x;
      order := ("writer", Fiber.now ()) :: !order;
      Lock_table.release_all t ~owner:(o ~fam:2 []));
  Engine.run eng;
  match !order with
  | [ ("writer", at) ] -> Alcotest.(check (float 1e-6)) "writer after reader" 30.0 at
  | _ -> Alcotest.fail "unexpected order"

let test_fifo_no_overtaking () =
  (* a Shared request behind a queued Exclusive one must wait (no
     starvation of writers) *)
  let eng, t = make () in
  let order = ref [] in
  Fiber.spawn eng (fun () ->
      Lock_table.acquire t ~owner:(o ~fam:1 []) ~key:"k" s;
      Fiber.sleep 20.0;
      Lock_table.release_all t ~owner:(o ~fam:1 []));
  Fiber.spawn eng (fun () ->
      Fiber.sleep 1.0;
      Lock_table.acquire t ~owner:(o ~fam:2 []) ~key:"k" x;
      order := "writer" :: !order;
      Fiber.sleep 10.0;
      Lock_table.release_all t ~owner:(o ~fam:2 []));
  Fiber.spawn eng (fun () ->
      Fiber.sleep 2.0;
      (* compatible with the original holder, but queued behind the writer *)
      Lock_table.acquire t ~owner:(o ~fam:3 []) ~key:"k" s;
      order := "late-reader" :: !order);
  Engine.run eng;
  Alcotest.(check (list string)) "FIFO" [ "writer"; "late-reader" ] (List.rev !order)

let test_reacquire_noop () =
  let eng, t = make () in
  Fiber.run eng (fun () ->
      let me = o ~fam:1 [] in
      Lock_table.acquire t ~owner:me ~key:"k" x;
      Lock_table.acquire t ~owner:me ~key:"k" x;
      Lock_table.acquire t ~owner:me ~key:"k" s;
      (* X subsumes S *)
      Alcotest.(check int) "one holder entry" 1
        (List.length (Lock_table.holders t ~key:"k")));
  Alcotest.(check int) "single grant" 1 (Lock_table.grants t)

let test_upgrade () =
  let eng, t = make () in
  let upgraded_at = ref (-1.0) in
  Fiber.spawn eng (fun () ->
      Lock_table.acquire t ~owner:(o ~fam:1 []) ~key:"k" s;
      Fiber.sleep 25.0;
      Lock_table.release_all t ~owner:(o ~fam:1 []));
  Fiber.spawn eng (fun () ->
      let me = o ~fam:2 [] in
      Lock_table.acquire t ~owner:me ~key:"k" s;
      Fiber.sleep 1.0;
      Lock_table.acquire t ~owner:me ~key:"k" x;
      upgraded_at := Fiber.now ();
      Alcotest.(check (option (of_pp Lock_table.pp_mode)))
        "holds exclusive" (Some x)
        (Lock_table.held t ~owner:me ~key:"k"));
  Engine.run eng;
  Alcotest.(check (float 1e-6)) "upgrade when other reader left" 25.0 !upgraded_at

let test_timeout_gives_up () =
  let eng, t = make () in
  Fiber.spawn eng (fun () ->
      Lock_table.acquire t ~owner:(o ~fam:1 []) ~key:"k" x;
      Fiber.sleep 1000.0;
      Lock_table.release_all t ~owner:(o ~fam:1 []));
  let granted = ref true in
  Fiber.spawn eng (fun () ->
      Fiber.sleep 1.0;
      granted :=
        Lock_table.acquire_timeout t ~owner:(o ~fam:2 []) ~key:"k" x ~timeout:50.0);
  Engine.run eng;
  Alcotest.(check bool) "timed out" false !granted;
  Alcotest.(check int) "abandoned request left no queue entry" 0
    (Lock_table.queue_length t ~key:"k")

let test_timeout_does_not_block_successor () =
  (* an abandoned waiter must not stall those behind it *)
  let eng, t = make () in
  let late_got_at = ref (-1.0) in
  Fiber.spawn eng (fun () ->
      Lock_table.acquire t ~owner:(o ~fam:1 []) ~key:"k" x;
      Fiber.sleep 100.0;
      Lock_table.release_all t ~owner:(o ~fam:1 []));
  Fiber.spawn eng (fun () ->
      Fiber.sleep 1.0;
      ignore
        (Lock_table.acquire_timeout t ~owner:(o ~fam:2 []) ~key:"k" x ~timeout:20.0
          : bool));
  Fiber.spawn eng (fun () ->
      Fiber.sleep 2.0;
      Lock_table.acquire t ~owner:(o ~fam:3 []) ~key:"k" x;
      late_got_at := Fiber.now ());
  Engine.run eng;
  Alcotest.(check (float 1e-6)) "successor got lock at release" 100.0 !late_got_at

let test_grant_cancels_timeout () =
  (* a waiter granted before its deadline must cancel its timer: the
     engine must quiesce at the grant, not idle on to the deadline *)
  let eng, t = make () in
  let granted = ref false in
  Fiber.spawn eng (fun () ->
      Lock_table.acquire t ~owner:(o ~fam:1 []) ~key:"k" x;
      Fiber.sleep 10.0;
      Lock_table.release_all t ~owner:(o ~fam:1 []));
  Fiber.spawn eng (fun () ->
      Fiber.sleep 1.0;
      granted :=
        Lock_table.acquire_timeout t ~owner:(o ~fam:2 []) ~key:"k" x
          ~timeout:1000.0);
  Engine.run eng;
  Alcotest.(check bool) "granted" true !granted;
  Alcotest.(check (float 1e-6)) "engine stopped at the grant, not the deadline"
    10.0 (Engine.now eng);
  Alcotest.(check int) "no timer left pending" 0 (Engine.pending eng)

let test_try_acquire () =
  let eng, t = make () in
  Fiber.run eng (fun () ->
      Alcotest.(check bool) "free" true
        (Lock_table.try_acquire t ~owner:(o ~fam:1 []) ~key:"k" x);
      Alcotest.(check bool) "held" false
        (Lock_table.try_acquire t ~owner:(o ~fam:2 []) ~key:"k" s))

(* --- nesting ------------------------------------------------------- *)

let test_child_acquires_parent_lock () =
  let eng, t = make () in
  Fiber.run eng (fun () ->
      let parent = o [] and child = o [ 0 ] in
      Lock_table.acquire t ~owner:parent ~key:"k" x;
      (* Moss rule: every holder is an ancestor -> child may lock *)
      Lock_table.acquire t ~owner:child ~key:"k" x;
      Alcotest.(check int) "both hold" 2
        (List.length (Lock_table.holders t ~key:"k")))

let test_sibling_blocked_by_child_lock () =
  let eng, t = make () in
  let sibling_got_at = ref (-1.0) in
  Fiber.spawn eng (fun () ->
      Lock_table.acquire t ~owner:(o [ 0 ]) ~key:"k" x;
      Fiber.sleep 40.0;
      Lock_table.release_all t ~owner:(o [ 0 ]));
  Fiber.spawn eng (fun () ->
      Fiber.sleep 1.0;
      (* sibling [1] is not an ancestor of [0]: must wait *)
      Lock_table.acquire t ~owner:(o [ 1 ]) ~key:"k" x;
      sibling_got_at := Fiber.now ());
  Engine.run eng;
  Alcotest.(check (float 1e-6)) "sibling waited" 40.0 !sibling_got_at

let test_unrelated_family_blocked_by_nested () =
  let eng, t = make () in
  Fiber.run eng (fun () ->
      Lock_table.acquire t ~owner:(o ~fam:1 [ 0 ]) ~key:"k" x;
      Alcotest.(check bool) "other family cannot take it" false
        (Lock_table.try_acquire t ~owner:(o ~fam:2 []) ~key:"k" x))

let test_transfer_to_parent () =
  let eng, t = make () in
  Fiber.run eng (fun () ->
      let parent = o [] and child = o [ 0 ] in
      Lock_table.acquire t ~owner:child ~key:"a" x;
      Lock_table.acquire t ~owner:child ~key:"b" s;
      Lock_table.transfer t ~from_:child ~to_:parent;
      Alcotest.(check (option (of_pp Lock_table.pp_mode)))
        "parent owns a" (Some x)
        (Lock_table.held t ~owner:parent ~key:"a");
      Alcotest.(check (option (of_pp Lock_table.pp_mode)))
        "parent owns b" (Some s)
        (Lock_table.held t ~owner:parent ~key:"b");
      Alcotest.(check (option (of_pp Lock_table.pp_mode)))
        "child owns nothing" None
        (Lock_table.held t ~owner:child ~key:"a"))

let test_transfer_merges_modes () =
  let eng, t = make () in
  Fiber.run eng (fun () ->
      let parent = o [] and child = o [ 0 ] in
      Lock_table.acquire t ~owner:parent ~key:"k" s;
      Lock_table.acquire t ~owner:child ~key:"k" x;
      Lock_table.transfer t ~from_:child ~to_:parent;
      Alcotest.(check (option (of_pp Lock_table.pp_mode)))
        "exclusive wins merge" (Some x)
        (Lock_table.held t ~owner:parent ~key:"k"))

let test_release_all_wakes_waiters () =
  let eng, t = make () in
  let woke = ref 0 in
  Fiber.spawn eng (fun () ->
      Lock_table.acquire t ~owner:(o ~fam:1 []) ~key:"a" x;
      Lock_table.acquire t ~owner:(o ~fam:1 []) ~key:"b" x;
      Fiber.sleep 10.0;
      Lock_table.release_all t ~owner:(o ~fam:1 []));
  List.iter
    (fun key ->
      Fiber.spawn eng (fun () ->
          Fiber.sleep 1.0;
          Lock_table.acquire t ~owner:(o ~fam:2 []) ~key x;
          incr woke))
    [ "a"; "b" ];
  Engine.run eng;
  Alcotest.(check int) "both waiters woken" 2 !woke

(* --- properties ---------------------------------------------------- *)

let prop_exclusive_never_shared_with_non_ancestor =
  QCheck.Test.make ~name:"exclusive excludes non-ancestors" ~count:200
    QCheck.(pair (list (int_bound 3)) (list (int_bound 3)))
    (fun (p1, p2) ->
      let eng = Engine.create () in
      let t = Lock_table.create eng ~is_ancestor in
      let a = o p1 and b = o p2 in
      let result = ref true in
      Fiber.spawn eng (fun () ->
          Lock_table.acquire t ~owner:a ~key:"k" Lock_table.Exclusive;
          let ok = Lock_table.try_acquire t ~owner:b ~key:"k" Lock_table.Exclusive in
          let legal = is_ancestor a b || a = b in
          result := ok = legal);
      Engine.run eng;
      !result)

let prop_grants_monotone =
  QCheck.Test.make ~name:"grants count monotone in acquisitions" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 20) (pair (int_bound 5) bool))
    (fun requests ->
      let eng = Engine.create () in
      let t = Lock_table.create eng ~is_ancestor in
      Fiber.spawn eng (fun () ->
          List.iteri
            (fun i (key, exclusive) ->
              let mode = if exclusive then Lock_table.Exclusive else Lock_table.Shared in
              ignore
                (Lock_table.try_acquire t
                   ~owner:(o ~fam:i [])
                   ~key:(string_of_int key) mode
                  : bool))
            requests);
      Engine.run eng;
      Lock_table.grants t <= List.length requests)

let prop_timeout_interleavings =
  (* random contention scripts with timeouts: owners from distinct
     families contend over a few keys, some requests abandoned by
     deadline. Afterwards: mode compatibility was never violated,
     every queue drained, every lock released, and no timer is left in
     the engine (granted waiters cancelled theirs). *)
  QCheck.Test.make ~name:"random timeout interleavings stay safe and drain"
    ~count:100
    QCheck.(
      list_of_size
        Gen.(int_range 2 15)
        (quad (int_bound 2) bool (int_bound 40) (int_bound 60)))
    (fun script ->
      let eng = Engine.create () in
      let t = Lock_table.create eng ~is_ancestor in
      let violated = ref false in
      let moss_ok holders =
        (* owners are pairwise non-ancestors: an exclusive holder must
           be alone *)
        match List.filter (fun (_, m) -> m = x) holders with
        | [] -> true
        | _ :: _ -> List.length holders = 1
      in
      List.iteri
        (fun i (key_n, exclusive, start, timeout) ->
          let owner = o ~fam:(1000 + i) [] in
          let key = string_of_int key_n in
          let mode = if exclusive then x else s in
          Fiber.spawn eng (fun () ->
              Fiber.sleep (float_of_int start);
              let got =
                Lock_table.acquire_timeout t ~owner ~key mode
                  ~timeout:(float_of_int (1 + timeout))
              in
              if got then begin
                if not (moss_ok (Lock_table.holders t ~key)) then
                  violated := true;
                Fiber.sleep (float_of_int (i mod 7));
                Lock_table.release_all t ~owner
              end))
        script;
      Engine.run eng;
      let keys = List.sort_uniq compare (List.map (fun (k, _, _, _) -> k) script) in
      List.iter
        (fun key_n ->
          let key = string_of_int key_n in
          if Lock_table.queue_length t ~key <> 0 then violated := true;
          if Lock_table.holders t ~key <> [] then violated := true)
        keys;
      if Engine.pending eng <> 0 then violated := true;
      not !violated)

(* Every key ever locked keeps its interned entry, so an entry's size
   is what a wide key space costs for good. The budget sits about 10%
   above today's cost of 12.3 words: the entry, the key string and its
   share of the slot array. A released key keeps no holder arrays. *)
let test_retained_per_key () =
  let eng, t = make () in
  let n = 10_000 in
  let keys = Array.init n (fun i -> "k" ^ string_of_int i) in
  let before = Obj.reachable_words (Obj.repr t) in
  Fiber.run eng (fun () ->
      Array.iteri
        (fun i key ->
          let owner = o ~fam:i [] in
          Lock_table.acquire t ~owner ~key x;
          Lock_table.release_all t ~owner)
        keys);
  Alcotest.(check int) "nothing held" 0 (List.length (Lock_table.all_held t));
  let per_key =
    float_of_int (Obj.reachable_words (Obj.repr t) - before) /. float_of_int n
  in
  if per_key > 13.5 then
    Alcotest.failf "%.1f retained words per key, budget 13.5" per_key

(* The table outlives the transactions that lock through it, so a
   released owner must not stay reachable from the key it held. *)
let test_released_owner_collectable () =
  let eng, t = make () in
  let weak = Weak.create 1 in
  (* a function of its own, so no slot of this frame keeps the owner *)
  let lock_once () =
    let owner = { fam = Sys.opaque_identity 7; path = [] } in
    Weak.set weak 0 (Some owner);
    Fiber.run eng (fun () ->
        Lock_table.acquire t ~owner ~key:"k" x;
        Lock_table.release_all t ~owner)
  in
  lock_once ();
  Gc.full_major ();
  Alcotest.(check bool) "released owner collected" false (Weak.check weak 0);
  Alcotest.(check int) "key still interned, unheld" 0
    (List.length (Lock_table.holders t ~key:"k"))

(* Keys that were never waited on share one empty queue; a wait must
   give its key a queue of its own. *)
let test_wait_gets_own_queue () =
  let eng, t = make () in
  let a = o ~fam:1 [] and b = o ~fam:2 [] and c = o ~fam:3 [] in
  Fiber.spawn eng (fun () ->
      Lock_table.acquire t ~owner:a ~key:"idle" s;
      Lock_table.acquire t ~owner:a ~key:"busy" x;
      Fiber.sleep 10.0;
      Lock_table.release_all t ~owner:a);
  Fiber.spawn eng (fun () ->
      Fiber.sleep 1.0;
      Lock_table.acquire t ~owner:b ~key:"busy" x);
  Fiber.spawn eng (fun () ->
      Fiber.sleep 2.0;
      Alcotest.(check int) "waiter queued on busy" 1
        (Lock_table.queue_length t ~key:"busy");
      Alcotest.(check int) "idle queue still empty" 0
        (Lock_table.queue_length t ~key:"idle");
      Alcotest.(check bool) "idle key grantable" true
        (Lock_table.try_acquire t ~owner:c ~key:"idle" s));
  Engine.run eng;
  Alcotest.(check (option (of_pp Lock_table.pp_mode))) "waiter granted"
    (Some x) (Lock_table.held t ~owner:b ~key:"busy")

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "camelot_lock"
    [
      ( "modes",
        [
          Alcotest.test_case "shared compatible" `Quick test_shared_compatible;
          Alcotest.test_case "exclusive blocks" `Quick test_exclusive_blocks;
          Alcotest.test_case "reader blocks writer" `Quick test_reader_blocks_writer_not_reader;
          Alcotest.test_case "FIFO no overtaking" `Quick test_fifo_no_overtaking;
          Alcotest.test_case "reacquire no-op" `Quick test_reacquire_noop;
          Alcotest.test_case "shared->exclusive upgrade" `Quick test_upgrade;
          Alcotest.test_case "try_acquire" `Quick test_try_acquire;
          Alcotest.test_case "a wait gets its own queue" `Quick
            test_wait_gets_own_queue;
        ] );
      ( "retained",
        [
          Alcotest.test_case "10k keys, words per key" `Quick test_retained_per_key;
          Alcotest.test_case "released owner collectable" `Quick
            test_released_owner_collectable;
        ] );
      ( "timeout",
        [
          Alcotest.test_case "gives up" `Quick test_timeout_gives_up;
          Alcotest.test_case "abandoned waiter skipped" `Quick
            test_timeout_does_not_block_successor;
          Alcotest.test_case "grant cancels the timeout timer" `Quick
            test_grant_cancels_timeout;
        ] );
      ( "nesting",
        [
          Alcotest.test_case "child under parent lock" `Quick test_child_acquires_parent_lock;
          Alcotest.test_case "sibling blocked" `Quick test_sibling_blocked_by_child_lock;
          Alcotest.test_case "other family blocked" `Quick test_unrelated_family_blocked_by_nested;
          Alcotest.test_case "anti-inheritance transfer" `Quick test_transfer_to_parent;
          Alcotest.test_case "transfer merges modes" `Quick test_transfer_merges_modes;
          Alcotest.test_case "release_all wakes waiters" `Quick test_release_all_wakes_waiters;
        ] )
      ;
      ( "properties",
        qcheck
          [
            prop_exclusive_never_shared_with_non_ancestor;
            prop_grants_monotone;
            prop_timeout_interleavings;
          ] );
    ]
