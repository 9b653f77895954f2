(* Tests for the LAN model: delivery, occupancy serialization,
   multicast, piggybacking, loss, partitions, and the reliability
   helpers. *)

open Camelot_sim
open Camelot_mach
open Camelot_net

(* A model with no stochastic noise, for exact timing assertions. *)
let quiet_model =
  {
    Cost_model.rt with
    Cost_model.datagram_jitter_ms = 0.0;
    send_hiccup_p = 0.0;
    rpc_jitter_ms = 0.0;
  }

let setup ?(model = quiet_model) ?(loss = 0.0) ~sites () =
  let eng = Engine.create () in
  let rng = Rng.create ~seed:11 in
  let lan = Lan.create ~loss eng ~model ~rng:(Rng.split rng) in
  let site_arr =
    Array.init sites (fun id -> Site.create eng ~id ~model ~rng:(Rng.split rng))
  in
  (eng, lan, site_arr)

let check_float = Alcotest.(check (float 1e-6))

let test_delivery_latency () =
  let eng, lan, s = setup ~sites:2 () in
  let arrived = ref (-1.0) in
  let ep = Lan.endpoint lan s.(1) (fun (_ : string) -> arrived := Engine.now eng) in
  Lan.send lan ~src:s.(0) ep "hello";
  Engine.run eng;
  (* cycle 1.7 + wire 10.0 relative to transmit start (0) *)
  check_float "10ms after transmit start" 10.0 !arrived;
  Alcotest.(check int) "delivered" 1 (Lan.delivered lan)

let test_send_occupancy_serializes () =
  let eng, lan, s = setup ~sites:2 () in
  let times = ref [] in
  let ep = Lan.endpoint lan s.(1) (fun (_ : int) -> times := Engine.now eng :: !times) in
  for i = 1 to 3 do
    Lan.send lan ~src:s.(0) ep i
  done;
  Engine.run eng;
  (* transmit starts at 0, 1.7, 3.4 -> arrivals 10, 11.7, 13.4 *)
  Alcotest.(check (list (float 1e-6)))
    "serialized sends" [ 10.0; 11.7; 13.4 ]
    (List.sort compare !times)

let test_multicast_single_occupancy () =
  let eng, lan, s = setup ~sites:4 () in
  let times = ref [] in
  let eps =
    List.map
      (fun i -> Lan.endpoint lan s.(i) (fun (_ : int) -> times := Engine.now eng :: !times))
      [ 1; 2; 3 ]
  in
  Lan.multicast lan ~src:s.(0) eps 42;
  Engine.run eng;
  (* all transmit at once: every arrival at exactly 10ms *)
  Alcotest.(check (list (float 1e-6)))
    "simultaneous arrivals" [ 10.0; 10.0; 10.0 ]
    (List.sort compare !times)

let test_piggybacked_skips_occupancy () =
  let eng, lan, s = setup ~sites:2 () in
  let arrived = ref (-1.0) in
  let counted = ref 0 in
  let ep1 =
    Lan.endpoint lan s.(1) (fun (_ : int) ->
        incr counted;
        arrived := Engine.now eng)
  in
  (* keep the NIC busy, then piggyback: delivery must ignore the queue *)
  for i = 1 to 5 do
    Lan.send lan ~src:s.(0) ep1 i
  done;
  let pb_arrival = ref (-1.0) in
  let ep2 = Lan.endpoint lan s.(1) (fun (_ : string) -> pb_arrival := Engine.now eng) in
  Lan.send_piggybacked lan ~src:s.(0) ep2 "ack";
  Engine.run eng;
  check_float "piggyback arrives at wire latency" 10.0 !pb_arrival;
  Alcotest.(check int) "others delivered too" 5 !counted;
  Alcotest.(check bool) "queued sends arrive later" true (!arrived > 10.0)

let test_crash_drops_delivery () =
  let eng, lan, s = setup ~sites:2 () in
  let got = ref 0 in
  let ep = Lan.endpoint lan s.(1) (fun (_ : int) -> incr got) in
  Lan.send lan ~src:s.(0) ep 1;
  Engine.schedule eng ~delay:5.0 (fun () -> Site.crash s.(1));
  Engine.run eng;
  Alcotest.(check int) "dropped at dead site" 0 !got;
  Alcotest.(check int) "counted as dropped" 1 (Lan.dropped lan)

let test_dead_source_sends_nothing () =
  let eng, lan, s = setup ~sites:2 () in
  let got = ref 0 in
  let ep = Lan.endpoint lan s.(1) (fun (_ : int) -> incr got) in
  Site.crash s.(0);
  Lan.send lan ~src:s.(0) ep 1;
  Engine.run eng;
  Alcotest.(check int) "nothing sent" 0 (Lan.sent lan);
  Alcotest.(check int) "nothing received" 0 !got

let test_partition_and_heal () =
  let eng, lan, s = setup ~sites:3 () in
  let got = ref [] in
  let ep1 = Lan.endpoint lan s.(1) (fun (m : string) -> got := ("1:" ^ m) :: !got) in
  let ep2 = Lan.endpoint lan s.(2) (fun (m : string) -> got := ("2:" ^ m) :: !got) in
  Lan.partition lan [ [ 0 ]; [ 1; 2 ] ];
  Alcotest.(check bool) "0-1 cut" false (Lan.reachable lan 0 1);
  Alcotest.(check bool) "1-2 open" true (Lan.reachable lan 1 2);
  Lan.send lan ~src:s.(0) ep1 "a";
  Lan.send lan ~src:s.(1) ep2 "b";
  Engine.run eng;
  Lan.heal lan;
  Lan.send lan ~src:s.(0) ep1 "c";
  Engine.run eng;
  Alcotest.(check (list string)) "only intra-group then healed" [ "1:c"; "2:b" ]
    (List.sort compare !got)

let test_loss_probability () =
  let eng, lan, s = setup ~loss:0.5 ~sites:2 () in
  let got = ref 0 in
  let ep = Lan.endpoint lan s.(1) (fun (_ : int) -> incr got) in
  for i = 1 to 1000 do
    Lan.send lan ~src:s.(0) ep i
  done;
  Engine.run eng;
  Alcotest.(check bool)
    (Printf.sprintf "~half delivered (%d)" !got)
    true
    (!got > 400 && !got < 600)

let test_endpoint_rebind () =
  let eng, lan, s = setup ~sites:2 () in
  let first = ref 0 and second = ref 0 in
  let ep = Lan.endpoint lan s.(1) (fun (_ : int) -> incr first) in
  Lan.send lan ~src:s.(0) ep 1;
  Engine.run eng;
  Lan.set_handler ep (fun (_ : int) -> incr second);
  Lan.send lan ~src:s.(0) ep 2;
  Engine.run eng;
  Alcotest.(check (pair int int)) "handler swapped" (1, 1) (!first, !second)

let () =
  Alcotest.run "camelot_net"
    [
      ( "lan",
        [
          Alcotest.test_case "delivery latency" `Quick test_delivery_latency;
          Alcotest.test_case "send occupancy serializes" `Quick test_send_occupancy_serializes;
          Alcotest.test_case "multicast single occupancy" `Quick test_multicast_single_occupancy;
          Alcotest.test_case "piggyback skips occupancy" `Quick test_piggybacked_skips_occupancy;
          Alcotest.test_case "crash drops delivery" `Quick test_crash_drops_delivery;
          Alcotest.test_case "dead source sends nothing" `Quick test_dead_source_sends_nothing;
          Alcotest.test_case "partition and heal" `Quick test_partition_and_heal;
          Alcotest.test_case "loss probability" `Quick test_loss_probability;
          Alcotest.test_case "endpoint rebind" `Quick test_endpoint_rebind;
        ] );
    ]
