open Camelot_sim

exception Rpc_failure of { callee : Site.id; reason : string }

let rpc_timeout_ms = 500.0

(* An IPC is partly CPU (message copy, scan, kernel entry) and partly
   scheduling wait during which the processor serves others. *)
let charge_ipc site cost =
  let f = (Site.model site).Cost_model.ipc_cpu_fraction in
  Site.cpu_use site (f *. cost);
  let wait = (1.0 -. f) *. cost in
  if wait > 0.0 then Camelot_sim.Fiber.sleep wait

let local_ipc site = charge_ipc site (Site.model site).Cost_model.local_ipc_ms

let local_ipc_to_server site =
  charge_ipc site (Site.model site).Cost_model.local_ipc_to_server_ms

let oneway_ipc site = charge_ipc site (Site.model site).Cost_model.local_oneway_ipc_ms

let outofline_ipc site =
  charge_ipc site (Site.model site).Cost_model.local_outofline_ipc_ms

let call_local site handler =
  local_ipc_to_server site;
  let model = Site.model site in
  Site.cpu_use site model.Cost_model.server_cpu_ms;
  handler ()

let fail callee reason =
  (* the caller's connection times out before it learns of the break *)
  Fiber.sleep rpc_timeout_ms;
  raise (Rpc_failure { callee; reason })

(* One timed leg; returns its measured duration. *)
let leg site charge =
  let start = Engine.now (Site.engine site) in
  charge ();
  Engine.now (Site.engine site) -. start

let call_remote_accounted ~client ~server handler =
  let model = Site.model client in
  let open Cost_model in
  if not (Site.alive server) then fail (Site.id server) "server site down";
  let incarnation = Site.incarnation server in
  let half_wire () =
    let jitter = Rng.exponential (Site.rng client) ~mean:model.rpc_jitter_ms in
    Fiber.sleep ((model.netmsg_rpc_ms /. 2.0) +. (jitter /. 2.0))
  in
  let t_client_ipc = leg client (fun () -> Site.cpu_use client model.comman_ipc_ms) in
  let t_client_cpu = leg client (fun () -> Site.cpu_use client model.comman_cpu_ms) in
  let wire_start = Engine.now (Site.engine client) in
  half_wire ();
  if (not (Site.alive server)) || Site.incarnation server <> incarnation then
    fail (Site.id server) "server crashed before processing";
  let t_server_cpu = leg server (fun () -> Site.cpu_use server model.comman_cpu_ms) in
  let t_server_ipc = leg server (fun () -> Site.cpu_use server model.comman_ipc_ms) in
  let handler_start = Engine.now (Site.engine server) in
  let result = handler () in
  let t_handler = Engine.now (Site.engine server) -. handler_start in
  if (not (Site.alive server)) || Site.incarnation server <> incarnation then
    fail (Site.id server) "server crashed before reply";
  half_wire ();
  let t_wire =
    Engine.now (Site.engine client)
    -. wire_start -. t_server_cpu -. t_server_ipc -. t_handler
  in
  let legs =
    [
      ("client CornMan<->NetMsgServer IPC", t_client_ipc);
      ("client CornMan CPU", t_client_cpu);
      ("NetMsgServer-to-NetMsgServer RPC", t_wire);
      ("server CornMan CPU", t_server_cpu);
      ("server CornMan<->NetMsgServer IPC", t_server_ipc);
    ]
  in
  (result, legs)

let call_remote ~client ~server handler =
  fst (call_remote_accounted ~client ~server handler)
