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

(* Half the NetMsgServer-to-NetMsgServer leg, with its jitter. *)
let half_wire client =
  let model = Site.model client in
  let jitter = Rng.exponential (Site.rng client) ~mean:model.Cost_model.rpc_jitter_ms in
  Fiber.sleep ((model.Cost_model.netmsg_rpc_ms /. 2.0) +. (jitter /. 2.0))

(* The clock, read only for a caller that asked for the legs. *)
let stamp legs site =
  match legs with None -> 0.0 | Some _ -> Engine.now (Site.engine site)

let call_remote ?legs ~client ~server handler =
  let model = Site.model client in
  if not (Site.alive server) then fail (Site.id server) "server site down";
  let incarnation = Site.incarnation server in
  let start = stamp legs client in
  Site.cpu_use client model.Cost_model.comman_ipc_ms;
  let client_ipc_done = stamp legs client in
  Site.cpu_use client model.Cost_model.comman_cpu_ms;
  let wire_start = stamp legs client in
  half_wire client;
  if (not (Site.alive server)) || Site.incarnation server <> incarnation then
    fail (Site.id server) "server crashed before processing";
  let arrived = stamp legs server in
  Site.cpu_use server model.Cost_model.comman_cpu_ms;
  let server_cpu_done = stamp legs server in
  Site.cpu_use server model.Cost_model.comman_ipc_ms;
  let handler_start = stamp legs server in
  let result = handler () in
  let handler_done = stamp legs server in
  if (not (Site.alive server)) || Site.incarnation server <> incarnation then
    fail (Site.id server) "server crashed before reply";
  half_wire client;
  (match legs with
  | None -> ()
  | Some leg ->
      let t_server_cpu = server_cpu_done -. arrived in
      let t_server_ipc = handler_start -. server_cpu_done in
      (* the wire is what the client waited beyond the server's legs and
         the handler *)
      let t_wire =
        stamp legs client -. wire_start -. t_server_cpu -. t_server_ipc
        -. (handler_done -. handler_start)
      in
      List.iter2
        (fun (label, _) ms -> leg label ms)
        (Cost_model.rpc_legs model)
        [
          client_ipc_done -. start;
          wire_start -. client_ipc_done;
          t_wire;
          t_server_cpu;
          t_server_ipc;
        ]);
  result
