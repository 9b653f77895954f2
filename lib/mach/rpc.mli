(** Synchronous IPC and RPC with the paper's cost structure.

    Local IPCs charge their cost as CPU occupancy on the site (message
    handling is CPU work — this is what makes the throughput
    experiments contend). The remote RPC follows the §4.1 path
    [client - CornMan - NetMsgServer - network - NetMsgServer -
    CornMan - server]: CornMan legs charge the respective site's CPU,
    the NetMsgServer-to-NetMsgServer leg is wire latency.

    These calls must run inside a fiber. *)

(** Raised when the callee site is down (or dies mid-call): the RPC
    connection breaks after [rpc_timeout_ms]. *)
exception Rpc_failure of { callee : Site.id; reason : string }

(** How long a caller waits before declaring a broken connection. *)
val rpc_timeout_ms : float

(** Charge one local in-line IPC (application <-> Camelot process). *)
val local_ipc : Site.t -> unit

(** Charge one local in-line IPC to a data server. *)
val local_ipc_to_server : Site.t -> unit

(** Charge one local one-way in-line message. *)
val oneway_ipc : Site.t -> unit

(** Charge one local out-of-line IPC. *)
val outofline_ipc : Site.t -> unit

(** [call_local site handler] runs [handler] on [site] under the cost
    of a local server RPC (request + reply + server CPU). *)
val call_local : Site.t -> (unit -> 'a) -> 'a

(** [call_remote ~client ~server handler] performs a full remote RPC,
    running [handler] on the calling fiber between the request and
    reply legs.
    @param legs receives the latency accounting of §4.1 once the reply
    is back: [legs label ms] for each leg, in the order and with the
    labels of {!Cost_model.rpc_legs}, [ms] the leg's measured duration
    (queueing for a CPU included; the handler's own time in none). The
    legs sum to the call's elapsed time. Only a call given [legs] reads
    the clock.
    @raise Rpc_failure if [server] is dead at request time or crashes
    before the reply is sent. *)
val call_remote :
  ?legs:(string -> float -> unit) ->
  client:Site.t ->
  server:Site.t ->
  (unit -> 'a) ->
  'a
