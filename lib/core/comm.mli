(** The communication manager (CornMan): transactional RPC with the
    site-tracking hooks of §3.1.

    Applications and servers call through the CornMan exactly as a
    non-Camelot program uses the NetMsgServer, but messages carrying a
    transaction identifier are specially marked: when a response leaves
    a site, the CornMan appends the list of sites used to produce it,
    and the CornMan at the destination merges that list into the local
    TranMan's knowledge. If every operation responds, the site that
    began the transaction eventually knows all participants — the
    precondition for running the commit protocols. *)

(** [call_local tranman ~tid f] is a same-site transactional RPC
    (application to server or server to server): one local
    IPC-to-server plus server CPU, no site tracking needed. *)
val call_local : Tranman.t -> tid:Tid.t -> (unit -> 'a) -> 'a

(** [call_remote ~origin ~tid ~server_site f] runs [f] at
    [server_site] under the full
    client–CornMan–NetMsgServer–network–NetMsgServer–CornMan–server
    cost path, then merges [server_site] into [origin]'s participant
    list for [tid]. A server makes no nested RPC to a third site, so
    the response's used-site list is [server_site] alone.
    @raise Camelot_mach.Rpc.Rpc_failure if the server site is down —
    the caller should then abort the transaction (§3.1). *)
val call_remote :
  origin:Tranman.t ->
  tid:Tid.t ->
  server_site:Camelot_mach.Site.t ->
  (unit -> 'a) ->
  'a
