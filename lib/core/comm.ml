open Camelot_mach

let call_local tranman ~tid:_ f = Rpc.call_local (Tranman.site tranman) f

let call_remote ~origin ~tid ~server_site f =
  let client = Tranman.site origin in
  let result = Rpc.call_remote ~client ~server:server_site f in
  (* the response carried the used-site list; merge it at the origin *)
  Tranman.note_site origin tid (Site.id server_site);
  result
