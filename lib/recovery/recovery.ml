open Camelot_core

type verdict = Winner | In_doubt | Loser

(* Chaos fault points: crash *during* recovery — after the log scan,
   between each replay fiber's redo and undo passes, and as each
   partition's chain finishes replaying. Recovery must be idempotent
   under all of them. *)
let p_scan_done = Camelot_chaos.register "recovery.scan.done"
let p_redo_done = Camelot_chaos.register "recovery.redo.done"
let p_partition_done = Camelot_chaos.register "recovery.partition.done"

let run ?(partitions = 1) ~tranman ~servers () =
  let site = Tranman.site tranman in
  let site_id = Camelot_mach.Site.id site in
  let { Tranman.in_doubt; ck_values; updates } = Tranman.recover tranman in
  Camelot_chaos.point ~site:site_id p_scan_done;
  (* [Tranman.recover] has classified every family once: the listed
     ones stay in doubt, every other one is committed or aborted. A
     listed family that an outcome message resolves while a long
     replay is suspended on the CPU is no longer in doubt. *)
  let verdict_of tid =
    match Tranman.outcome tranman tid with
    | Some Protocol.Committed -> Winner
    | None when List.exists (Tid.same_family tid) in_doubt -> In_doubt
    | Some Protocol.Aborted | None -> Loser
  in
  (* One name->server index built up front and reused by the checkpoint
     restore, redo, and undo passes — each lookup O(1) instead of a
     walk over every server per record. *)
  let server_index = Hashtbl.create 16 in
  List.iter
    (fun srv ->
      Hashtbl.replace server_index (Camelot_server.Data_server.name srv) srv)
    servers;
  let server_of name = Hashtbl.find_opt server_index name in
  (* Value replay starts from the last durable checkpoint's snapshot,
     which [Tranman.recover] read in its one pass over the window. *)
  List.iter
    (fun (server, key, value) ->
      match server_of server with
      | Some srv -> Camelot_server.Data_server.restore srv ~key ~value
      | None -> ())
    ck_values;
  let redo_one (u : Record.update) =
    match server_of u.u_server with
    | None -> ()
    | Some srv -> (
        match verdict_of u.u_tid with
        | In_doubt -> Camelot_server.Data_server.recover_in_doubt srv u
        | Winner | Loser -> Camelot_server.Data_server.redo srv u)
  in
  let undo_one (u : Record.update) =
    if verdict_of u.u_tid = Loser then
      match server_of u.u_server with
      | None -> ()
      | Some srv -> Camelot_server.Data_server.undo srv u
  in
  (* Partitioned replay (Yao et al.): bucket the window's updates by
     (server, key) into [partitions] chains and replay each on its own
     fiber. A key's updates form its dependency chain, so no two fibers
     ever touch the same key, and each key's forward/undo order is the
     log order restricted to that key. One partition is the paper's
     single totally-ordered pass on the same machinery. *)
  let k = max 1 partitions in
  let buckets = Array.make k [] in
  List.iter
    (fun (u : Record.update) ->
      let p = Hashtbl.hash (u.u_server ^ "/" ^ u.u_key) mod k in
      buckets.(p) <- u :: buckets.(p))
    updates;
  let live = List.filter (fun chain -> chain <> []) (Array.to_list buckets) in
  if live = [] then Camelot_chaos.point ~site:site_id p_redo_done
  else begin
    let model = Camelot_mach.Site.model site in
    let replay_ms = model.Camelot_mach.Cost_model.recovery_replay_cpu_ms in
    (* charge replay CPU in chunks so k partitions overlap across the
       site's processors without one resource call per record *)
    let chunk = 512 in
    let charge n =
      if replay_ms > 0.0 && n > 0 then
        Camelot_mach.Site.cpu_use site (replay_ms *. float_of_int n)
    in
    let remaining = ref (List.length live) in
    let waiter = ref None in
    let finish () =
      decr remaining;
      if !remaining = 0 then
        match !waiter with
        | Some r -> Camelot_sim.Fiber.resume r (Ok ())
        | None -> ()
    in
    List.iter
      (fun rev_chain ->
        let chain = List.rev rev_chain in
        Camelot_mach.Site.spawn site ~name:"recovery-replay" (fun () ->
            let n = ref 0 in
            List.iter
              (fun u ->
                redo_one u;
                incr n;
                if !n mod chunk = 0 then charge chunk)
              chain;
            charge (!n mod chunk);
            Camelot_chaos.point ~site:site_id p_redo_done;
            (* undo this partition's losers, newest first *)
            List.iter undo_one rev_chain;
            Camelot_chaos.point ~site:site_id p_partition_done;
            finish ()))
      live;
    (* Wait for every partition. The replay fibers belong to the site's
       incarnation group: if a fault point kills the site mid-recovery
       they are cancelled and would never resume us, so a group hook
       turns the kill into [Killed] for the caller (the chaos explorer
       retries the restart). *)
    let group = Camelot_mach.Site.group site in
    if Camelot_sim.Fiber.Group.killed group then raise Camelot_chaos.Killed;
    let hook =
      Camelot_sim.Fiber.Group.register group (fun () ->
          match !waiter with
          | Some r -> Camelot_sim.Fiber.resume r (Error Camelot_chaos.Killed)
          | None -> ())
    in
    Fun.protect
      ~finally:(fun () -> Camelot_sim.Fiber.Group.unregister hook)
      (fun () -> Camelot_sim.Fiber.suspend (fun r -> waiter := Some r))
  end;
  in_doubt
