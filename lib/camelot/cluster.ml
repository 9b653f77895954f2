open Camelot_sim
open Camelot_mach
open Camelot_core

type node = {
  site : Site.t;
  log : Record.t Camelot_wal.Log.t;
  tranman : Tranman.t;
  mutable servers : Camelot_server.Data_server.t list;
}

type logger = Camelot_wal.Log.policy =
  | Unbatched
  | Group_commit of { window_ms : float }
  | Adaptive

type t = {
  engine : Engine.t;
  lan : Camelot_net.Lan.t;
  model : Cost_model.t;
  nodes : node array;
  flush_every_ms : float;
  checkpoint_every : int option;
  recovery_partitions : int;
}

(* Chaos fault point: a crash between the checkpoint record becoming
   durable and the truncation that relies on it. *)
let p_truncate = Camelot_chaos.register "wal.truncate"

let server_name ~site_id ~index = Printf.sprintf "s%d_%d" site_id index

(* Force a checkpoint record (committed value snapshot, in-flight
   updates, live family images) and, when [truncate], drop everything
   below it: the checkpoint now summarizes the discarded history. *)
let checkpoint_node ?(truncate = true) n =
  let images = List.map Camelot_server.Data_server.checkpoint n.servers in
  let ck_values = List.concat_map fst images in
  let ck_active = List.concat_map snd images in
  let ck_families = Tranman.family_images n.tranman in
  let ck_lsn =
    Camelot_wal.Log.append n.log
      (Record.Checkpoint { ck_values; ck_active; ck_families })
  in
  Camelot_wal.Log.force n.log;
  (* a crash landing here leaves a durable checkpoint with the old
     history still in place — recovery must cope with both sides *)
  Camelot_chaos.point ~site:(Site.id n.site) p_truncate;
  if truncate then Camelot_wal.Log.truncate n.log ~keep_from:ck_lsn

(* Automatic checkpointer: every poll period, checkpoint-and-truncate
   once the held window has grown past [every] records. Pinned to the
   incarnation that spawned it, like the log daemons. *)
let start_checkpointer ~flush_every_ms n ~every =
  let site = n.site in
  let inc = Site.incarnation site in
  Site.spawn site ~name:"checkpointer" (fun () ->
      let rec loop () =
        Fiber.sleep flush_every_ms;
        if Site.alive site && Site.incarnation site = inc then begin
          let held =
            Camelot_wal.Log.tail_lsn n.log - Camelot_wal.Log.base_lsn n.log + 1
          in
          if held >= every then checkpoint_node n;
          loop ()
        end
      in
      loop ())

let create ?(seed = 1) ?(model = Cost_model.rt) ?config ?(servers_per_site = 1)
    ?(logger = Unbatched) ?checkpoint_every ?(recovery_partitions = 1)
    ?lock_timeout_ms ~sites () =
  if sites <= 0 then invalid_arg "Cluster.create: need at least one site";
  (match checkpoint_every with
  | Some n when n <= 0 -> invalid_arg "Cluster.create: checkpoint_every must be positive"
  | _ -> ());
  if recovery_partitions <= 0 then
    invalid_arg "Cluster.create: recovery_partitions must be positive";
  let engine = Engine.create () in
  (* every schedule depends on this split order: one for the LAN, then
     one per site *)
  let rng = Rng.create ~seed in
  let lan = Camelot_net.Lan.create engine ~model ~rng:(Rng.split rng) in
  let directory = Hashtbl.create 16 in
  let base_config =
    match config with Some c -> c | None -> State.default_config ()
  in
  (* background log flush period: long enough never to compete with
     foreground forces *)
  let flush_every_ms = Float.max 50.0 (4.0 *. model.Cost_model.log_force_ms) in
  let nodes =
    Array.init sites (fun id ->
        let site = Site.create engine ~id ~model ~rng:(Rng.split rng) in
        let log = Camelot_wal.Log.create ~policy:logger site in
        Camelot_wal.Log.start log ~flush_every:flush_every_ms;
        let tranman =
          Tranman.create site ~lan ~log ~directory
            ~config:(State.copy_config base_config)
        in
        let servers =
          List.init servers_per_site (fun index ->
              Camelot_server.Data_server.create
                ~name:(server_name ~site_id:id ~index)
                ~tranman ~log ?lock_timeout_ms ())
        in
        { site; log; tranman; servers })
  in
  let t =
    {
      engine;
      lan;
      model;
      nodes;
      flush_every_ms;
      checkpoint_every;
      recovery_partitions;
    }
  in
  (match checkpoint_every with
  | None -> ()
  | Some every ->
      Array.iter (fun n -> start_checkpointer ~flush_every_ms n ~every) t.nodes);
  t

let engine t = t.engine
let lan t = t.lan
let lans t = [ t.lan ]
let sites t = Array.length t.nodes

let node t i =
  if i < 0 || i >= Array.length t.nodes then invalid_arg "Cluster.node: bad site";
  t.nodes.(i)

let tranman t i = (node t i).tranman
let log t i = (node t i).log

let server t ?(index = 0) i =
  match List.nth_opt (node t i).servers index with
  | Some srv -> srv
  | None -> invalid_arg "Cluster.server: bad server index"

let config t i = Tranman.config (tranman t i)

let each_config t f = Array.iter (fun n -> f (Tranman.config n.tranman)) t.nodes

let op t ~origin tid ~site:site_id ?(index = 0) o =
  let origin_tm = tranman t origin in
  let srv = server t ~index site_id in
  if site_id = origin then
    Comm.call_local origin_tm ~tid (fun () ->
        Camelot_server.Data_server.execute srv tid o)
  else
    Comm.call_remote ~origin:origin_tm ~tid
      ~server_site:(node t site_id).site (fun () ->
        try Camelot_server.Data_server.execute srv tid o
        with Camelot_lock.Lock_table.Broken ->
          (* server crashed while we waited for a lock: the connection
             breaks like any other mid-call failure *)
          Fiber.sleep Rpc.rpc_timeout_ms;
          raise
            (Rpc.Rpc_failure
               { callee = site_id; reason = "server crashed during lock wait" }))

let checkpoint ?truncate t i = checkpoint_node ?truncate (node t i)

let crash_site t i =
  let n = node t i in
  Site.crash n.site;
  Camelot_wal.Log.crash n.log;
  (* remote callers blocked in this site's lock tables run on their own
     sites' fibers, so the group kill above does not reach them *)
  List.iter Camelot_server.Data_server.break_waiters n.servers

let restart_site t i =
  let n = node t i in
  Site.restart n.site;
  Camelot_wal.Log.start n.log ~flush_every:t.flush_every_ms;
  (match t.checkpoint_every with
  | None -> ()
  | Some every -> start_checkpointer ~flush_every_ms:t.flush_every_ms n ~every);
  Tranman.restart n.tranman;
  List.iter
    (fun srv ->
      Camelot_server.Data_server.reset srv;
      Camelot_server.Data_server.reattach srv)
    n.servers;
  Camelot_recovery.Recovery.run ~partitions:t.recovery_partitions
    ~tranman:n.tranman ~servers:n.servers ()

let partition t groups = Camelot_net.Lan.partition t.lan groups

let heal t = Camelot_net.Lan.heal t.lan

let run ?until t = Engine.run ?until t.engine
