open Camelot_sim
open Camelot_core

type variant =
  | Optimized_write
  | Semi_optimized_write
  | Unoptimized_write
  | Read_only

type latency_result = {
  total : Stats.summary;
  tranman : Stats.summary;
  total_samples : Stats.t;
}

let state_variant = function
  | Optimized_write | Read_only -> State.Optimized
  | Semi_optimized_write -> State.Semi_optimized
  | Unoptimized_write -> State.Unoptimized

let warmup = 3

let minimal_transactions ?(multicast = false) ~protocol ~variant ~subordinates
    ~reps () =
  let c = Camelot.Cluster.create ~seed:42 ~sites:(subordinates + 1) () in
  Camelot.Cluster.each_config c (fun cfg ->
      cfg.State.two_phase_variant <- state_variant variant;
      cfg.State.multicast <- multicast);
  let total = Stats.create () in
  let tranman = Stats.create () in
  let tm = Camelot.Cluster.tranman c 0 in
  let model = Camelot_mach.Cost_model.rt in
  let op_cost =
    (* the paper's subtraction: 3.5ms local operation + 29ms per remote
       operation *)
    model.Camelot_mach.Cost_model.local_ipc_to_server_ms
    +. model.Camelot_mach.Cost_model.get_lock_ms
    +. float_of_int subordinates
       *. (model.Camelot_mach.Cost_model.remote_rpc_ms
          +. model.Camelot_mach.Cost_model.get_lock_ms)
  in
  Fiber.run (Camelot.Cluster.engine c) (fun () ->
      for rep = 1 to reps do
        let t0 = Fiber.now () in
        let tid = Tranman.begin_transaction tm in
        for site = 0 to subordinates do
          let o =
            match variant with
            | Read_only -> Camelot_server.Data_server.Read "elt"
            | Optimized_write | Semi_optimized_write | Unoptimized_write ->
                Camelot_server.Data_server.Add ("elt", 1)
          in
          ignore (Camelot.Cluster.op c ~origin:0 tid ~site o : int)
        done;
        let outcome = Tranman.commit tm ~protocol tid in
        (match outcome with
        | Protocol.Committed -> ()
        | Protocol.Aborted -> failwith "minimal transaction aborted");
        let elapsed = Fiber.now () -. t0 in
        if rep > warmup then begin
          Stats.add total elapsed;
          Stats.add tranman (elapsed -. op_cost)
        end
      done);
  { total = Stats.summarize total; tranman = Stats.summarize tranman; total_samples = total }

type throughput_result = {
  pairs : int;
  threads : int;
  group_commit : bool;
  tps : float;
  committed : int;
}

let throughput ~update_fraction ~pairs ~threads ~group_commit ~horizon_ms () =
  (* the rig's seed, and each application's mean think time (ms) *)
  let seed = 42 and think_ms = 15.0 in
  let config = State.default_config ~threads () in
  let c =
    Camelot.Cluster.create ~seed ~model:Camelot_mach.Cost_model.vax ~config
      ~servers_per_site:pairs
      ~logger:
        (if group_commit then Camelot.Cluster.Group_commit { window_ms = 0.0 }
         else Camelot.Cluster.Unbatched)
      ~sites:1 ()
  in
  let tm = Camelot.Cluster.tranman c 0 in
  let committed = ref 0 in
  let site = (Camelot.Cluster.node c 0).Camelot.Cluster.site in
  let think_rng = Rng.create ~seed:(seed + 17) in
  let mix_rng = Rng.create ~seed:(seed + 23) in
  for pair = 0 to pairs - 1 do
    Camelot_mach.Site.spawn site (fun () ->
        let rec loop () =
          if Fiber.now () < horizon_ms then begin
            (* a little application think time between transactions
               desynchronizes the clients, as real processes are *)
            Fiber.sleep (Rng.exponential think_rng ~mean:think_ms);
            let tid = Tranman.begin_transaction tm in
            let o =
              if Rng.bool mix_rng ~p:update_fraction then
                Camelot_server.Data_server.Add ("k", 1)
              else Camelot_server.Data_server.Read "k"
            in
            ignore (Camelot.Cluster.op c ~origin:0 tid ~site:0 ~index:pair o : int);
            (match Tranman.commit tm tid with
            | Protocol.Committed -> if Fiber.now () <= horizon_ms then incr committed
            | Protocol.Aborted -> ());
            loop ()
          end
        in
        loop ())
  done;
  Camelot.Cluster.run ~until:horizon_ms c;
  {
    pairs;
    threads;
    group_commit;
    tps = float_of_int !committed /. (horizon_ms /. 1000.0);
    committed = !committed;
  }
