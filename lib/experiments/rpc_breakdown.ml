open Camelot_sim
open Camelot_mach

let run ?(reps = 1000) () =
  let eng = Engine.create () in
  let model = Cost_model.rt in
  let rng = Rng.create ~seed:21 in
  let a = Site.create eng ~id:0 ~model ~rng:(Rng.split rng) in
  let b = Site.create eng ~id:1 ~model ~rng:(Rng.split rng) in
  (* [rt]'s constants are the paper's measurements, so its legs are the
     paper's breakdown *)
  let paper = Cost_model.rpc_legs model in
  let legs : (string, Stats.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun (label, _) -> Hashtbl.replace legs label (Stats.create ())) paper;
  let leg label ms = Stats.add (Hashtbl.find legs label) ms in
  let total = Stats.create () in
  Fiber.run eng (fun () ->
      for _ = 1 to reps do
        let t0 = Fiber.now () in
        Rpc.call_remote ~legs:leg ~client:a ~server:b (fun () -> ());
        Stats.add total (Fiber.now () -. t0)
      done);
  Report.header
    (Printf.sprintf "§4.1: Breakdown of Camelot RPC latency (%d RPCs)" reps);
  Report.table
    ~columns:[ "LEG"; "MEASURED (ms)"; "PAPER (ms)" ]
    (List.map
       (fun (label, paper_ms) ->
         [
           label;
           Printf.sprintf "%.2f" (Stats.mean (Hashtbl.find legs label));
           Printf.sprintf "%.1f" paper_ms;
         ])
       paper
    @ [
        [
          "TOTAL";
          Printf.sprintf "%.2f" (Stats.mean total);
          Printf.sprintf "%.1f" model.Cost_model.remote_rpc_ms;
        ];
      ])
