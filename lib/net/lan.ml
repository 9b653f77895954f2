open Camelot_sim
open Camelot_mach

type nic = { mutable busy_until : float }

type t = {
  eng : Engine.t;
  model : Cost_model.t;
  rng : Rng.t;
  loss : float;
  nics : (Site.id, nic) Hashtbl.t;
  cut_links : (Site.id * Site.id, unit) Hashtbl.t;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
}

type 'a endpoint = { site : Site.t; mutable handler : 'a -> unit }

let create ?(loss = 0.0) eng ~model ~rng =
  if loss < 0.0 || loss >= 1.0 then invalid_arg "Lan.create: loss must be in [0,1)";
  {
    eng;
    model;
    rng;
    loss;
    nics = Hashtbl.create 16;
    cut_links = Hashtbl.create 16;
    sent = 0;
    delivered = 0;
    dropped = 0;
  }

let endpoint _t site handler = { site; handler }

let set_handler ep handler = ep.handler <- handler

let link_key a b = if a < b then (a, b) else (b, a)

let reachable t a b = a = b || not (Hashtbl.mem t.cut_links (link_key a b))

let partition t groups =
  let tagged =
    List.concat (List.mapi (fun i group -> List.map (fun s -> (s, i)) group) groups)
  in
  List.iter
    (fun (a, ga) ->
      List.iter
        (fun (b, gb) ->
          if ga <> gb then Hashtbl.replace t.cut_links (link_key a b) ())
        tagged)
    tagged

let heal t = Hashtbl.reset t.cut_links

let nic t site =
  match Hashtbl.find_opt t.nics (Site.id site) with
  | Some n -> n
  | None ->
      let n = { busy_until = 0.0 } in
      Hashtbl.replace t.nics (Site.id site) n;
      n

(* Chaos fault point: targeted drop of the k-th datagram leaving a
   site. Consulted after the loss draw so the RNG stream is identical
   whether or not an explorer is attached. *)
let p_datagram = Camelot_chaos.register ~kind:Camelot_chaos.Choice "net.datagram"

(* Transmit one already-serialized datagram: the sender's cycle-time has
   been charged by the caller; [start] is when the bits leave the NIC. *)
let transmit t ~src ~start ep msg =
  t.sent <- t.sent + 1;
  let src_id = Site.id src in
  let dst_id = Site.id ep.site in
  if Rng.bool t.rng ~p:t.loss then t.dropped <- t.dropped + 1
  else if Camelot_chaos.deny ~site:src_id p_datagram then
    t.dropped <- t.dropped + 1
  else begin
    let jitter = Rng.exponential t.rng ~mean:t.model.Cost_model.datagram_jitter_ms in
    let arrival = start +. t.model.Cost_model.datagram_ms +. jitter in
    Engine.schedule_at t.eng ~time:arrival (fun () ->
        if Site.alive ep.site && reachable t src_id dst_id then begin
          t.delivered <- t.delivered + 1;
          ep.handler msg
        end
        else t.dropped <- t.dropped + 1)
  end

(* Serialize on the source NIC: each datagram occupies the interface for
   one cycle time — occasionally much longer when the sending process
   loses the CPU or the ring (the heavy tail that dominates measured
   variance). Returns the moment this transmission completes. *)
let occupy t src =
  let n = nic t src in
  let now = Engine.now t.eng in
  let queued = if n.busy_until > now then n.busy_until else now in
  let hiccup =
    if Rng.bool t.rng ~p:t.model.Cost_model.send_hiccup_p then
      Rng.exponential t.rng ~mean:t.model.Cost_model.send_hiccup_ms
    else 0.0
  in
  (* the stall delays this transmission; the cycle time holds the
     interface for everything behind it *)
  let start = queued +. hiccup in
  n.busy_until <- start +. t.model.Cost_model.datagram_cycle_ms;
  start

let send t ~src ep msg =
  if Site.alive src then begin
    let start = occupy t src in
    transmit t ~src ~start ep msg
  end

let send_piggybacked t ~src ep msg =
  (* rides a message that is being sent anyway: no occupancy charge,
     no hiccup exposure *)
  if Site.alive src then transmit t ~src ~start:(Engine.now t.eng) ep msg

let multicast t ~src eps msg =
  if Site.alive src then begin
    let start = occupy t src in
    List.iter (fun ep -> transmit t ~src ~start ep msg) eps
  end

let sent t = t.sent
let delivered t = t.delivered
let dropped t = t.dropped
