module Dedup = struct
  type t = {
    capacity : int;
    table : (string, unit) Hashtbl.t;
    order : string Queue.t;
  }

  let create ?(capacity = 4096) () =
    if capacity <= 0 then invalid_arg "Dedup.create: capacity must be positive";
    { capacity; table = Hashtbl.create 64; order = Queue.create () }

  let seen t key =
    if Hashtbl.mem t.table key then true
    else begin
      Hashtbl.replace t.table key ();
      Queue.add key t.order;
      if Queue.length t.order > t.capacity then begin
        let oldest = Queue.pop t.order in
        Hashtbl.remove t.table oldest
      end;
      false
    end

  let size t = Hashtbl.length t.table
end

module Retransmitter = struct
  type t = {
    eng : Camelot_sim.Engine.t;
    every : float;
    max_tries : int option;
    send : unit -> unit;
    mutable tries : int;
    mutable stopped : bool;
    mutable timer : Camelot_sim.Engine.timer; (* the armed re-fire *)
  }

  let rec fire t =
    if not t.stopped then begin
      match t.max_tries with
      | Some n when t.tries >= n -> t.stopped <- true
      | Some _ | None ->
          t.tries <- t.tries + 1;
          t.send ();
          t.timer <-
            Camelot_sim.Engine.schedule_timer t.eng ~delay:t.every (fun () ->
                fire t)
    end

  let start eng ~every ?max_tries send =
    if every <= 0.0 then invalid_arg "Retransmitter.start: period must be positive";
    let t =
      {
        eng;
        every;
        max_tries;
        send;
        tries = 0;
        stopped = false;
        timer = Camelot_sim.Engine.no_timer;
      }
    in
    fire t;
    t

  let stop t =
    t.stopped <- true;
    (* drop the pending re-fire event instead of letting a dead closure
       (capturing [send] and whatever it captures) ride the event queue
       until its deadline *)
    Camelot_sim.Engine.cancel t.eng t.timer

  let tries t = t.tries
  let stopped t = t.stopped
end
