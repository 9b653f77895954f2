(* A waiting receiver is its fiber's resumer, queued FIFO. A timed
   receive also arms a cancellable engine timer, held in a parallel
   ring at the same position ([Engine.no_timer] for an untimed one), so
   a wait allocates no record of its own. A waiter is live while its
   resumer is pending: its timeout and a group kill both resume it, and
   senders skip it from then on. Delivery, or skipping a dead waiter,
   cancels the timer so the timeout closure does not linger in the
   event queue. *)
type 'a t = {
  eng : Engine.t;
  items : 'a Ring.t;
  waiters : 'a option Fiber.resumer Ring.t;
  timers : Engine.timer Ring.t;
  wait : 'a option Fiber.resumer -> unit;  (* untimed receive *)
}

let create eng =
  let rec t =
    {
      eng;
      items = Ring.create ();
      waiters = Ring.create ();
      timers = Ring.create ();
      wait =
        (fun r ->
          Ring.push t.waiters r;
          Ring.push t.timers Engine.no_timer);
    }
  in
  t

let timed_out = Ok None

let rec send t v =
  if Ring.is_empty t.waiters then Ring.push t.items v
  else begin
    let r = Ring.pop_exn t.waiters in
    Engine.cancel t.eng (Ring.pop_exn t.timers);
    if Fiber.is_pending r then Fiber.resume r (Ok (Some v)) else send t v
  end

let try_recv t = Ring.pop_opt t.items

let recv t =
  if not (Ring.is_empty t.items) then Ring.pop_exn t.items
  else
    match Fiber.suspend t.wait with
    | Some v -> v
    | None -> assert false (* no timeout was armed *)

let recv_timeout t d =
  if not (Ring.is_empty t.items) then Some (Ring.pop_exn t.items)
  else
    (* the timer first: a delay it rejects leaves no waiter behind *)
    Fiber.suspend (fun r ->
        let timer =
          Engine.schedule_timer t.eng ~delay:d (fun () ->
              if Fiber.is_pending r then Fiber.resume r timed_out)
        in
        Ring.push t.waiters r;
        Ring.push t.timers timer)

let waiters t =
  Ring.fold (fun acc r -> if Fiber.is_pending r then acc + 1 else acc) 0 t.waiters

let clear t = Ring.clear t.items
