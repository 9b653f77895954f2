(* A waiter is its fiber's resumer, queued in a [Ring] (no cell
   allocation per waiter, unlike [Queue]). *)

let ok = Ok ()

(* Wake the oldest waiter whose fiber is still suspended; cancelled
   fibers (e.g. from a crashed site) are skipped so permits are never
   lost. [false] if nobody was waiting. *)
let rec wake_next waiters =
  if Ring.is_empty waiters then false
  else
    let r = Ring.pop_exn waiters in
    if Fiber.is_pending r then begin
      Fiber.resume r ok;
      true
    end
    else wake_next waiters

module Mutex = struct
  (* A mutex stays small, since a transaction family may build one:
     only a contended [lock] builds its enqueue closure. *)
  type t = {
    mutable held : bool;
    waiters : unit Fiber.resumer Ring.t;
  }

  let create () = { held = false; waiters = Ring.create () }

  let lock t =
    if not t.held then t.held <- true
    else Fiber.suspend (fun resume -> Ring.push t.waiters resume)

  let locked t = t.held

  let unlock t =
    if not t.held then invalid_arg "Sync.Mutex.unlock: not locked";
    (* ownership passes directly to the woken waiter *)
    if not (wake_next t.waiters) then t.held <- false

  let with_lock t f =
    lock t;
    match f () with
    | v ->
        unlock t;
        v
    | exception e ->
        unlock t;
        raise e
end

module Semaphore = struct
  (* A timed resource queues on its semaphore constantly, so the
     enqueue closure is built once with it. *)
  type t = {
    mutable permits : int;
    waiters : unit Fiber.resumer Ring.t;
    enqueue : unit Fiber.resumer -> unit;
  }

  let create n =
    if n < 0 then invalid_arg "Sync.Semaphore.create: negative permits";
    let waiters = Ring.create () in
    { permits = n; waiters; enqueue = (fun r -> Ring.push waiters r) }

  let acquire t =
    if t.permits > 0 then t.permits <- t.permits - 1 else Fiber.suspend t.enqueue

  let release t = if not (wake_next t.waiters) then t.permits <- t.permits + 1

  let available t = t.permits
end

module Resource = struct
  (* a record of floats only is stored flat, so updating it allocates
     nothing (a [float ref] is generic and boxes every store) *)
  type busy = { mutable busy : float }

  type t = {
    servers : int;
    sem : Semaphore.t;
    busy_time : busy;
    mutable completions : int;
    mutable waiting : int;
  }

  let create ?(servers = 1) (_ : Engine.t) =
    if servers <= 0 then invalid_arg "Sync.Resource.create: servers must be positive";
    {
      servers;
      sem = Semaphore.create servers;
      busy_time = { busy = 0.0 };
      completions = 0;
      waiting = 0;
    }

  let use t ~duration =
    if duration < 0.0 then invalid_arg "Sync.Resource.use: negative duration";
    t.waiting <- t.waiting + 1;
    (try Semaphore.acquire t.sem
     with e ->
       t.waiting <- t.waiting - 1;
       raise e);
    t.waiting <- t.waiting - 1;
    (* release the server even if the holder's site crashes mid-use *)
    (try Fiber.sleep duration
     with e ->
       Semaphore.release t.sem;
       raise e);
    t.busy_time.busy <- t.busy_time.busy +. duration;
    t.completions <- t.completions + 1;
    Semaphore.release t.sem

  let servers t = t.servers
  let in_use t = t.servers - Semaphore.available t.sem
  let busy_time t = t.busy_time.busy
  let completions t = t.completions
  let queue_length t = t.waiting
end
