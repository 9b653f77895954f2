open Camelot_sim

(* Queue-sharded execution (after Qadah's queue-oriented transaction
   processing): incoming work is routed by key into per-shard queues,
   each drained by a small fixed set of executor fibers, instead of
   spawning one fiber per in-flight transaction. Under open-loop
   arrival the in-flight population is unbounded; here the fiber
   population is [shards * executors_per_shard] no matter the offered
   load — queueing shows up as latency (and, past the knee, as
   load-shedding at the fault point), never as fiber explosion. With
   one shard this is the TranMan's C-Threads pool (§3.4): identical
   workers taking any input from one queue.

   Executors block on their shard exactly like mailbox receivers: a
   ring of pending resumers, dead entries skipped at delivery, with the
   enqueue closure built once per shard. *)

let fp_enqueue = Camelot_chaos.register ~kind:Choice "dispatch.shard.enqueue"

type job = unit -> unit

type shard = {
  queue : job Ring.t;
  waiters : job Fiber.resumer Ring.t;  (* idle executors *)
  park : job Fiber.resumer -> unit;  (* joins [waiters] *)
}

type t = {
  site : Site.t;
  shards : shard array;
  executors_per_shard : int;
  mutable submitted : int;
  mutable completed : int;
  mutable shed : int;
  mutable max_depth : int;
}

(* Hand [job] to the oldest idle executor still alive; [false] if
   there is none. *)
let rec wake_waiter s job =
  if Ring.is_empty s.waiters then false
  else
    let r = Ring.pop_exn s.waiters in
    if Fiber.is_pending r then begin
      Fiber.resume r (Ok job);
      true
    end
    else wake_waiter s job

(* Pop the next job, or park until [submit] hands one over. No context
   switch is charged (see [Cost_model.context_switch_us]). A job runs
   in its executor's fiber, so an exception it raises leaves as the
   executor's death ([Fiber.Died]) and stops the simulation. *)
let executor_loop t s () =
  while true do
    let job =
      if Ring.is_empty s.queue then Fiber.suspend s.park else Ring.pop_exn s.queue
    in
    job ();
    t.completed <- t.completed + 1
  done

let spawn_executors t =
  Array.iteri
    (fun i s ->
      for e = 0 to t.executors_per_shard - 1 do
        Site.spawn t.site
          ~name:(Printf.sprintf "dispatch-%d.%d" i e)
          (executor_loop t s)
      done)
    t.shards

let create ?(shards = 4) ?(executors_per_shard = 1) site =
  if shards <= 0 then invalid_arg "Dispatch.create: shards must be positive";
  if executors_per_shard <= 0 then
    invalid_arg "Dispatch.create: executors_per_shard must be positive";
  let t =
    {
      site;
      shards =
        Array.init shards (fun _ ->
            let waiters = Ring.create () in
            { queue = Ring.create (); waiters; park = (fun r -> Ring.push waiters r) });
      executors_per_shard;
      submitted = 0;
      completed = 0;
      shed = 0;
      max_depth = 0;
    }
  in
  spawn_executors t;
  (* the queues belong to one incarnation, like the executors a crash
     kills: restart drops the jobs queued in the old one, then
     re-staffs the shards *)
  Site.on_restart site (fun () ->
      Array.iter
        (fun s ->
          Ring.clear s.queue;
          Ring.clear s.waiters)
        t.shards;
      spawn_executors t);
  t

let shards t = Array.length t.shards

(* Fibonacci-hash the key so adjacent hot keys spread across shards. *)
let shard_of_key t key =
  (key * 0x9E3779B97F4A7C1 land max_int) mod Array.length t.shards

let submit t ~shard job =
  let s = t.shards.(shard) in
  t.submitted <- t.submitted + 1;
  if not (wake_waiter s job) then Ring.push s.queue job;
  let d = Ring.length s.queue in
  if d > t.max_depth then t.max_depth <- d

let submit_key t ~key job =
  if Camelot_chaos.deny ~site:(Site.id t.site) fp_enqueue then begin
    t.shed <- t.shed + 1;
    false
  end
  else begin
    submit t ~shard:(shard_of_key t key) job;
    true
  end

let depth t = Array.fold_left (fun acc s -> acc + Ring.length s.queue) 0 t.shards

let submitted t = t.submitted
let completed t = t.completed
let shed t = t.shed
let max_depth t = t.max_depth
