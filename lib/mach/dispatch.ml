open Camelot_sim

(* Queue-sharded execution (after Qadah's queue-oriented transaction
   processing): incoming work is routed by key into per-shard queues,
   each drained by a small fixed set of executor fibers, instead of
   spawning one fiber per in-flight transaction. Under open-loop
   arrival the in-flight population is unbounded; here the fiber
   population is [shards * executors_per_shard] no matter the offered
   load — queueing shows up as latency (and, past the knee, as
   load-shedding at the fault point), never as fiber explosion.

   Executors block on their shard exactly like mailbox receivers: a
   ring of pending resumers, dead entries skipped at delivery, with the
   enqueue closure built once per shard. *)

let fp_enqueue = Camelot_chaos.register ~kind:Choice "dispatch.shard.enqueue"

type policy = Fifo | Priority

type job = unit -> unit

type shard = {
  fifo : job Ring.t;  (* Fifo policy *)
  pq : job Heap.t;  (* Priority policy: min priority first *)
  waiters : job Fiber.resumer Ring.t;  (* idle executors *)
  park : job Fiber.resumer -> unit;  (* joins [waiters] *)
}

type t = {
  site : Site.t;
  policy : policy;
  shards : shard array;
  executors_per_shard : int;
  batch : int option;  (* jobs per wakeup quantum; None = legacy loop *)
  mutable seq : int;  (* tiebreak for equal priorities *)
  mutable submitted : int;
  mutable completed : int;
  mutable shed : int;
  mutable max_depth : int;
}

let[@inline] shard_depth t s =
  match t.policy with Fifo -> Ring.length s.fifo | Priority -> Heap.length s.pq

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

let take t s =
  match t.policy with
  | Fifo -> Ring.pop_opt s.fifo
  | Priority -> Heap.pop s.pq

let run_job t job =
  job ();
  t.completed <- t.completed + 1

let executor_loop t s () =
  match t.batch with
  | None ->
      while true do
        match take t s with
        | Some job -> run_job t job
        | None ->
            let job = Fiber.suspend s.park in
            run_job t job
      done
  | Some k ->
      (* Batched dequeue (Qadah's executor quantum): each wakeup pays
         one scheduler context switch, then drains up to [k] queued
         jobs back-to-back before yielding the quantum. The switch cost
         is thereby amortized over the batch — [batch:1] charges it per
         job, the worst case, which is what makes the knee shift
         measurable. *)
      let switch_ms =
        (Site.model t.site).Cost_model.context_switch_us /. 1000.0
      in
      while true do
        let job =
          match take t s with
          | Some job -> job
          | None -> Fiber.suspend s.park
        in
        Site.cpu_use t.site switch_ms;
        run_job t job;
        let n = ref 1 in
        let drained = ref false in
        while (not !drained) && !n < k do
          match take t s with
          | Some job ->
              run_job t job;
              incr n
          | None -> drained := true
        done;
        (* quantum spent with work still queued: yield so peers (other
           executors, newly-resumed transaction fibers) interleave
           before the next wakeup pays its own switch *)
        if shard_depth t s > 0 then Fiber.yield ()
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

let create ?(policy = Fifo) ?(shards = 4) ?(executors_per_shard = 1) ?batch
    site =
  if shards <= 0 then invalid_arg "Dispatch.create: shards must be positive";
  if executors_per_shard <= 0 then
    invalid_arg "Dispatch.create: executors_per_shard must be positive";
  (match batch with
  | Some k when k <= 0 -> invalid_arg "Dispatch.create: batch must be positive"
  | _ -> ());
  let t =
    {
      site;
      policy;
      shards =
        Array.init shards (fun _ ->
            let waiters = Ring.create () in
            {
              fifo = Ring.create ();
              pq = Heap.create ();
              waiters;
              park = (fun r -> Ring.push waiters r);
            });
      executors_per_shard;
      batch;
      seq = 0;
      submitted = 0;
      completed = 0;
      shed = 0;
      max_depth = 0;
    }
  in
  spawn_executors t;
  (* a crash kills the executors with the rest of the incarnation;
     restart re-staffs the shards (queued jobs survive in the queues —
     whether they can still do useful work is the job's problem) *)
  Site.on_restart site (fun () -> spawn_executors t);
  t

let shards t = Array.length t.shards

(* Fibonacci-hash the key so adjacent hot keys spread across shards. *)
let shard_of_key t key =
  (key * 0x9E3779B97F4A7C1 land max_int) mod Array.length t.shards

let submit t ?(priority = 0.0) ~shard job =
  if Camelot_chaos.deny ~site:(Site.id t.site) fp_enqueue then begin
    t.shed <- t.shed + 1;
    false
  end
  else begin
    let s = t.shards.(shard) in
    t.submitted <- t.submitted + 1;
    (if not (wake_waiter s job) then
       match t.policy with
       | Fifo -> Ring.push s.fifo job
       | Priority ->
           let seq = t.seq in
           t.seq <- seq + 1;
           Heap.push s.pq ~priority ~seq job);
    let d = shard_depth t s in
    if d > t.max_depth then t.max_depth <- d;
    true
  end

let submit_key t ?priority ~key job =
  submit t ?priority ~shard:(shard_of_key t key) job

let depth t =
  Array.fold_left (fun acc s -> acc + shard_depth t s) 0 t.shards

let submitted t = t.submitted
let completed t = t.completed
let shed t = t.shed
let max_depth t = t.max_depth
