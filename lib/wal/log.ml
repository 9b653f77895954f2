open Camelot_sim

type lsn = int

type policy = Unbatched | Group_commit of { window_ms : float } | Adaptive

type batch_stats = {
  bs_writes : int;  (* physical writes that carried >= 1 record *)
  bs_records : int;  (* records covered by those writes *)
  bs_hist : (int * int) list;  (* (bucket upper bound, writes) *)
  bs_force_lat_n : int;
  bs_force_lat_mean_ms : float;
  bs_force_lat_max_ms : float;
  bs_lag_mean : float;  (* records still volatile when a write lands *)
  bs_lag_max : int;
}

type 'a t = {
  site : Camelot_mach.Site.t;
  disk : Sync.Resource.t;
  cond : Sync.Condition.t;
  cond_mutex : Sync.Mutex.t;
  mutable records : 'a array;
  mutable base : lsn;  (* LSN of records.(0); advanced by [truncate] *)
  mutable size : int;  (* live slots: records.(0 .. size-1) *)
  mutable durable : lsn;
  mutable writing : bool;
  policy : policy;
  (* daemon state *)
  waiters : unit Fiber.resumer Heap.t;  (* min-heap keyed by target LSN *)
  mutable waiter_seq : int;
  kick : unit Mailbox.t;  (* foreground -> controller *)
  wkick : unit Mailbox.t;  (* controller -> writer *)
  mutable serialized : lsn;  (* highest LSN whose batch CPU was charged *)
  mutable write_hi : lsn;  (* highest target handed to the writer *)
  mutable force_hi : lsn;  (* highest LSN any waiter asked to be durable *)
  mutable last_force_at : float;
  mutable ewma_gap_ms : float;  (* EWMA of force inter-arrival, <0 = unknown *)
  (* counters *)
  mutable forces : int;
  mutable disk_writes : int;
  mutable truncations : int;
  batch_hist : int array;  (* log2 buckets: 1, 2, 4, ... 64, >=128 *)
  mutable batch_writes : int;
  mutable batch_records : int;
  mutable force_lat_sum : float;
  mutable force_lat_max : float;
  mutable force_lat_n : int;
  mutable lag_sum : int;
  mutable lag_max : int;
  mutable lag_n : int;
}

let create ?(policy = Unbatched) site =
  let eng = Camelot_mach.Site.engine site in
  {
    site;
    disk =
      Sync.Resource.create eng
        ~name:(Printf.sprintf "site%d.logdisk" (Camelot_mach.Site.id site));
    cond = Sync.Condition.create eng;
    cond_mutex = Sync.Mutex.create ();
    records = [||];
    base = 0;
    size = 0;
    durable = -1;
    writing = false;
    policy;
    waiters = Heap.create ();
    waiter_seq = 0;
    kick = Mailbox.create eng;
    wkick = Mailbox.create eng;
    serialized = -1;
    write_hi = -1;
    force_hi = -1;
    last_force_at = -1.0;
    ewma_gap_ms = -1.0;
    forces = 0;
    disk_writes = 0;
    truncations = 0;
    batch_hist = Array.make 8 0;
    batch_writes = 0;
    batch_records = 0;
    force_lat_sum = 0.0;
    force_lat_max = 0.0;
    force_lat_n = 0;
    lag_sum = 0;
    lag_max = 0;
    lag_n = 0;
  }

(* the daemon serializes whole batches on its own fiber *)
let defers_spool_cpu t =
  match t.policy with Adaptive -> true | Unbatched | Group_commit _ -> false

let append t record =
  let capacity = Array.length t.records in
  if t.size = capacity then begin
    let bigger = Array.make (max 64 (2 * capacity)) record in
    Array.blit t.records 0 bigger 0 t.size;
    t.records <- bigger
  end;
  t.records.(t.size) <- record;
  t.size <- t.size + 1;
  t.base + t.size - 1

let tail_lsn t = t.base + t.size - 1

let durable_lsn t = t.durable

let base_lsn t = t.base

let get t lsn =
  if lsn < t.base || lsn > tail_lsn t then invalid_arg "Log.get: bad lsn";
  t.records.(lsn - t.base)

let force_ms t = (Camelot_mach.Site.model t.site).Camelot_mach.Cost_model.log_force_ms

(* Chaos fault points: a torn force — the site dies mid-write, all but
   the last spooled record land, and the force never returns — and the
   daemon's drain-and-serialize pass. *)
let p_torn = Camelot_chaos.register ~kind:Camelot_chaos.Choice "wal.force.torn"
let p_batch = Camelot_chaos.register "wal.daemon.batch"

let note_batch t ~target =
  let n = target - t.durable in
  if n > 0 then begin
    t.batch_writes <- t.batch_writes + 1;
    t.batch_records <- t.batch_records + n;
    let rec bucket i v = if v <= 1 || i >= 7 then i else bucket (i + 1) (v / 2) in
    let b = bucket 0 n in
    t.batch_hist.(b) <- t.batch_hist.(b) + 1
  end

let note_lag t ~target =
  let lag = tail_lsn t - target in
  if lag >= 0 then begin
    t.lag_sum <- t.lag_sum + lag;
    if lag > t.lag_max then t.lag_max <- lag;
    t.lag_n <- t.lag_n + 1
  end

(* Wake exactly the waiters whose target is now durable — never a
   broadcast. Resumers of crashed fibers are fired already; [resume]
   on them is a no-op. *)
let wake_waiters t =
  let rec drain () =
    if (not (Heap.is_empty t.waiters)) && Heap.min_priority t.waiters <= float_of_int t.durable
    then begin
      Fiber.resume (Heap.pop_exn t.waiters) (Ok ());
      drain ()
    end
  in
  drain ()

(* One physical write makes everything spooled at [target] durable.
   A write whose site died (or died and restarted) while it was on the
   platter is dropped: a fiber woken in the crash instant runs one more
   step after [crash] has cut the tail, and must not advance [durable]
   past it. *)
let disk_write_to t ~target =
  let site = t.site in
  let inc = Camelot_mach.Site.incarnation site in
  ignore (Sync.Resource.use t.disk ~duration:(force_ms t) : float);
  if Camelot_mach.Site.alive site && Camelot_mach.Site.incarnation site = inc
  then begin
    t.disk_writes <- t.disk_writes + 1;
    let site_id = Camelot_mach.Site.id site in
    if Camelot_chaos.deny ~site:site_id p_torn then begin
      (* the partial-durability update must precede the crash so
         [crash]'s truncation sees the torn write's true extent *)
      if target - 1 > t.durable then t.durable <- target - 1;
      Camelot_chaos.die ~site:site_id ()
    end;
    note_batch t ~target;
    if target > t.durable then t.durable <- target;
    note_lag t ~target;
    wake_waiters t;
    Sync.Condition.broadcast t.cond
  end

let disk_write t = disk_write_to t ~target:(tail_lsn t)

(* --- group commit: leader/follower batching ------------------------ *)

let rec force_batched t ~window_ms target =
  if target > t.durable then begin
    if t.writing then begin
      (* a leader's write is in flight; wait for it and re-check *)
      Sync.Mutex.lock t.cond_mutex;
      (* re-read [durable] under the mutex before committing to a wait:
         the leader's write may have landed — possibly exactly at
         [target] — while this fiber was acquiring the lock, in which
         case the broadcast it would wait for has already happened *)
      if target > t.durable && t.writing then
        Sync.Condition.wait t.cond t.cond_mutex;
      Sync.Mutex.unlock t.cond_mutex;
      force_batched t ~window_ms target
    end
    else begin
      t.writing <- true;
      (* let forces issued at this same instant spool their records
         into this batch before the I/O is issued *)
      if window_ms > 0.0 then Fiber.sleep window_ms else Fiber.yield ();
      disk_write t;
      t.writing <- false;
      Sync.Condition.broadcast t.cond
    end
  end

(* --- daemon mode: LSN-ordered parking ---------------------------- *)

let park t ~target =
  Fiber.suspend (fun r ->
      let seq = t.waiter_seq in
      t.waiter_seq <- seq + 1;
      Heap.push t.waiters ~priority:(float_of_int target) ~seq r;
      if target > t.force_hi then begin
        t.force_hi <- target;
        Mailbox.send t.kick ()
      end)

let force_daemon t target =
  if target > t.durable then begin
    (* feed the adaptive window: EWMA of force inter-arrival gaps *)
    let now = Fiber.now () in
    if t.last_force_at >= 0.0 then begin
      let gap = now -. t.last_force_at in
      t.ewma_gap_ms <-
        (if t.ewma_gap_ms < 0.0 then gap
         else (0.75 *. t.ewma_gap_ms) +. (0.25 *. gap))
    end;
    t.last_force_at <- now;
    park t ~target;
    let lat = Fiber.now () -. now in
    t.force_lat_sum <- t.force_lat_sum +. lat;
    if lat > t.force_lat_max then t.force_lat_max <- lat;
    t.force_lat_n <- t.force_lat_n + 1
  end

let force t =
  let target = tail_lsn t in
  t.forces <- t.forces + 1;
  if target > t.durable then
    match t.policy with
    | Unbatched -> disk_write t
    | Group_commit { window_ms } -> force_batched t ~window_ms target
    | Adaptive -> force_daemon t target

let append_force t record =
  let lsn = append t record in
  force t;
  lsn

(* --- reading ------------------------------------------------------ *)

(* Build the list back-to-front in one pass: no [List.init] closure and
   no intermediate list, half the allocation for long logs. *)
let records_from_upto t lo hi =
  let rec build lsn acc =
    if lsn < lo then acc
    else build (lsn - 1) ((lsn, Array.unsafe_get t.records (lsn - t.base)) :: acc)
  in
  build hi []

let durable_records t = records_from_upto t t.base t.durable

let all_records t = records_from_upto t t.base (tail_lsn t)

let iter_durable t f =
  for lsn = t.base to t.durable do
    f lsn (Array.unsafe_get t.records (lsn - t.base))
  done

let iter_durable_from t ~from f =
  for lsn = max from t.base to t.durable do
    f lsn (Array.unsafe_get t.records (lsn - t.base))
  done

let fold_durable t ~init ~f =
  let acc = ref init in
  for lsn = t.base to t.durable do
    acc := f !acc lsn (Array.unsafe_get t.records (lsn - t.base))
  done;
  !acc

let records_spooled t = t.size

(* --- truncation --------------------------------------------------- *)

let truncate t ~keep_from =
  if keep_from > t.durable + 1 then
    invalid_arg "Log.truncate: cannot truncate past the durable prefix";
  if keep_from > t.base then begin
    let drop = keep_from - t.base in
    let live = t.size - drop in
    (* compact into a fresh array so the dropped records (and whatever
       they reference) stop being pinned by the backing store *)
    let fresh =
      if live <= 0 then [||]
      else begin
        let a = Array.make (max 64 live) t.records.(drop) in
        Array.blit t.records drop a 0 live;
        a
      end
    in
    t.records <- fresh;
    t.size <- max live 0;
    t.base <- keep_from;
    t.truncations <- t.truncations + 1
  end

(* --- crash -------------------------------------------------------- *)

let crash t =
  (* The volatile tail is lost with the site's memory. Clearing the
     dead slots matters: truncating [size] alone would leave the array
     pinning every dropped record (and whatever they reference) until
     the slots happen to be overwritten by later appends. *)
  let live = t.durable + 1 - t.base in
  if live <= 0 then begin
    t.records <- [||];
    t.size <- 0
  end
  else begin
    let filler = t.records.(live - 1) in
    for i = live to Array.length t.records - 1 do
      t.records.(i) <- filler
    done;
    t.size <- live
  end;
  t.writing <- false;
  (* daemon state: parked waiters died with their fibers; volatile
     serialization work is gone *)
  Heap.clear t.waiters;
  Mailbox.clear t.kick;
  Mailbox.clear t.wkick;
  t.serialized <- t.durable;
  t.write_hi <- t.durable;
  t.force_hi <- t.durable;
  t.last_force_at <- -1.0;
  t.ewma_gap_ms <- -1.0

(* --- accessors ---------------------------------------------------- *)

let forces t = t.forces
let disk_writes t = t.disk_writes
let truncations t = t.truncations

let batch_stats t =
  let buckets = [| 1; 2; 4; 8; 16; 32; 64; max_int |] in
  {
    bs_writes = t.batch_writes;
    bs_records = t.batch_records;
    bs_hist =
      List.filter
        (fun (_, n) -> n > 0)
        (Array.to_list (Array.mapi (fun i n -> (buckets.(i), n)) t.batch_hist));
    bs_force_lat_n = t.force_lat_n;
    bs_force_lat_mean_ms =
      (if t.force_lat_n = 0 then 0.0
       else t.force_lat_sum /. float_of_int t.force_lat_n);
    bs_force_lat_max_ms = t.force_lat_max;
    bs_lag_mean =
      (if t.lag_n = 0 then 0.0 else float_of_int t.lag_sum /. float_of_int t.lag_n);
    bs_lag_max = t.lag_max;
  }

let rec wait_durable t lsn =
  if lsn > t.durable then
    match t.policy with
    | Adaptive ->
        (* park on the LSN heap without raising [force_hi]: a lazily
           written record rides along with the next write or the periodic
           flush — that is the point of not forcing it *)
        Fiber.suspend (fun r ->
            let seq = t.waiter_seq in
            t.waiter_seq <- seq + 1;
            Heap.push t.waiters ~priority:(float_of_int lsn) ~seq r);
        wait_durable t lsn
    | Unbatched | Group_commit _ ->
        Sync.Mutex.lock t.cond_mutex;
        (* same re-check as [force_batched]: a write landing while this
           fiber acquires the mutex must not be waited for again *)
        if lsn > t.durable then Sync.Condition.wait t.cond t.cond_mutex;
        Sync.Mutex.unlock t.cond_mutex;
        wait_durable t lsn

(* --- background daemons ------------------------------------------- *)

(* Every daemon is pinned to the incarnation that spawned it: once the
   site crashes (or restarts into a new incarnation) the daemon exits
   instead of forcing the post-crash log. The guard matters even though
   a crash kills the site's fiber group: a timer that fired in the same
   timestep as the kill escapes cancellation, and its fiber would
   otherwise run one more iteration against the restarted log. *)
let spawn_flusher t ~every ~live =
  Camelot_mach.Site.spawn t.site ~name:"log-flusher" (fun () ->
      let rec loop () =
        Fiber.sleep every;
        if live () then begin
          (* only flush an idle disk: foreground forces have priority *)
          if
            tail_lsn t > t.durable
            && (not t.writing)
            && Sync.Resource.in_use t.disk = 0
            && Sync.Resource.queue_length t.disk = 0
          then begin
            t.writing <- true;
            disk_write t;
            t.writing <- false
          end;
          loop ()
        end
      in
      loop ())

(* Wait about one force inter-arrival gap for companions to join the
   batch, but only when forces arrive faster than a quarter of a
   platter write; at low load the window collapses to zero and a force
   pays only its own write. *)
let adaptive_window t =
  if t.ewma_gap_ms >= 0.0 && t.ewma_gap_ms <= force_ms t /. 4.0 then t.ewma_gap_ms
  else 0.0

let spawn_daemon t ~flush_every ~live =
  (* Writer: one platter write per handed-off target. While the write's
     I/O is in flight the controller keeps spooling and serializing the
     next batch — the double buffer. *)
  Camelot_mach.Site.spawn t.site ~name:"log-writer" (fun () ->
      let rec loop () =
        if live () then
          if t.write_hi > t.durable then begin
            disk_write_to t ~target:t.write_hi;
            (* the platter is free again: tell the controller so the
               batch that spooled during the write goes out at once *)
            Mailbox.send t.kick ();
            loop ()
          end
          else begin
            (match Mailbox.try_recv t.wkick with
            | Some () -> ()
            | None -> ignore (Mailbox.recv_timeout t.wkick flush_every : unit option));
            loop ()
          end
      in
      loop ());
  (* Controller: drains pending force targets, charges one batched
     serialization pass for the records spooled since the last pass,
     and hands the batch to the writer. *)
  Camelot_mach.Site.spawn t.site ~name:"log-daemon" (fun () ->
      let serialize_and_hand ~target =
        if target > t.serialized then begin
          let n = target - t.serialized in
          t.serialized <- target;
          Camelot_chaos.point ~site:(Camelot_mach.Site.id t.site) p_batch;
          let m = Camelot_mach.Site.model t.site in
          let cpu =
            m.Camelot_mach.Cost_model.log_daemon_pass_cpu_ms
            +. (m.Camelot_mach.Cost_model.log_spool_batch_cpu_ms *. float_of_int n)
          in
          if cpu > 0.0 then Camelot_mach.Site.cpu_use t.site cpu
        end;
        if target > t.write_hi && target > t.durable then begin
          t.write_hi <- target;
          Mailbox.send t.wkick ()
        end
      in
      let rec loop () =
        if live () then begin
          while Mailbox.try_recv t.kick <> None do () done;
          if t.force_hi > t.durable && t.force_hi > t.write_hi then begin
            (* a force is pending and no write covers it yet; if the
               platter is idle, linger briefly so companions arriving at
               the observed rate share the write *)
            if t.write_hi <= t.durable then begin
              let w = adaptive_window t in
              if w > 0.0 then Fiber.sleep w
            end;
            if live () then begin
              serialize_and_hand ~target:(tail_lsn t);
              loop ()
            end
          end
          else
            match Mailbox.recv_timeout t.kick flush_every with
            | Some () -> loop ()
            | None ->
                (* periodic flush of the unforced tail, like the
                   background flusher: only when the platter is idle *)
                if live () then begin
                  if
                    tail_lsn t > t.durable
                    && t.write_hi <= t.durable
                    && Sync.Resource.in_use t.disk = 0
                    && Sync.Resource.queue_length t.disk = 0
                  then serialize_and_hand ~target:(tail_lsn t);
                  loop ()
                end
        end
      in
      loop ())

let start t ~flush_every =
  if flush_every <= 0.0 then invalid_arg "Log.start: period must be positive";
  let inc = Camelot_mach.Site.incarnation t.site in
  let live () =
    Camelot_mach.Site.alive t.site && Camelot_mach.Site.incarnation t.site = inc
  in
  match t.policy with
  | Unbatched | Group_commit _ -> spawn_flusher t ~every:flush_every ~live
  | Adaptive -> spawn_daemon t ~flush_every ~live
