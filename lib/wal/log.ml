open Camelot_sim

type lsn = int

type policy = Unbatched | Group_commit of { window_ms : float } | Adaptive

type batch_stats = {
  bs_writes : int;  (* physical writes that carried >= 1 record *)
  bs_records : int;  (* records covered by those writes *)
  bs_force_lat_n : int;
  bs_force_lat_mean_ms : float;
}

(* The daemon's force timing, floats only so it is stored flat:
   updating it boxes nothing. *)
type timing = {
  mutable last_force_at : float;
  mutable ewma_gap_ms : float;  (* EWMA of force inter-arrival, <0 = unknown *)
  mutable force_lat_sum : float;
}

type 'a t = {
  site : Camelot_mach.Site.t;
  disk : Sync.Resource.t;
  mutable records : 'a array;
  mutable base : lsn;  (* LSN of records.(0); advanced by [truncate] *)
  mutable size : int;  (* live slots: records.(0 .. size-1) *)
  mutable durable : lsn;
  mutable writing : bool;
  policy : policy;
  waiters : unit Fiber.resumer Engine.Heap.t;  (* min-heap keyed by target LSN *)
  mutable waiter_seq : int;
  (* daemon state *)
  kick : unit Mailbox.t;  (* foreground -> controller *)
  wkick : unit Mailbox.t;  (* controller -> writer *)
  mutable serialized : lsn;  (* highest LSN whose batch CPU was charged *)
  mutable write_hi : lsn;  (* highest target handed to the writer *)
  mutable force_hi : lsn;  (* highest LSN any force asked to be durable *)
  timing : timing;
  (* counters *)
  mutable forces : int;
  mutable disk_writes : int;
  mutable truncations : int;
  mutable batch_writes : int;
  mutable batch_records : int;
  mutable force_lat_n : int;
}

let create ?(policy = Unbatched) site =
  let eng = Camelot_mach.Site.engine site in
  {
    site;
    disk = Sync.Resource.create eng;
    records = [||];
    base = 0;
    size = 0;
    durable = -1;
    writing = false;
    policy;
    waiters = Engine.Heap.create ();
    waiter_seq = 0;
    kick = Mailbox.create eng;
    wkick = Mailbox.create eng;
    serialized = -1;
    write_hi = -1;
    force_hi = -1;
    timing = { last_force_at = -1.0; ewma_gap_ms = -1.0; force_lat_sum = 0.0 };
    forces = 0;
    disk_writes = 0;
    truncations = 0;
    batch_writes = 0;
    batch_records = 0;
    force_lat_n = 0;
  }

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

(* A data server's record: copying it into the log buffer costs CPU on
   the site, unless the daemon serializes whole batches and charges the
   (much cheaper) copy in its drain pass. *)
let spool t record =
  (match t.policy with
  | Adaptive -> ()
  | Unbatched | Group_commit _ ->
      let m = Camelot_mach.Site.model t.site in
      Camelot_mach.Site.cpu_use t.site m.Camelot_mach.Cost_model.log_spool_cpu_ms);
  append t record

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
    t.batch_records <- t.batch_records + n
  end

(* --- durability waits: one LSN-ordered heap ----------------------- *)

(* Every fiber that waits for durability parks here, under every
   policy: a force under [Adaptive], a [Group_commit] follower behind
   the write in flight, and a lazy [wait_durable]. A platter write wakes
   exactly the waiters it made durable, lowest LSN first — never a
   broadcast. Resumers of crashed fibers are fired already; [resume]
   on them is a no-op. *)
let park t ~target =
  Fiber.suspend (fun r ->
      let seq = t.waiter_seq in
      t.waiter_seq <- seq + 1;
      Engine.Heap.push t.waiters ~priority:(float_of_int target) ~seq r)

let wake_waiters t =
  let rec drain () =
    if
      (not (Engine.Heap.is_empty t.waiters))
      && Engine.Heap.min_priority t.waiters <= float_of_int t.durable
    then begin
      Fiber.resume (Engine.Heap.pop_exn t.waiters) (Ok ());
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
  Sync.Resource.use t.disk ~duration:(force_ms t);
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
    wake_waiters t
  end

let disk_write t = disk_write_to t ~target:(tail_lsn t)

(* --- group commit: leader/follower batching ------------------------ *)

(* A follower parks at [durable + 1], which the write in flight always
   covers, and re-checks once it lands: a follower that parked at its
   own target would never be woken to lead the next write when the
   write in flight does not reach it. *)
let rec force_batched t ~window_ms target =
  if target > t.durable then begin
    if t.writing then begin
      park t ~target:(t.durable + 1);
      force_batched t ~window_ms target
    end
    else begin
      t.writing <- true;
      (* let forces issued at this same instant spool their records
         into this batch before the I/O is issued *)
      if window_ms > 0.0 then Fiber.sleep window_ms else Fiber.yield ();
      disk_write t;
      t.writing <- false
    end
  end

(* --- daemon mode -------------------------------------------------- *)

(* The clock is the site engine's, not [Fiber.now]'s, which performs
   an effect to find it. *)
let force_daemon t target =
  if target > t.durable then begin
    let eng = Camelot_mach.Site.engine t.site and tm = t.timing in
    (* feed the adaptive window: EWMA of force inter-arrival gaps *)
    let now = Engine.now eng in
    if tm.last_force_at >= 0.0 then begin
      let gap = now -. tm.last_force_at in
      tm.ewma_gap_ms <-
        (if tm.ewma_gap_ms < 0.0 then gap
         else (0.75 *. tm.ewma_gap_ms) +. (0.25 *. gap))
    end;
    tm.last_force_at <- now;
    if target > t.force_hi then begin
      t.force_hi <- target;
      Mailbox.send t.kick ()
    end;
    park t ~target;
    tm.force_lat_sum <- tm.force_lat_sum +. (Engine.now eng -. now);
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
  Engine.Heap.clear t.waiters;
  Mailbox.clear t.kick;
  Mailbox.clear t.wkick;
  t.serialized <- t.durable;
  t.write_hi <- t.durable;
  t.force_hi <- t.durable;
  t.timing.last_force_at <- -1.0;
  t.timing.ewma_gap_ms <- -1.0

(* --- accessors ---------------------------------------------------- *)

let forces t = t.forces
let disk_writes t = t.disk_writes
let truncations t = t.truncations

let batch_stats t =
  {
    bs_writes = t.batch_writes;
    bs_records = t.batch_records;
    bs_force_lat_n = t.force_lat_n;
    bs_force_lat_mean_ms =
      (if t.force_lat_n = 0 then 0.0
       else t.timing.force_lat_sum /. float_of_int t.force_lat_n);
  }

(* A lazy waiter parks at its own LSN without raising [force_hi]: its
   record rides along with the next write or the periodic flush — that
   is the point of not forcing it. *)
let rec wait_durable t lsn =
  if lsn > t.durable then begin
    park t ~target:lsn;
    wait_durable t lsn
  end

(* --- background daemons ------------------------------------------- *)

(* What a periodic flush writes: an unforced tail, and only to an idle
   platter, since foreground forces have priority. *)
let flushable t =
  tail_lsn t > t.durable
  && Sync.Resource.in_use t.disk = 0
  && Sync.Resource.queue_length t.disk = 0

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
          if flushable t && not t.writing then begin
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
  let gap = t.timing.ewma_gap_ms in
  if gap >= 0.0 && gap <= force_ms t /. 4.0 then gap else 0.0

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
                (* periodic flush, as the background flusher does *)
                if live () then begin
                  if flushable t && t.write_hi <= t.durable then
                    serialize_and_hand ~target:(tail_lsn t);
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
