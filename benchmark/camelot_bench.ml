(* The repository benchmark: runs the workloads of [Workloads], checks
   their outputs, and prints every metric by name with its unit. The
   last line of standard output is one JSON object per workload with
   the end-to-end metrics ([--trace 0]) or the per-layer ones
   ([--trace 1]).

   Each workload runs a warm-up repeat, then repeats its measured
   windows in-process, with a Gc.compact between repeats, at least three
   times and until [--seconds] of measured wall time have passed; wall
   metrics are the median over the measured repeats. Virtual metrics
   must be identical in every repeat, and in the extra traced repeat
   that [--trace 1] adds. *)

module W = Workloads

let usage =
  "usage: camelot_bench.exe [--workload NAME|all] [--seed N] [--seconds N]\n\
  \                         [--trace 0|1] [--scale full|smoke]\n\
  \                         [--trace-out FILE] [--declared BENCHMARK.json]\n\
   workloads: "
  ^ String.concat ", " (List.map (fun (w : W.workload) -> w.name) W.all)
  ^ "\n"

type opts = {
  workloads : W.workload list;
  seed : int;
  seconds : float;
  trace : bool;
  scale : W.scale;
  trace_out : string option;
  declared : string option;
}

let bad_usage fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_string ("camelot_bench: " ^ msg ^ "\n" ^ usage);
      exit 2)
    fmt

let parse args =
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ -> bad_usage "%s expects a non-negative integer, got %S" flag v
  in
  let rec go o = function
    | [] -> o
    | ("-h" | "--help") :: _ ->
        print_string usage;
        exit 0
    | "--workload" :: "all" :: rest -> go { o with workloads = W.all } rest
    | "--workload" :: v :: rest -> (
        match List.find_opt (fun (w : W.workload) -> w.name = v) W.all with
        | Some w -> go { o with workloads = [ w ] } rest
        | None -> bad_usage "unknown workload %S" v)
    | "--seed" :: v :: rest -> go { o with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest ->
        go { o with seconds = float_of_int (int_arg "--seconds" v) } rest
    | "--trace" :: v :: rest -> (
        match v with
        | "0" -> go { o with trace = false } rest
        | "1" -> go { o with trace = true } rest
        | _ -> bad_usage "--trace expects 0 or 1, got %S" v)
    | "--scale" :: v :: rest -> (
        match v with
        | "full" -> go { o with scale = W.Full } rest
        | "smoke" -> go { o with scale = W.Smoke } rest
        | _ -> bad_usage "--scale expects full or smoke, got %S" v)
    | "--trace-out" :: v :: rest -> go { o with trace_out = Some v } rest
    | "--declared" :: v :: rest -> go { o with declared = Some v } rest
    | [ flag ]
      when List.mem flag
             [
               "--workload";
               "--seed";
               "--seconds";
               "--trace";
               "--scale";
               "--trace-out";
               "--declared";
             ] ->
        bad_usage "%s needs a value" flag
    | arg :: _ -> bad_usage "unknown argument %S" arg
  in
  go
    {
      workloads = W.all;
      seed = 17;
      seconds = 0.0;
      trace = false;
      scale = W.Full;
      trace_out = None;
      declared = None;
    }
    args

(* {1 Metrics} *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric name unit_ note value = { name; value; unit_; note }

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let word_bytes = float_of_int (Sys.word_size / 8)

let end_to_end (ms : W.meter list) ~peak_heap_words =
  let m = List.hd ms in
  let reps = Printf.sprintf "wall, median of %d repeats" (List.length ms) in
  let lat = Samples.sorted m.lat in
  let n = Array.length lat in
  let pct name q =
    metric name "ms"
      (Printf.sprintf "virtual, nearest rank of %d commits, %d beyond" n
         (n - int_of_float (Float.ceil (q *. float_of_int n))))
      (Samples.rank lat q)
  in
  let per_s x = ratio (float_of_int x) (m.window_ms /. 1000.0) in
  [
    metric "setup_s" "s" reps (median (List.map (fun (m : W.meter) -> m.setup_s) ms));
    metric "run_wall_s" "s" reps (median (List.map (fun (m : W.meter) -> m.run_s) ms));
    metric "peak_heap_mb" "MB" "host, Gc top_heap_words"
      (float_of_int peak_heap_words *. word_bytes /. 1e6);
    pct "commit_p50_ms" 0.5;
    pct "commit_p99_ms" 0.99;
    pct "commit_p999_ms" 0.999;
    metric "committed_tps" "txn/s" "virtual, headline window" (per_s m.committed);
    metric "attempts_per_txn" "attempts/txn" "virtual, 1 + aborted attempts per txn"
      (ratio (float_of_int m.attempts) (float_of_int m.attempted));
    (match m.rungs with
    | [] ->
        metric "goodput_tps" "txn/s" "virtual, closed loop: every commit counts"
          (per_s m.committed)
    | rungs ->
        metric "goodput_tps" "txn/s"
          ("virtual, best rung of "
          ^ String.concat " "
              (List.map (fun (r, g) -> Printf.sprintf "%.0f:%.1f" r g) rungs))
          (List.fold_left (fun a (_, g) -> Float.max a g) 0.0 rungs));
  ]

let per_layer (ms : W.meter list) (traced : W.meter) =
  let m = List.hd ms in
  let c = m.counters in
  let txns = float_of_int m.txns in
  let per_txn x = ratio (float_of_int x) txns in
  let med f = median (List.map f ms) in
  let run_s = med (fun m -> m.run_s) in
  let span q name =
    match traced.tracer with
    | Some t -> Samples.percentile (Span.durations t name) q
    | None -> 0.0
  in
  let counter = "virtual counter" and wall = "wall, median" in
  let spans = "virtual, traced spans" in
  [
    metric "sim.events_per_txn" "events/txn" counter (per_txn c.events);
    metric "sim.ns_per_event" "ns" wall (ratio (run_s *. 1e9) (float_of_int c.events));
    metric "sim.pending_peak" "count" counter (float_of_int m.pending_peak);
    metric "gc.minor_words_per_txn" "words/txn" wall
      (med (fun m -> ratio m.minor_words (float_of_int m.txns)));
    metric "gc.promoted_words_per_txn" "words/txn" wall
      (med (fun m -> ratio m.promoted_words (float_of_int m.txns)));
    metric "gc.retained_bytes_per_txn" "bytes/txn" wall
      (med (fun m -> ratio (m.retained_words *. word_bytes) (float_of_int m.txns)));
    metric "mach.dispatch_wait_p50_ms" "ms" spans (span 0.5 "dispatch.wait");
    metric "mach.dispatch_wait_p99_ms" "ms" spans (span 0.99 "dispatch.wait");
    metric "mach.dispatch_max_depth" "count" counter (float_of_int m.dispatch_max_depth);
    metric "mach.cpu_util_pct" "%" counter (100.0 *. ratio m.cpu_window_ms m.cpu_capacity_ms);
    metric "server.op_local_p50_ms" "ms" spans (span 0.5 "server.op.local");
    metric "server.op_remote_p50_ms" "ms" spans (span 0.5 "server.op.remote");
    metric "lock.contended_pct" "%" counter
      (100.0 *. ratio (float_of_int c.contended) (float_of_int c.grants));
    metric "lock.timeouts_per_ktxn" "count/ktxn" counter
      (1000.0 *. per_txn m.timeouts);
    metric "core.begin_p50_ms" "ms" spans (span 0.5 "core.begin");
    metric "core.commit_local_p50_ms" "ms" spans (span 0.5 "core.commit.local");
    metric "core.commit_dist_p50_ms" "ms" spans (span 0.5 "core.commit.dist");
    metric "core.commit_dist_p99_ms" "ms" spans (span 0.99 "core.commit.dist");
    metric "wal.forces_per_txn" "count/txn" counter (per_txn c.forces);
    metric "wal.writes_per_txn" "count/txn" counter (per_txn c.writes);
    metric "wal.batch_mean" "records/write" counter
      (ratio (float_of_int c.batch_records) (float_of_int c.batch_writes));
    metric "wal.force_wait_mean_ms" "ms" counter
      (ratio c.force_wait_ms (float_of_int c.force_waits));
    metric "net.datagrams_per_txn" "count/txn" counter (per_txn c.datagrams);
    metric "net.dropped" "count" counter (float_of_int c.dropped);
    metric "camelot.cluster_create_ms" "ms" wall
      (median
         (List.concat_map
            (fun (m : W.meter) -> Array.to_list (Samples.sorted m.create_ms))
            ms));
    metric "bench.trace_overhead_pct" "%" "wall, traced vs untraced median"
      (100.0 *. (ratio traced.run_s run_s -. 1.0));
  ]

(* {1 Declared metrics} *)

let find_from s sub i =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then raise Not_found
    else if String.sub s i k = sub then i
    else go (i + 1)
  in
  go i

(* The (name, unit) pairs of one metric array of a BENCHMARK.json. *)
let declared path section =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let start = find_from s ("\"" ^ section ^ "\"") 0 in
  let lo = String.index_from s start '[' in
  let hi = String.index_from s lo ']' in
  let body = String.sub s lo (hi - lo) in
  let string_after key i =
    let j = find_from body ("\"" ^ key ^ "\"") i in
    let a = String.index_from body (String.index_from body j ':') '"' in
    let b = String.index_from body (a + 1) '"' in
    (String.sub body (a + 1) (b - a - 1), b)
  in
  let rec go i acc =
    match string_after "name" i with
    | name, j ->
        let unit_, j = string_after "unit" j in
        go j ((name, unit_) :: acc)
    | exception Not_found -> List.sort compare acc
  in
  go 0 []

let check_declared path section metrics =
  let want = declared path section in
  let got = List.sort compare (List.map (fun m -> (m.name, m.unit_)) metrics) in
  if want <> got then begin
    let show l = String.concat " " (List.map (fun (n, u) -> n ^ "[" ^ u ^ "]") l) in
    Printf.eprintf
      "camelot_bench: printed %s metrics differ from %s\n  declared: %s\n  printed:  %s\n"
      section path (show want) (show got);
    exit 1
  end

(* {1 Running} *)

let json_number v =
  if not (Float.is_finite v) then failwith "metric value is not finite";
  Printf.sprintf "%.17g" v

let print_metrics metrics =
  List.iter
    (fun m ->
      Printf.printf "  %-28s %16.6f %-13s %s\n" m.name m.value m.unit_ m.note)
    metrics

let run_workload o (w : W.workload) =
  Printf.printf "== %s: %s\n%!" w.name w.why;
  let repeat ~traced =
    let m = W.meter ~traced in
    w.run o.scale m ~seed:o.seed;
    Gc.compact ();
    m
  in
  let rec untraced acc n measured =
    if n >= 3 && measured >= o.seconds then List.rev acc
    else begin
      let m = repeat ~traced:false in
      Printf.printf "   repeat %d: setup %.3f s, run %.3f s\n%!" (n + 1) m.setup_s
        m.run_s;
      untraced (m :: acc) (n + 1) (measured +. m.run_s)
    end
  in
  (* The first repeat grows the heap from nothing; it is checked like
     the others but left out of the wall-clock medians. *)
  let warm = repeat ~traced:false in
  Printf.printf "   warm-up repeat: setup %.3f s, run %.3f s\n%!" warm.setup_s
    warm.run_s;
  let ms = untraced [] 0 0.0 in
  let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let traced = if o.trace then Some (repeat ~traced:true) else None in
  let labelled =
    (("warm-up repeat", warm) :: List.mapi (fun i m -> (Printf.sprintf "repeat %d" (i + 1), m)) ms)
    @ List.map (fun m -> ("traced repeat", m)) (Option.to_list traced)
  in
  let all = List.map snd labelled in
  let reference = W.fingerprint warm in
  let failures =
    List.concat_map (fun (m : W.meter) -> List.rev m.failures) all
    @ List.filter_map
        (fun (label, m) ->
          if W.fingerprint m = reference then None
          else Some (label ^ "'s virtual metrics differ from the warm-up repeat's"))
        labelled
  in
  let e2e = end_to_end ms ~peak_heap_words in
  print_metrics e2e;
  let layer = Option.map (per_layer ms) traced in
  Option.iter print_metrics layer;
  Option.iter
    (fun path ->
      check_declared path "end_to_end" e2e;
      Option.iter (check_declared path "per_layer") layer)
    o.declared;
  List.iteri
    (fun i f -> if i < 20 then Printf.printf "FAILED: %s\n" f)
    failures;
  let sum f = List.fold_left (fun a m -> a + f m) 0 all in
  let reported = match layer with Some l -> l | None -> e2e in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failures = [])
    (sum (fun (m : W.meter) -> m.txns))
    (sum (fun (m : W.meter) -> m.lost))
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
              (json_number m.value) m.unit_)
          reported));
  (failures = [], Option.map (fun (m : W.meter) -> (w.name, m)) traced)

let () =
  let o = parse (List.tl (Array.to_list Sys.argv)) in
  Printf.printf "# host: nproc=%d ocaml=%s seed=%d scale=%s trace=%d seconds=%g\n%!"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version o.seed
    (match o.scale with W.Full -> "full" | W.Smoke -> "smoke")
    (Bool.to_int o.trace) o.seconds;
  let results = List.map (run_workload o) o.workloads in
  Option.iter
    (fun path ->
      Span.write_chrome path
        (List.filter_map
           (fun (_, t) ->
             Option.bind t (fun (name, (m : W.meter)) ->
                 Option.map (fun tr -> (name, tr)) m.tracer))
           results))
    o.trace_out;
  if not (List.for_all fst results) then exit 1
