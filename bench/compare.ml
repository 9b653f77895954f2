(* Compare two camelot-bench baselines and fail on perf regressions.

   Usage: compare.exe OLD.json NEW.json [--threshold 1.25]
                                        [--tps-threshold 0.92]

   Reads two flat name -> number sections of each file ([main.ml]
   writes them; a full JSON parser would be a dependency for nothing):

   - "benchmarks_ns_per_run" (wall-clock, lower is better): flags
     every benchmark present in both whose new/old ratio exceeds the
     threshold;
   - "throughput_tps" (simulated closed-loop TPS, higher is better):
     flags every shared operating point whose new/old ratio falls
     below the tps threshold.

   Entries appearing in only one file are listed but never fail the
   run, so adding or retiring a benchmark does not break the guard.

   Additionally, four structural guards run on the NEW baseline alone:

   - "... (partitions=N)" entries must strictly decrease as N grows
     (recovery partition scaling — the values are deterministic
     virtual time, so no noise margin applies);
   - the "open-loop: p99 ms (load=N)" series must show a saturation
     knee: the largest p99 at least double the smallest (an open loop
     that no longer saturates, or whose sub-knee latency exploded to
     meet the post-knee one, is a broken rig);
   - "shootout: commit tps (paxos F=0)" must stay within 5% of
     "shootout: commit tps (2pc)" (the degenerate single-acceptor
     Paxos Commit must keep collapsing to the 2PC exchange);
   - the "scaling: 64-site wall ms (domains=N, cores=C)" curve must be
     monotone non-decreasing in wall-clock throughput from 1 to 2 to 4
     domains and >= 1.5x faster at 4 domains — enforced only when the
     recorded host core count C is >= 4 (SKIP is printed otherwise).

   Exits 1 iff some shared entry regressed or a structural guard
   failed. *)

let usage () =
  prerr_endline "usage: compare.exe OLD.json NEW.json [--threshold RATIO]";
  exit 2

let contains_sub line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  go 0

(* "  \"name\": 123.456," -> Some (name, Some 123.456) *)
let parse_entry line =
  match String.index_opt line '"' with
  | None -> None
  | Some q0 -> (
      match String.index_from_opt line (q0 + 1) '"' with
      | None -> None
      | Some q1 -> (
          let name = String.sub line (q0 + 1) (q1 - q0 - 1) in
          match String.index_from_opt line q1 ':' with
          | None -> None
          | Some c ->
              let v =
                String.trim (String.sub line (c + 1) (String.length line - c - 1))
              in
              let v =
                if String.length v > 0 && v.[String.length v - 1] = ',' then
                  String.sub v 0 (String.length v - 1)
                else v
              in
              Some (name, float_of_string_opt v)))

let section ?(required = true) path name =
  let ic = try open_in path with Sys_error e -> prerr_endline e; exit 2 in
  let rec skip () =
    match input_line ic with
    | exception End_of_file ->
        if required then begin
          Printf.eprintf "%s: no %s section\n" path name;
          exit 2
        end
        else false
    | line -> contains_sub line ("\"" ^ name ^ "\"") || skip ()
  in
  let entries =
    if not (skip ()) then []
    else begin
      let rec collect acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line -> (
            let trimmed = String.trim line in
            if trimmed = "}" || trimmed = "}," then List.rev acc
            else
              match parse_entry line with
              | Some (name, Some v) -> collect ((name, v) :: acc)
              | Some (_, None) | None -> collect acc)
      in
      collect []
    end
  in
  close_in ic;
  entries

(* One section's comparison table. [bad ratio] decides regression:
   ns/run regresses above its threshold, tps regresses below its. *)
let compare_section ~title ~unit_label ~bad old_b new_b =
  let regressions = ref 0 in
  Printf.printf "%-55s %14s %14s %8s\n" title ("OLD " ^ unit_label)
    ("NEW " ^ unit_label) "RATIO";
  List.iter
    (fun (name, nv) ->
      match List.assoc_opt name old_b with
      | None -> Printf.printf "%-55s %14s %14.1f %8s\n" name "-" nv "new"
      | Some ov ->
          let ratio = nv /. ov in
          let flag =
            if bad ratio then begin
              incr regressions;
              "  <-- REGRESSION"
            end
            else ""
          in
          Printf.printf "%-55s %14.1f %14.1f %7.2fx%s\n" name ov nv ratio flag)
    new_b;
  List.iter
    (fun (name, ov) ->
      if not (List.mem_assoc name new_b) then
        Printf.printf "%-55s %14.1f %14s %8s\n" name ov "-" "gone")
    old_b;
  !regressions

(* Partition-scaling guard, applied to the NEW baseline alone: entries
   named "... (partitions=N)" are grouped by prefix and their values
   must strictly decrease as N grows — parallel replay that stops
   scaling is a regression even if every individual number is stable.
   The points are virtual-time, hence deterministic: no noise margin
   needed. *)
let partition_suffix = "(partitions="

let partition_of name =
  let n = String.length name and m = String.length partition_suffix in
  let rec find i =
    if i + m > n then None
    else if String.sub name i m = partition_suffix then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i -> (
      match String.index_from_opt name (i + m) ')' with
      | None -> None
      | Some j -> (
          match int_of_string_opt (String.sub name (i + m) (j - i - m)) with
          | None -> None
          | Some p -> Some (String.sub name 0 i, p)))

let partition_guard entries =
  let groups = Hashtbl.create 4 in
  List.iter
    (fun (name, v) ->
      match partition_of name with
      | None -> ()
      | Some (prefix, p) ->
          let cur = try Hashtbl.find groups prefix with Not_found -> [] in
          Hashtbl.replace groups prefix ((p, v) :: cur))
    entries;
  let regressions = ref 0 in
  Hashtbl.iter
    (fun prefix points ->
      match List.sort compare points with
      | [] | [ _ ] -> ()
      | points ->
          print_newline ();
          Printf.printf "%-55s %14s %14s\n"
            (String.trim prefix ^ " scaling")
            "PARTITIONS" "VALUE";
          let prev = ref None in
          List.iter
            (fun (p, v) ->
              let flag =
                match !prev with
                | Some pv when v >= pv ->
                    incr regressions;
                    "  <-- NOT DECREASING"
                | Some _ | None -> ""
              in
              prev := Some v;
              Printf.printf "%-55s %14d %14.1f%s\n" "" p v flag)
            points)
    groups;
  !regressions

(* Open-loop knee guard: the p99-vs-offered-load series must span at
   least a 2x range — the signature of a saturation knee inside the
   sweep. Deterministic virtual time, so the ratio is exact. *)
let load_key = "p99 ms (load="

let knee_guard entries =
  let points =
    List.filter (fun (name, _) -> contains_sub name load_key) entries
  in
  match points with
  | [] | [ _ ] -> 0
  | points ->
      let vs = List.map snd points in
      let lo = List.fold_left Float.min Float.infinity vs in
      let hi = List.fold_left Float.max 0.0 vs in
      print_newline ();
      Printf.printf "%-55s %14s\n" "OPEN-LOOP p99 KNEE" "p99 ms";
      List.iter (fun (n, v) -> Printf.printf "%-55s %14.1f\n" n v) points;
      if lo > 0.0 && hi /. lo >= 2.0 then 0
      else begin
        Printf.printf "%-55s %s\n" ""
          "  <-- NO KNEE: p99 range under 2x across the load sweep";
        1
      end

(* Paxos-parity guard, applied to the NEW baseline alone: at F = 0
   Paxos Commit has a single self-acceptor and provably degenerates to
   the 2PC exchange, so its closed-loop shootout throughput must track
   2PC's within 5%. Larger drift means the degenerate case stopped
   riding the 2PC fast path — extra messages, forces, or a stall the
   conformance tests' low concurrency cannot see. The rig is seeded
   virtual time, so the margin absorbs legitimate scheduling drift
   from unrelated changes, not run-to-run noise. *)
let shootout_tps name = "shootout: commit tps (" ^ name ^ ")"

let protocol_guard entries =
  match
    ( List.assoc_opt (shootout_tps "2pc") entries,
      List.assoc_opt (shootout_tps "paxos F=0") entries )
  with
  | Some two, Some pax when two > 0.0 ->
      let drift = Float.abs (pax -. two) /. two in
      print_newline ();
      Printf.printf "%-55s %14s %14s\n" "PAXOS F=0 PARITY" "2PC tps"
        "F=0 tps";
      let flag =
        if drift > 0.05 then "  <-- F=0 NOT WITHIN 5% OF 2PC" else ""
      in
      Printf.printf "%-55s %14.2f %14.2f%s\n"
        (Printf.sprintf "drift %.1f%%" (100.0 *. drift))
        two pax flag;
      if drift > 0.05 then 1 else 0
  | _ -> 0

(* Engine-scaling guard, applied to the NEW baseline alone: the
   "scaling: 64-site wall ms (domains=N, cores=C)" series must show the
   sharded engine actually scaling — wall-clock throughput monotone
   non-decreasing from 1 to 2 to 4 domains (5% tolerance for run-to-run
   wall noise) and at least 1.5x faster at 4 domains than at 1. The
   guard only arms itself when the recorded core count is >= 4: on
   fewer cores multi-domain runs pay barrier overhead with no
   parallelism, so the curve measures the host, not the engine. The
   core count lives in the entry NAME precisely so baselines from
   different machines never get wall-clock-compared entry-to-entry by
   the generic ns guard above. *)
let scaling_key = "scaling: "
let domains_key = "(domains="

let scaling_point_of name =
  if not (contains_sub name scaling_key) then None
  else
    let n = String.length name and m = String.length domains_key in
    let rec find i =
      if i + m > n then None
      else if String.sub name i m = domains_key then Some (i + m)
      else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some start -> (
        match String.index_from_opt name start ',' with
        | None -> None
        | Some comma -> (
            match
              ( int_of_string_opt (String.sub name start (comma - start)),
                String.index_from_opt name comma '=' )
            with
            | Some d, Some eq -> (
                match String.index_from_opt name eq ')' with
                | None -> None
                | Some close -> (
                    match
                      int_of_string_opt
                        (String.sub name (eq + 1) (close - eq - 1))
                    with
                    | Some c -> Some (d, c)
                    | None -> None))
            | _ -> None))

let scaling_guard entries =
  let points =
    List.filter_map
      (fun (name, v) ->
        match scaling_point_of name with
        | Some (d, c) -> Some (d, c, v)
        | None -> None)
      entries
  in
  match List.sort compare points with
  | [] -> 0
  | points ->
      print_newline ();
      let cores = match points with (_, c, _) :: _ -> c | [] -> 0 in
      Printf.printf "%-55s %14s %14s\n"
        (Printf.sprintf "ENGINE SCALING (host cores: %d)" cores)
        "DOMAINS" "WALL ms";
      List.iter
        (fun (d, _, v) -> Printf.printf "%-55s %14d %14.1f\n" "" d v)
        points;
      if cores < 4 then begin
        Printf.printf "%-55s %s\n" ""
          (Printf.sprintf
             "  SKIP: %d core(s) < 4 — speedup curve not enforced" cores);
        0
      end
      else begin
        let wall d =
          List.find_map (fun (d', _, v) -> if d' = d then Some v else None)
            points
        in
        match (wall 1, wall 2, wall 4) with
        | Some w1, Some w2, Some w4 ->
            let bad = ref 0 in
            let check cond msg =
              if not cond then begin
                incr bad;
                Printf.printf "%-55s %s\n" "" ("  <-- " ^ msg)
              end
            in
            check (w2 <= w1 *. 1.05)
              "NOT MONOTONE: 2 domains slower than 1 (beyond 5%)";
            check (w4 <= w2 *. 1.05)
              "NOT MONOTONE: 4 domains slower than 2 (beyond 5%)";
            check (w1 /. w4 >= 1.5)
              (Printf.sprintf "SPEEDUP %.2fx AT 4 DOMAINS: below 1.5x"
                 (w1 /. w4));
            if !bad = 0 then
              Printf.printf "%-55s %s\n" ""
                (Printf.sprintf "  speedup %.2fx at 4 domains (>= 1.5x ok)"
                   (w1 /. w4));
            !bad
        | _ ->
            Printf.printf "%-55s %s\n" ""
              "  <-- MISSING POINT: domains 1, 2 and 4 all required";
            1
      end

let () =
  let threshold = ref 1.25 in
  let tps_threshold = ref 0.92 in
  let files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f > 0.0 -> threshold := f
        | Some _ | None -> usage ());
        parse_args rest
    | "--tps-threshold" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f > 0.0 -> tps_threshold := f
        | Some _ | None -> usage ());
        parse_args rest
    | a :: rest ->
        files := a :: !files;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let old_path, new_path =
    match List.rev !files with [ o; n ] -> (o, n) | _ -> usage ()
  in
  let ns_regressions =
    compare_section ~title:"BENCH" ~unit_label:"ns"
      ~bad:(fun r -> r > !threshold)
      (section old_path "benchmarks_ns_per_run")
      (section new_path "benchmarks_ns_per_run")
  in
  (* tps section is optional in OLD baselines that predate it *)
  let old_tps = section ~required:false old_path "throughput_tps" in
  let new_tps = section ~required:false new_path "throughput_tps" in
  let tps_regressions =
    if old_tps = [] || new_tps = [] then 0
    else begin
      print_newline ();
      compare_section ~title:"THROUGHPUT" ~unit_label:"tps"
        ~bad:(fun r -> r < !tps_threshold)
        old_tps new_tps
    end
  in
  let new_entries = section new_path "benchmarks_ns_per_run" in
  let scaling_regressions = partition_guard new_entries in
  let knee_regressions = knee_guard new_entries in
  let protocol_regressions = protocol_guard new_entries in
  let domain_regressions = scaling_guard new_entries in
  let regressions =
    ns_regressions + tps_regressions + scaling_regressions + knee_regressions
    + protocol_regressions + domain_regressions
  in
  if regressions > 0 then begin
    Printf.printf
      "\n%d entr(y/ies) regressed vs %s (ns > %.2fx, tps < %.2fx, or a \
       structural guard — partition scaling, open-loop knee, Paxos-F=0 \
       parity, engine domain scaling — failed).\n"
      regressions old_path !threshold !tps_threshold;
    exit 1
  end
  else
    Printf.printf "\nNo regression (ns <= %.2fx, tps >= %.2fx) against %s.\n"
      !threshold !tps_threshold old_path
