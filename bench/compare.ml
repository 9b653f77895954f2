(* Compare two camelot-bench baselines and fail on simulator slowdowns.

   Usage: compare.exe OLD.json NEW.json [--threshold 1.25]

   Reads the flat name -> number "benchmarks_ns_per_run" section of
   each file ([main.ml] writes it; a full JSON parser would be a
   dependency for nothing). Every entry is wall clock spent running the
   simulator, lower is better, and every entry present in both files
   whose new/old ratio exceeds the threshold is a regression. Entries
   in only one file are listed but never fail the run, so adding or
   retiring a benchmark does not break the guard. The modelled results
   (virtual latency, tps, msgs per transaction) are not compared here:
   the tier-1 goldens in test/golden pin them exactly.

   One structural guard runs on the NEW baseline alone: the
   "scaling: 64-site wall ms (domains=N, cores=C)" curve must be
   monotone non-decreasing in wall-clock throughput from 1 to 2 to 4
   domains and >= 1.5x faster at 4 domains — enforced only when the
   recorded host core count C is >= 4 (SKIP is printed otherwise).

   Exits 1 iff some shared entry regressed or the scaling guard
   failed. *)

let usage () =
  prerr_endline "usage: compare.exe OLD.json NEW.json [--threshold RATIO]";
  exit 2

(* Entries are the "  \"name\": 123.456," lines after the
   "benchmarks_ns_per_run" header, up to its closing brace; a null
   estimate does not parse and is skipped. *)
let entries path =
  let ic = try open_in path with Sys_error e -> prerr_endline e; exit 2 in
  let rec skip () =
    match input_line ic with
    | exception End_of_file ->
        Printf.eprintf "%s: no benchmarks_ns_per_run section\n" path;
        exit 2
    | line ->
        if Scanf.sscanf_opt line " %S : {" Fun.id <> Some "benchmarks_ns_per_run"
        then skip ()
  in
  let rec collect acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line -> (
        match String.trim line with
        | "}" | "}," -> List.rev acc
        | _ -> (
            match Scanf.sscanf_opt line " %S : %f" (fun n v -> (n, v)) with
            | Some e -> collect (e :: acc)
            | None -> collect acc))
  in
  skip ();
  let es = collect [] in
  close_in ic;
  es

let compare_entries ~threshold old_b new_b =
  let regressions = ref 0 in
  Printf.printf "%-55s %14s %14s %8s\n" "BENCH" "OLD ns" "NEW ns" "RATIO";
  List.iter
    (fun (name, nv) ->
      match List.assoc_opt name old_b with
      | None -> Printf.printf "%-55s %14s %14.1f %8s\n" name "-" nv "new"
      | Some ov ->
          let ratio = nv /. ov in
          let flag =
            if ratio > threshold then begin
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
   the ns ratio check above. *)
let scaling_guard entries =
  let points =
    List.filter_map
      (fun (name, v) ->
        Scanf.sscanf_opt name "scaling: 64-site wall ms (domains=%d, cores=%d)"
          (fun d c -> (d, c, v)))
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
  let files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f > 0.0 -> threshold := f
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
  let new_b = entries new_path in
  let ns_regressions =
    compare_entries ~threshold:!threshold (entries old_path) new_b
  in
  let regressions = ns_regressions + scaling_guard new_b in
  if regressions > 0 then begin
    Printf.printf
      "\n%d entr(y/ies) regressed vs %s (ns > %.2fx, or the engine \
       domain-scaling guard failed).\n"
      regressions old_path !threshold;
    exit 1
  end
  else
    Printf.printf "\nNo regression (ns <= %.2fx) against %s.\n" !threshold
      old_path
