(* Compare two camelot-bench baselines and fail on simulator slowdowns.

   Usage: compare.exe OLD.json NEW.json [--threshold 1.25]

   Reads the flat name -> number "benchmarks_ns_per_run" section of
   each file ([main.ml] writes it; a full JSON parser would be a
   dependency for nothing). Every entry is wall clock spent running the
   simulator, lower is better. The one check: an entry present in both
   files whose new/old ratio exceeds the threshold is a regression. Entries
   in only one file are listed but never fail the run, so adding or
   retiring a benchmark does not break the guard. The modelled results
   (virtual latency, tps, msgs per transaction) are not compared here:
   the tier-1 goldens in test/golden pin them exactly.

   Exits 1 iff some shared entry regressed. *)

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
  let regressions =
    compare_entries ~threshold:!threshold (entries old_path) (entries new_path)
  in
  if regressions > 0 then begin
    Printf.printf "\n%d entr(y/ies) regressed vs %s (ns > %.2fx).\n"
      regressions old_path !threshold;
    exit 1
  end
  else
    Printf.printf "\nNo regression (ns <= %.2fx) against %s.\n" !threshold
      old_path
