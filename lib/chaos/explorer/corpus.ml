(* The fuzzer's corpus: schedules that grew coverage when they ran,
   deduplicated by coverage signature, newest-first (the fuzzer
   preferentially mutates recent coverage growers).

   With a directory attached, every admitted entry is persisted as

     cov-<md5-of-signature>.schedule     token \n signature \n

   so a later fuzzing session reloads it, and identical-coverage
   schedules across sessions collapse onto one file. Failing schedules
   are saved too (fail-<md5-of-token>.schedule) so the next session
   re-finds a still-unfixed bug on its first few runs. Tokens are the
   exact replayable `--schedule` format. *)

type t = {
  dir : string option;
  mutable entries : Schedule.t list;  (* newest-first *)
  seen : (string, unit) Hashtbl.t;  (* admitted signatures *)
}

let create ?dir () =
  (match dir with
  | Some d when not (Sys.file_exists d) -> (
      try Sys.mkdir d 0o755 with Sys_error _ -> ())
  | _ -> ());
  { dir; entries = []; seen = Hashtbl.create 64 }

let size t = List.length t.entries

(* Schedules saved by previous sessions, in stable (sorted-filename)
   order so reloading is deterministic. Unparseable files are skipped:
   a corpus directory is a cache, never an error source. *)
let load t =
  match t.dir with
  | None -> []
  | Some d ->
      if not (Sys.file_exists d) then []
      else
        let files =
          Sys.readdir d |> Array.to_list
          |> List.filter (fun f -> Filename.check_suffix f ".schedule")
          |> List.sort compare
        in
        List.filter_map
          (fun f ->
            try
              let ic = open_in (Filename.concat d f) in
              let token = try input_line ic with End_of_file -> "" in
              close_in ic;
              Schedule.of_string token
            with Sys_error _ -> None)
          files

(* Atomic publication: write to a domain-unique temp name in the same
   directory, then rename over the final name. Parallel fuzz jobs (and
   concurrent sessions) racing on the same signature therefore only
   ever expose complete files — and equal signatures carry equal
   content, so last-rename-wins is harmless. [load] only picks up
   ".schedule" files, so stray temps from a killed session are inert. *)
let write_file t name lines =
  match t.dir with
  | None -> ()
  | Some d -> (
      try
        let tmp =
          Filename.concat d
            (Printf.sprintf "%s.tmp.%d" name (Domain.self () :> int))
        in
        let oc = open_out tmp in
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          lines;
        close_out oc;
        Sys.rename tmp (Filename.concat d name)
      with Sys_error _ -> ())

(* Admit a schedule that grew global coverage, unless an
   equal-signature entry is already present. *)
let add t schedule ~signature =
  if not (Hashtbl.mem t.seen signature) then begin
    Hashtbl.replace t.seen signature ();
    t.entries <- schedule :: t.entries;
    write_file t
      ("cov-" ^ Coverage.short signature ^ ".schedule")
      [ Schedule.to_string schedule; signature ]
  end

(* Persist a failing schedule (original and shrunk tokens both replay;
   we save the shrunk one — it is the minimal reproducer). *)
let note_failure t schedule =
  let token = Schedule.to_string schedule in
  write_file t ("fail-" ^ Digest.to_hex (Digest.string token) ^ ".schedule") [ token ]

(* Pick a parent to mutate: usually one of the most recent coverage
   growers, sometimes anything (so old corners keep getting revisited). *)
let pick t rng =
  match t.entries with
  | [] -> None
  | es ->
      let n = List.length es in
      let k =
        if Camelot_sim.Rng.bool rng ~p:0.6 then
          Camelot_sim.Rng.int_below rng (min 8 n)
        else Camelot_sim.Rng.int_below rng n
      in
      Some (List.nth es k)

(* A same-workload partner for splicing. *)
let pick_for_workload t rng workload =
  match
    List.filter (fun (s : Schedule.t) -> s.Schedule.s_workload = workload) t.entries
  with
  | [] -> None
  | es -> Some (List.nth es (Camelot_sim.Rng.int_below rng (List.length es)))
