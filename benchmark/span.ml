(* Virtual-time spans recorded from outside the program: the benchmark
   stamps each call it makes into a layer with the engine clock before
   and after. Recording only reads the clock, so it never changes the
   schedule. Spans stay in memory and are written out when the run
   ends, as Chrome trace-event JSON. *)

type span = {
  id : int;
  parent : int;  (* -1 for a transaction's root span *)
  point : int;  (* which cluster of the workload: each starts at time 0 *)
  txn : int;
  track : int;  (* the site that issued the transaction *)
  name : string;
  start_ms : float;
  stop_ms : float;
}

type t = { mutable spans : span list; mutable next : int; mutable point : int }

let create () = { spans = []; next = 0; point = -1 }

(* Spans recorded from now on belong to a fresh cluster. *)
let next_point t = t.point <- t.point + 1

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let add_with_id t ~id ~name ~track ~txn ~parent ~start_ms ~stop_ms =
  t.spans <-
    { id; parent; point = t.point; txn; track; name; start_ms; stop_ms }
    :: t.spans

let add t = add_with_id t ~id:(fresh t)

(* [wrap tracer ~name ... f] runs [f], recording its virtual duration
   when tracing is on (also when [f] raises). *)
let wrap tracer ~name ~track ~txn ~parent f =
  match tracer with
  | None -> f ()
  | Some t -> (
      let start_ms = Camelot_sim.Fiber.now () in
      let record () =
        add t ~name ~track ~txn ~parent ~start_ms
          ~stop_ms:(Camelot_sim.Fiber.now ())
      in
      match f () with
      | v ->
          record ();
          v
      | exception e ->
          record ();
          raise e)

let durations t name =
  let s = Samples.create () in
  List.iter
    (fun sp -> if sp.name = name then Samples.add s (sp.stop_ms -. sp.start_ms))
    t.spans;
  s

(* A viewer copes with a few hundred thousand events, so the file keeps
   the first transactions of each cluster; metrics use every span. *)
let exported_txns_per_point = 2000

(* One Chrome trace-event document: each cluster of each traced
   workload is a process, each site a thread. Timestamps are virtual
   microseconds. *)
let write_chrome path (runs : (string * t) list) =
  let oc = open_out path in
  let first = ref true in
  let event fmt =
    if not !first then output_string oc ",\n";
    first := false;
    Printf.fprintf oc fmt
  in
  output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  let pid = ref 0 in
  List.iter
    (fun (label, t) ->
      let spans = List.rev t.spans in
      for point = 0 to t.point do
        let mine = List.filter (fun (sp : span) -> sp.point = point) spans in
        let first_txn = List.fold_left (fun a sp -> min a sp.txn) max_int mine in
        event
          "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": %d, \"args\": \
           {\"name\": \"%s #%d\"}}"
          !pid label point;
        let tracks = Hashtbl.create 32 in
        List.iter
          (fun sp ->
            if sp.txn - first_txn < exported_txns_per_point then begin
              if not (Hashtbl.mem tracks sp.track) then begin
                Hashtbl.add tracks sp.track ();
                event
                  "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": %d, \
                   \"tid\": %d, \"args\": {\"name\": \"site %d\"}}"
                  !pid sp.track sp.track
              end;
              event
                "{\"ph\": \"X\", \"name\": \"%s\", \"pid\": %d, \"tid\": %d, \
                 \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"txn\": %d, \"id\": \
                 %d, \"parent\": %d}}"
                sp.name !pid sp.track (sp.start_ms *. 1000.0)
                ((sp.stop_ms -. sp.start_ms) *. 1000.0)
                sp.txn sp.id sp.parent
            end)
          mine;
        incr pid
      done)
    runs;
  output_string oc "\n]}\n";
  close_out oc
