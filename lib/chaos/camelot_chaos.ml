open Camelot_sim

exception Killed

type kind = Step | Choice
type action = Pass | Deny | Kill

type sink = {
  on_hit : point:string -> site:int -> action;
  crash : site:int -> unit;
}

(* The registry is filled by [register] calls at module-initialisation
   time — before any domain is spawned — and only read afterwards, so
   plain shared state is fine. *)
let points : (string, kind) Hashtbl.t = Hashtbl.create 32

(* The sink and the notes are domain-local: each OCaml domain gets its
   own slot, so parallel fuzz jobs (one explorer per domain) attach and
   drive their own sinks without seeing each other. Code running on a
   domain whose slot is empty sees the hooks as detached no-ops. *)
let sink : sink option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let register ?(kind = Step) name =
  if not (Hashtbl.mem points name) then Hashtbl.add points name kind;
  name

let registered () =
  Hashtbl.fold (fun name kind acc -> (name, kind) :: acc) points []
  |> List.sort compare

let attach ~on_hit ~crash = Domain.DLS.get sink := Some { on_hit; crash }
let detach () = Domain.DLS.get sink := None
let attached () = !(Domain.DLS.get sink) <> None

let die ~site () =
  (match !(Domain.DLS.get sink) with
  | Some s -> s.crash ~site
  | None -> invalid_arg "Camelot_chaos.die: no explorer attached");
  (* If the calling fiber belongs to the killed group, yielding raises
     its cancellation and the fiber dies here, before it can touch any
     more shared state. A groupless caller (the explorer driving
     recovery) falls through and gets [Killed] to catch. *)
  Fiber.yield ();
  raise Killed

let point ~site name =
  match !(Domain.DLS.get sink) with
  | None -> ()
  | Some s -> (
      match s.on_hit ~point:name ~site with
      | Pass | Deny -> ()
      | Kill -> die ~site ())

let deny ~site name =
  match !(Domain.DLS.get sink) with
  | None -> false
  | Some s -> (
      match s.on_hit ~point:name ~site with Pass -> false | Deny | Kill -> true)

(* Per-site protocol-state notes: a short free-form tag (votes still
   outstanding, quorum side, current ballot) that the explorer folds
   into the coverage tuple of the next hits at that site. Notes cost
   one branch when detached and are cleared per run by the explorer. *)
let notes : (int, string) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let note ~site tag =
  if !(Domain.DLS.get sink) <> None then
    Hashtbl.replace (Domain.DLS.get notes) site tag

let noted ~site =
  Option.value ~default:"" (Hashtbl.find_opt (Domain.DLS.get notes) site)

let reset_notes () = Hashtbl.reset (Domain.DLS.get notes)
