open Camelot_sim

type id = int

type t = {
  id : id;
  eng : Engine.t;
  model : Cost_model.t;
  rng : Rng.t;
  cpu : Sync.Resource.t;
  mutable group : Fiber.Group.t;
  mutable alive : bool;
  mutable incarnation : int;
  mutable restart_hooks : (unit -> unit) list;
}

let create eng ~id ~model ~rng =
  {
    id;
    eng;
    model;
    rng;
    cpu = Sync.Resource.create ~servers:model.Cost_model.cpus eng;
    group = Fiber.Group.create ();
    alive = true;
    incarnation = 0;
    restart_hooks = [];
  }

let id t = t.id
let engine t = t.eng
let model t = t.model
let rng t = t.rng
let group t = t.group
let alive t = t.alive
let incarnation t = t.incarnation

let crash t =
  if t.alive then begin
    t.alive <- false;
    Fiber.Group.kill t.group
  end

let restart t =
  if t.alive then invalid_arg "Site.restart: site is alive";
  t.group <- Fiber.Group.create ();
  t.alive <- true;
  t.incarnation <- t.incarnation + 1;
  List.iter (fun hook -> hook ()) (List.rev t.restart_hooks)

let on_restart t hook = t.restart_hooks <- hook :: t.restart_hooks

let spawn t ?name fn = Fiber.spawn t.eng ~group:t.group ?name fn

let after t ~delay f =
  let incarnation = t.incarnation in
  Engine.schedule_timer t.eng ~delay (fun () ->
      if t.alive && t.incarnation = incarnation then f ())

let cpu_use t ms = if ms > 0.0 then Sync.Resource.use t.cpu ~duration:ms

let cpu t = t.cpu
