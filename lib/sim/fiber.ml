exception Cancelled

exception Died of string * exn

(* The default printer shows a nested exception as [_]. *)
let () =
  Printexc.register_printer (function
    | Died (name, e) ->
        Some (Printf.sprintf "Fiber.Died(%S, %s)" name (Printexc.to_string e))
    | _ -> None)

(* One record per suspension: the continuation, whether it has been
   resumed yet, the fiber's group registration ([detached] when it has
   none) and the result the continuation will receive. The resumer is
   both what wait queues hold and what the group's list holds, so a wait
   allocates no closures. *)
type 'a resumer = {
  ctx : context;
  k : ('a, unit) Effect.Deep.continuation;
  mutable fired : bool;
  mutable link : link;
  mutable result : ('a, exn) result;
}

(* Per-fiber state. The effect handler parks an effect's payload here
   ([delay], [parked]) and returns this fiber's handler for that effect,
   built on first use and reused for every later one, so performing an
   effect allocates no closure. *)
and context = {
  ctx_engine : Engine.t;
  ctx_group : group option;
  mutable delay : float;
  mutable parked : Obj.t;
  mutable sleep_h : ((unit, unit) Effect.Deep.continuation -> unit) option;
  mutable suspend_h : any_handler;
  mutable context_h : ((context, unit) Effect.Deep.continuation -> unit) option;
}

(* A handler whose function is polymorphic in the resume type, so one
   value serves every [Suspend]. *)
and any_handler = {
  h : 'b. (('b, unit) Effect.Deep.continuation -> unit) option;
}

(* A group's registrations form a circular doubly linked list through
   [head], in registration order, so joining and leaving cost a few
   pointer writes and no hashing. An unlinked node points at itself. *)
and group = {
  mutable killed : bool;
  head : link;
}

and link = {
  mutable prev : link;
  mutable next : link;
  hook : hook;
}

and hook = Hook of (unit -> unit) | Waiting : 'a resumer -> hook | Sentinel

let self_linked () =
  let rec n = { prev = n; next = n; hook = Sentinel } in
  n

(* The link of a resumer outside any group, or whose wait has ended: a
   fired resumer that a wait queue still holds keeps no node alive. It
   is never written ([unlink] reads a self-link and stops), so every
   domain may share it. *)
let detached = self_linked ()

let unlink n =
  if n.next != n then begin
    n.prev.next <- n.next;
    n.next.prev <- n.prev;
    n.prev <- n;
    n.next <- n
  end

let cancelled = Error Cancelled

let ok_unit = Ok ()

let nothing = Obj.repr ()

let resume_now r =
  let result = r.result in
  r.result <- cancelled;
  match result with
  | Ok v -> Effect.Deep.continue r.k v
  | Error e -> Effect.Deep.discontinue r.k e

(* Fire at most once, unregister from the group, and continue through
   the event queue so the current event runs to completion first. *)
let resume r result =
  if not r.fired then begin
    r.fired <- true;
    unlink r.link;
    r.link <- detached;
    r.result <- result;
    Engine.schedule_apply r.ctx.ctx_engine ~delay:0.0 resume_now r
  end

let is_pending r = not r.fired

module Group = struct
  type t = group

  type handle = link

  let create () = { killed = false; head = self_linked () }

  let killed t = t.killed

  (* Two walks in registration order. The group's own blocked fibers
     are cancelled first, so a member waiting on a reply from its own
     group dies of [Cancelled] rather than of a hook meant for outsiders.
     Cancelling only unlinks the resumer's own node, and nothing joins a
     killed group, so the second walk finds just the hooks. *)
  let kill t =
    if not t.killed then begin
      t.killed <- true;
      let n = ref t.head.next in
      while !n != t.head do
        let next = !n.next in
        (match !n.hook with
        | Waiting r -> resume r cancelled
        | Hook _ | Sentinel -> ());
        n := next
      done;
      while t.head.next != t.head do
        let n = t.head.next in
        unlink n;
        match n.hook with Hook f -> f () | Waiting _ | Sentinel -> ()
      done
    end

  let add t hook =
    let head = t.head in
    let n = { prev = head.prev; next = head; hook } in
    head.prev.next <- n;
    head.prev <- n;
    n

  let register t f = if t.killed then detached else add t (Hook f)

  let unregister = unlink
end

(* A fresh resumer joins the fiber's group, or is cancelled at once if
   the group is already dead. *)
let make_resumer ctx k =
  let r = { ctx; k; fired = false; link = detached; result = cancelled } in
  (match ctx.ctx_group with
  | Some g when not g.killed -> r.link <- Group.add g (Waiting r)
  | Some _ -> resume r cancelled
  | None -> ());
  r

let wake r = resume r ok_unit

let on_sleep ctx k =
  let r = make_resumer ctx k in
  Engine.schedule_apply ctx.ctx_engine ~delay:ctx.delay wake r

let on_suspend (type a) ctx (k : (a, unit) Effect.Deep.continuation) =
  (* [parked] holds the [Suspend] payload whose continuation this is,
     stored in the universal representation (as [Ring] stores its
     elements) because one handler serves every result type *)
  let register : a resumer -> unit = Obj.obj ctx.parked in
  ctx.parked <- nothing;
  register (make_resumer ctx k)

type _ Effect.t +=
  | Sleep : float -> unit Effect.t
  | Suspend : ('a resumer -> unit) -> 'a Effect.t
  | Context : context Effect.t

let spawn eng ?group ?(name = "fiber") fn =
  let ctx =
    {
      ctx_engine = eng;
      ctx_group = group;
      delay = 0.0;
      parked = nothing;
      sleep_h = None;
      suspend_h = { h = None };
      context_h = None;
    }
  in
  let handler =
    {
      Effect.Deep.retc = (fun () -> ());
      (* a body's exception leaves through the engine event that ran
         it, stopping [Engine.run] or [Engine.step] *)
      exnc = (fun e -> match e with Cancelled -> () | e -> raise (Died (name, e)));
      effc =
        (fun (type b) (eff : b Effect.t) :
             ((b, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Sleep d -> (
              ctx.delay <- d;
              match ctx.sleep_h with
              | Some _ as h -> h
              | None ->
                  let h = Some (on_sleep ctx) in
                  ctx.sleep_h <- h;
                  h)
          | Suspend register -> (
              ctx.parked <- Obj.repr register;
              match ctx.suspend_h.h with
              | Some _ as h -> h
              | None ->
                  let any = { h = Some (fun k -> on_suspend ctx k) } in
                  ctx.suspend_h <- any;
                  any.h)
          | Context -> (
              match ctx.context_h with
              | Some _ as h -> h
              | None ->
                  let h = Some (fun k -> Effect.Deep.continue k ctx) in
                  ctx.context_h <- h;
                  h)
          | _ -> None);
    }
  in
  Engine.schedule eng ~delay:0.0 (fun () ->
      match group with
      | Some g when g.killed -> ()
      | Some _ | None -> Effect.Deep.match_with fn () handler)

let run eng fn =
  let result = ref None in
  spawn eng ~name:"main" (fun () ->
      result := Some (match fn () with v -> Ok v | exception e -> Error e));
  (* step until the main fiber completes: background fibers (flushers)
     and armed protocol timers may keep the queue non-empty forever *)
  while Option.is_none !result && Engine.step eng do
    ()
  done;
  match !result with
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None -> failwith "Fiber.run: main fiber blocked forever (deadlock)"

let sleep d = Effect.perform (Sleep d)

let yield () = sleep 0.0

let context () = Effect.perform Context

let engine () = (context ()).ctx_engine

let now () = Engine.now (engine ())

let suspend register = Effect.perform (Suspend register)
