exception Cancelled

exception Died of string * exn

(* The default printer shows a nested exception as [_]. *)
let () =
  Printexc.register_printer (function
    | Died (name, e) ->
        Some (Printf.sprintf "Fiber.Died(%S, %s)" name (Printexc.to_string e))
    | _ -> None)

(* A resumer is the fiber's [Engine.Wait] block: the continuation, the
   result it will resume with, the sequence number of its queued
   resumption and its links in the fiber's group. Wait queues hold it,
   the engine queues it for its wake-up and the group lists it, so a
   wait allocates one block and no closure. The type parameter is the
   continuation's: a resumer of an ['a] suspension holds a continuation
   that takes an ['a]. *)
type 'a resumer = Engine.event

(* Per-fiber state. The effect handler parks an effect's payload here
   ([delay], [parked]) and returns this fiber's handler for that effect,
   built on first use and reused for every later one, so performing an
   effect allocates no closure. *)
type context = {
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

(* A group's registrations (the waits of its blocked fibers and the
   hooks [Group.register] adds) form a circular doubly linked list of
   engine nodes through [head], in registration order, so joining and
   leaving cost a few pointer writes and no hashing. *)
and group = {
  mutable killed : bool;
  head : Engine.event;
}

let cancelled = Error Cancelled

let ok_unit = Ok ()

let nothing = Obj.repr ()

(* Fire at most once: the engine unlinks the wait from its group and
   queues its resumption, so the current event runs to completion
   first. *)
let resume (type a) (r : a resumer) (result : (a, exn) result) =
  match r with
  | Engine.Wait w when w.resumption < 0 ->
      (* [r] was built around a continuation that takes an [a] *)
      w.result <- Obj.magic result;
      Engine.resume r
  | Engine.Wait _ | Engine.Call _ | Engine.Timer _ | Engine.Hook _ -> ()

let is_pending = function
  | Engine.Wait w -> w.resumption < 0
  | Engine.Call _ | Engine.Timer _ | Engine.Hook _ -> false

module Group = struct
  type t = group

  type handle = Engine.event

  let create () =
    let rec head = Engine.Hook { prev = head; next = head; fn = ignore } in
    { killed = false; head }

  let killed t = t.killed

  (* Two walks in registration order. The group's own blocked fibers
     are cancelled first, so a member waiting on a reply from its own
     group dies of [Cancelled] rather than of a hook meant for outsiders.
     Cancelling only unlinks the wait itself, and nothing joins a
     killed group, so the second walk finds just the hooks. *)
  let kill t =
    if not t.killed then begin
      t.killed <- true;
      let n = ref (Engine.next t.head) in
      while !n != t.head do
        let next = Engine.next !n in
        (match !n with
        | Engine.Wait _ -> resume !n cancelled
        | Engine.Hook _ | Engine.Call _ | Engine.Timer _ -> ());
        n := next
      done;
      while Engine.next t.head != t.head do
        let n = Engine.next t.head in
        Engine.unlink n;
        match n with
        | Engine.Hook h -> h.fn ()
        | Engine.Wait _ | Engine.Call _ | Engine.Timer _ -> ()
      done
    end

  let register t fn =
    if t.killed then Engine.detached
    else begin
      let n = Engine.Hook { prev = Engine.detached; next = Engine.detached; fn } in
      Engine.append ~head:t.head n;
      n
    end

  let unregister = Engine.unlink
end

(* A fresh wait joins the fiber's group, or is cancelled at once if the
   group is already dead. [result] is what an expiry resumes it with. *)
let wait ctx k result =
  let w =
    Engine.Wait
      {
        eng = ctx.ctx_engine;
        k;
        result;
        resumption = -1;
        prev = Engine.detached;
        next = Engine.detached;
      }
  in
  (match ctx.ctx_group with
  | Some g when not g.killed -> Engine.append ~head:g.head w
  | Some _ -> resume w cancelled
  | None -> ());
  w

let on_sleep ctx k = Engine.expire ctx.ctx_engine ~delay:ctx.delay (wait ctx k ok_unit)

(* The registration runs in the effect handler, outside the fiber, so
   an exception it raises is sent back through the fiber it was
   suspending and escapes as [Died] naming it: the wait leaves its
   group and stops being pending, then the continuation is
   discontinued. A wait the registration already resumed is not
   discontinued twice: its queued resumption carries the exception
   instead. *)
let on_suspend (type a) ctx (k : (a, unit) Effect.Deep.continuation) =
  (* [parked] holds the [Suspend] payload whose continuation this is,
     stored in the universal representation (as [Ring] stores its
     elements) because one handler serves every result type *)
  let register : a resumer -> unit = Obj.obj ctx.parked in
  ctx.parked <- nothing;
  let w = wait ctx k cancelled in
  match register w with
  | () -> ()
  | exception e -> (
      match w with
      | Engine.Wait b when b.resumption < 0 ->
          Engine.unlink w;
          (* no longer pending, and matching no queued entry: a wait
             queue that kept it skips it *)
          b.resumption <- max_int;
          Effect.Deep.discontinue k e
      | Engine.Wait b -> b.result <- Error e
      | Engine.Call _ | Engine.Timer _ | Engine.Hook _ -> ())

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
