(* Growable circular FIFO buffer.

   Replaces [Queue.t] in the simulator's wait queues and mailboxes: a
   [Queue] allocates a cell per element, while a ring reuses a flat
   array, costing no allocation per element in steady state. Elements
   are stored in their universal representation so vacated slots can be
   reset to a unit sentinel (popped values do not linger reachable) and
   so a [float] element type cannot flatten the array. *)

type 'a t = {
  mutable buf : Obj.t array; (* power-of-two capacity *)
  mutable head : int;
  mutable len : int;
}

let dummy : Obj.t = Obj.repr ()

let create () = { buf = [||]; head = 0; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

(* Wait queues and mailboxes mostly hold one or two entries at a time,
   and a coordinator's vote mailbox lives for one commit, so the first
   buffer is small: 4 slots, doubling from there. *)
let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (max 4 (2 * cap)) dummy in
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.((t.head + i) land (cap - 1))
  done;
  t.buf <- buf;
  t.head <- 0

let push t v =
  if t.len = Array.length t.buf then grow t;
  t.buf.((t.head + t.len) land (Array.length t.buf - 1)) <- Obj.repr v;
  t.len <- t.len + 1

let pop_exn t =
  if t.len = 0 then invalid_arg "Ring.pop_exn: empty";
  let slot = t.head in
  let v = Array.unsafe_get t.buf slot in
  Array.unsafe_set t.buf slot dummy;
  t.head <- (slot + 1) land (Array.length t.buf - 1);
  t.len <- t.len - 1;
  (Obj.obj v : 'a)

let pop_opt t = if t.len = 0 then None else Some (pop_exn t)

let iter f t =
  let cap = Array.length t.buf in
  for i = 0 to t.len - 1 do
    f (Obj.obj t.buf.((t.head + i) land (cap - 1)) : 'a)
  done

let fold f init t =
  let acc = ref init in
  iter (fun v -> acc := f !acc v) t;
  !acc

let clear t =
  (* drop the backing store so cleared elements are collectable *)
  t.buf <- [||];
  t.head <- 0;
  t.len <- 0
