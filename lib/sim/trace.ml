type record = { time : float; tag : string; message : string }

type t = {
  capacity : int;
  ring : record option array;
  mutable next : int;
  mutable count : int;
  mutable enabled : bool;
}

let create ?(capacity = 4096) ?(enabled = true) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; ring = Array.make capacity None; next = 0; count = 0; enabled }

let set_enabled t flag = t.enabled <- flag

let enabled t = t.enabled

let add t record =
  t.ring.(t.next) <- Some record;
  t.next <- (t.next + 1) mod t.capacity;
  if t.count < t.capacity then t.count <- t.count + 1

(* When disabled, the format arguments are consumed without being
   rendered: [ikfprintf] never touches the formatter, so no message is
   built. It is not free, though: [ikfprintf] still allocates a closure
   per conversion as it consumes the arguments. A call site that must
   cost one branch when tracing is off tests [enabled] before applying
   [record] to anything. *)
let record t eng ~tag fmt =
  if t.enabled then
    Format.kasprintf
      (fun message -> add t { time = Engine.now eng; tag; message })
      fmt
  else Format.ikfprintf ignore Format.err_formatter fmt

let dump t =
  let result = ref [] in
  let start = (t.next - t.count + t.capacity) mod t.capacity in
  for i = t.count - 1 downto 0 do
    match t.ring.((start + i) mod t.capacity) with
    | Some r -> result := r :: !result
    | None -> ()
  done;
  !result
