open Camelot_sim

type mode = Shared | Exclusive

let pp_mode ppf = function
  | Shared -> Format.pp_print_string ppf "S"
  | Exclusive -> Format.pp_print_string ppf "X"

exception Broken

type 'o waiter = {
  w_owner : 'o;
  w_mode : mode;
  w_resume : unit Fiber.resumer;
  mutable w_abandoned : bool;  (* timed out *)
  mutable w_timer : Engine.timer;  (* the pending timeout, if any *)
}

(* One interned entry per key. Entries are never removed, so the
   per-owner index can hold direct entry references and a release
   never re-hashes the key string. Holder sets are small (a handful of
   family members), so parallel arrays with linear scans beat assoc
   lists on both allocation and locality. Most keys are never waited
   on: an entry shares the vacant sentinel's empty queue until its
   first wait gives it one of its own, so nothing is ever added to the
   shared queue. *)
type 'o entry = {
  e_key : string;
  e_hash : int;
  mutable h_owners : 'o array;
  mutable h_modes : mode array;
  mutable h_len : int;
  mutable queue : 'o waiter Queue.t;
}

(* Entries currently held by one owner (append-only between releases). *)
type 'o owned = {
  mutable o_entries : 'o entry array;
  mutable o_len : int;
}

type 'o t = {
  eng : Engine.t;
  is_ancestor : 'o -> 'o -> bool;
  vacant : 'o entry;
      (* marks an empty slot; it holds nothing, queues nothing and is
         never written, so a lookup may return it as "no such key" *)
  mutable slots : 'o entry array;  (* open-addressed, power of two *)
  mutable n_entries : int;
  owners : ('o, 'o owned) Hashtbl.t;
  mutable grants : int;
  mutable contended_grants : int;
}

let create eng ~is_ancestor =
  let vacant =
    { e_key = ""; e_hash = 0; h_owners = [||]; h_modes = [||]; h_len = 0;
      queue = Queue.create () }
  in
  {
    eng;
    is_ancestor;
    vacant;
    slots = Array.make 64 vacant;
    n_entries = 0;
    owners = Hashtbl.create 64;
    grants = 0;
    contended_grants = 0;
  }

(* Linear probing; returns the key's slot or the insertion point. *)
let probe t h key =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let rec go i =
    let j = (h + i) land mask in
    let e = slots.(j) in
    if e == t.vacant || (e.e_hash = h && String.equal e.e_key key) then j
    else go (i + 1)
  in
  go 0

let resize t =
  let slots = Array.make (2 * Array.length t.slots) t.vacant in
  let mask = Array.length slots - 1 in
  Array.iter
    (fun e ->
      if e != t.vacant then
        let rec place i =
          let j = (e.e_hash + i) land mask in
          if slots.(j) == t.vacant then slots.(j) <- e else place (i + 1)
        in
        place 0)
    t.slots;
  t.slots <- slots

let entry t key =
  let h = Hashtbl.hash key in
  let j = probe t h key in
  let e = t.slots.(j) in
  if e != t.vacant then e
  else begin
    let e =
      { e_key = key; e_hash = h; h_owners = [||]; h_modes = [||]; h_len = 0;
        queue = t.vacant.queue }
    in
    t.slots.(j) <- e;
    t.n_entries <- t.n_entries + 1;
    if 2 * t.n_entries >= Array.length t.slots then resize t;
    e
  end

(* The key's entry, or [t.vacant] if it has none. *)
let find_entry t key =
  let h = Hashtbl.hash key in
  t.slots.(probe t h key)

(* --- holder sets --------------------------------------------------- *)

let holder_idx e owner =
  let rec go i =
    if i >= e.h_len then -1 else if e.h_owners.(i) = owner then i else go (i + 1)
  in
  go 0

let held_mode e owner =
  let i = holder_idx e owner in
  if i < 0 then None else Some e.h_modes.(i)

let holder_add e owner mode =
  if e.h_len = Array.length e.h_owners then begin
    let cap = if e.h_len = 0 then 4 else 2 * e.h_len in
    let owners = Array.make cap owner and modes = Array.make cap mode in
    Array.blit e.h_owners 0 owners 0 e.h_len;
    Array.blit e.h_modes 0 modes 0 e.h_len;
    e.h_owners <- owners;
    e.h_modes <- modes
  end;
  e.h_owners.(e.h_len) <- owner;
  e.h_modes.(e.h_len) <- mode;
  e.h_len <- e.h_len + 1

(* Swap-remove; repoint the vacated slot at a live owner so the array
   never retains a released one beyond [h_len]. An emptied set drops
   its arrays, as a fresh entry has none. *)
let holder_remove_at e i =
  let last = e.h_len - 1 in
  e.h_owners.(i) <- e.h_owners.(last);
  e.h_modes.(i) <- e.h_modes.(last);
  e.h_owners.(last) <- e.h_owners.(0);
  e.h_len <- last;
  if last = 0 then begin
    e.h_owners <- [||];
    e.h_modes <- [||]
  end

(* --- per-owner index ----------------------------------------------- *)

(* Only called when [owner] newly becomes a holder of [e], so the
   vector never holds duplicates. *)
let owned_add t owner e =
  let o =
    match Hashtbl.find_opt t.owners owner with
    | Some o -> o
    | None ->
        let o = { o_entries = [||]; o_len = 0 } in
        Hashtbl.replace t.owners owner o;
        o
  in
  if o.o_len = Array.length o.o_entries then begin
    let cap = if o.o_len = 0 then 4 else 2 * o.o_len in
    let bigger = Array.make cap e in
    Array.blit o.o_entries 0 bigger 0 o.o_len;
    o.o_entries <- bigger
  end;
  o.o_entries.(o.o_len) <- e;
  o.o_len <- o.o_len + 1

(* --- grant rules --------------------------------------------------- *)

(* Moss nesting rules. [Exclusive]: every other holder must be an
   ancestor of the requester. [Shared]: every other [Exclusive] holder
   must be an ancestor. The requester's own holding never conflicts. *)
let compatible t e ~owner mode =
  let rec go i =
    i >= e.h_len
    || (let holder = e.h_owners.(i) in
        (holder = owner
        || t.is_ancestor holder owner
        ||
        match (mode, e.h_modes.(i)) with
        | Shared, Shared -> true
        | Shared, Exclusive | Exclusive, (Shared | Exclusive) -> false)
        && go (i + 1))
  in
  go 0

let stronger_or_equal have want =
  match (have, want) with
  | Exclusive, (Shared | Exclusive) | Shared, Shared -> true
  | Shared, Exclusive -> false

let record_grant t e ~owner mode ~waited =
  (match holder_idx e owner with
  | -1 ->
      holder_add e owner mode;
      owned_add t owner e
  | i -> if not (stronger_or_equal e.h_modes.(i) mode) then e.h_modes.(i) <- mode);
  t.grants <- t.grants + 1;
  if waited then t.contended_grants <- t.contended_grants + 1

(* Wake queued waiters FIFO, stopping at the first one that still
   cannot be granted (no overtaking). A popped waiter's timeout timer
   is cancelled so it never fires into the engine queue. *)
let pump t e =
  let rec loop () =
    match Queue.peek_opt e.queue with
    | None -> ()
    | Some w ->
        if w.w_abandoned || not (Fiber.is_pending w.w_resume) then begin
          ignore (Queue.pop e.queue : 'o waiter);
          Engine.cancel t.eng w.w_timer;
          loop ()
        end
        else if compatible t e ~owner:w.w_owner w.w_mode then begin
          ignore (Queue.pop e.queue : 'o waiter);
          Engine.cancel t.eng w.w_timer;
          record_grant t e ~owner:w.w_owner w.w_mode ~waited:true;
          Fiber.resume w.w_resume (Ok ());
          loop ()
        end
  in
  loop ()

let acquire_opt t ~owner ~key mode ~timeout =
  let e = entry t key in
  match held_mode e owner with
  | Some prior when stronger_or_equal prior mode -> true
  | Some _ | None ->
      if Queue.is_empty e.queue && compatible t e ~owner mode then begin
        record_grant t e ~owner mode ~waited:false;
        true
      end
      else begin
        Fiber.suspend (fun resume ->
            let w =
              {
                w_owner = owner;
                w_mode = mode;
                w_resume = resume;
                w_abandoned = false;
                w_timer = Engine.no_timer;
              }
            in
            if e.queue == t.vacant.queue then e.queue <- Queue.create ();
            Queue.add w e.queue;
            (* the new waiter may be grantable right away if everything
               ahead of it is dead *)
            pump t e;
            match timeout with
            | None -> ()
            | Some d ->
                (* skip the timer entirely if the pump above already
                   granted (the resume fires synchronously) *)
                if (not w.w_abandoned) && Fiber.is_pending w.w_resume then
                  w.w_timer <-
                    Engine.schedule_timer t.eng ~delay:d (fun () ->
                        if (not w.w_abandoned) && Fiber.is_pending w.w_resume
                        then begin
                          match held_mode e w.w_owner with
                          | Some m when stronger_or_equal m w.w_mode -> ()
                          | Some _ | None ->
                              w.w_abandoned <- true;
                              Fiber.resume w.w_resume (Ok ());
                              pump t e
                        end));
        match held_mode e owner with
        | Some m when stronger_or_equal m mode -> true
        | Some _ | None -> false
      end

let acquire t ~owner ~key mode =
  let granted = acquire_opt t ~owner ~key mode ~timeout:None in
  assert granted

let acquire_timeout t ~owner ~key mode ~timeout =
  acquire_opt t ~owner ~key mode ~timeout:(Some timeout)

let try_acquire t ~owner ~key mode =
  let e = entry t key in
  match held_mode e owner with
  | Some prior when stronger_or_equal prior mode -> true
  | Some _ | None ->
      if Queue.is_empty e.queue && compatible t e ~owner mode then begin
        record_grant t e ~owner mode ~waited:false;
        true
      end
      else false

let held t ~owner ~key = held_mode (find_entry t key) owner

let release_all t ~owner =
  match Hashtbl.find_opt t.owners owner with
  | None -> ()
  | Some o ->
      Hashtbl.remove t.owners owner;
      for i = 0 to o.o_len - 1 do
        let e = o.o_entries.(i) in
        let j = holder_idx e owner in
        if j >= 0 then holder_remove_at e j;
        pump t e
      done

let transfer t ~from_ ~to_ =
  if from_ <> to_ then
    match Hashtbl.find_opt t.owners from_ with
    | None -> ()
    | Some o ->
        Hashtbl.remove t.owners from_;
        for i = 0 to o.o_len - 1 do
          let e = o.o_entries.(i) in
          let fi = holder_idx e from_ in
          if fi >= 0 then begin
            let from_mode = e.h_modes.(fi) in
            (match holder_idx e to_ with
            | -1 ->
                (* retag the holding in place; the mode carries over *)
                e.h_owners.(fi) <- to_;
                owned_add t to_ e
            | ti ->
                if not (stronger_or_equal e.h_modes.(ti) from_mode) then
                  e.h_modes.(ti) <- from_mode;
                holder_remove_at e fi);
            pump t e
          end
        done

let holders t ~key =
  let e = find_entry t key in
  let rec go i acc =
    if i < 0 then acc else go (i - 1) ((e.h_owners.(i), e.h_modes.(i)) :: acc)
  in
  go (e.h_len - 1) []

let queue_length t ~key =
  Queue.fold
    (fun acc w ->
      if (not w.w_abandoned) && Fiber.is_pending w.w_resume then acc + 1 else acc)
    0 (find_entry t key).queue

let all_held t =
  let acc = ref [] in
  Array.iter
    (fun e ->
      for i = e.h_len - 1 downto 0 do
        acc := (e.e_key, e.h_owners.(i), e.h_modes.(i)) :: !acc
      done)
    t.slots;
  !acc

let break_all t =
  (* resumes are queued through the engine, so firing them while
     walking the slot array cannot re-enter the table *)
  Array.iter
    (fun e ->
      if e.queue != t.vacant.queue then begin
        Queue.iter
          (fun w ->
            Engine.cancel t.eng w.w_timer;
            w.w_abandoned <- true;
            if Fiber.is_pending w.w_resume then
              Fiber.resume w.w_resume (Error Broken))
          e.queue;
        Queue.clear e.queue
      end)
    t.slots

let grants t = t.grants
let contended_grants t = t.contended_grants
