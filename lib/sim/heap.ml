(* 4-ary min-heap in structure-of-arrays layout.

   Priorities live in an unboxed [float array] and tie-breaking sequence
   numbers in an [int array], so the comparisons that dominate sift cost
   never chase a pointer. Values are kept in a separate [Obj.t array]:
   the universal representation lets vacated slots be overwritten with a
   unit sentinel (so popped callbacks become collectable) without
   requiring a dummy of the element type, and keeps the array a pointer
   array even when the element type is [float].

   Both sifts use hole-sifting: the entry being placed is held in
   registers while the hole migrates, one store per level instead of the
   three of a swap. Arity 4 halves the depth of a binary heap; the
   extra comparisons per level are cheap flat-array loads. *)

let arity = 4

type 'a t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable vals : Obj.t array;
  mutable size : int;
}

(* Sentinel stored in every slot not holding a live element. *)
let dummy : Obj.t = Obj.repr ()

let create () = { prios = [||]; seqs = [||]; vals = [||]; size = 0 }

let[@inline] length t = t.size

let[@inline] is_empty t = t.size = 0

let grow t =
  if t.size = Array.length t.prios then begin
    let capacity = max 16 (2 * t.size) in
    let prios = Array.make capacity 0.0 in
    let seqs = Array.make capacity 0 in
    let vals = Array.make capacity dummy in
    Array.blit t.prios 0 prios 0 t.size;
    Array.blit t.seqs 0 seqs 0 t.size;
    Array.blit t.vals 0 vals 0 t.size;
    t.prios <- prios;
    t.seqs <- seqs;
    t.vals <- vals
  end

let push t ~priority ~seq value =
  grow t;
  let prios = t.prios and seqs = t.seqs and vals = t.vals in
  (* hole starts at the new tail slot and migrates toward the root past
     every larger parent; the pushed entry is stored once at the end *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let sifting = ref true in
  while !sifting && !i > 0 do
    let parent = (!i - 1) / arity in
    let pp = Array.unsafe_get prios parent in
    if priority < pp || (priority = pp && seq < Array.unsafe_get seqs parent)
    then begin
      Array.unsafe_set prios !i pp;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set vals !i (Array.unsafe_get vals parent);
      i := parent
    end
    else sifting := false
  done;
  Array.unsafe_set prios !i priority;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set vals !i (Obj.repr value)

let pop_exn t =
  if t.size = 0 then invalid_arg "Heap.pop_exn: empty";
  let vals = t.vals in
  let top = Array.unsafe_get vals 0 in
  let n = t.size - 1 in
  t.size <- n;
  if n = 0 then Array.unsafe_set vals 0 dummy
  else begin
    let prios = t.prios and seqs = t.seqs in
    (* the tail entry re-enters along the min-child path of the hole
       left at the root; its old slot is cleared so the value it held
       is no longer reachable from the heap *)
    let tp = Array.unsafe_get prios n in
    let ts = Array.unsafe_get seqs n in
    let tv = Array.unsafe_get vals n in
    Array.unsafe_set vals n dummy;
    let i = ref 0 in
    let sifting = ref true in
    while !sifting do
      let first = (arity * !i) + 1 in
      if first >= n then sifting := false
      else begin
        (* not [Stdlib.min]: that is a polymorphic-compare call *)
        let last =
          let l = first + (arity - 1) in
          if l < n then l else n - 1
        in
        let m = ref first in
        let mp = ref (Array.unsafe_get prios first) in
        let ms = ref (Array.unsafe_get seqs first) in
        for c = first + 1 to last do
          let cp = Array.unsafe_get prios c in
          if cp < !mp || (cp = !mp && Array.unsafe_get seqs c < !ms) then begin
            m := c;
            mp := cp;
            ms := Array.unsafe_get seqs c
          end
        done;
        if !mp < tp || (!mp = tp && !ms < ts) then begin
          Array.unsafe_set prios !i !mp;
          Array.unsafe_set seqs !i !ms;
          Array.unsafe_set vals !i (Array.unsafe_get vals !m);
          i := !m
        end
        else sifting := false
      end
    done;
    Array.unsafe_set prios !i tp;
    Array.unsafe_set seqs !i ts;
    Array.unsafe_set vals !i tv
  end;
  (Obj.obj top : 'a)

let pop t = if t.size = 0 then None else Some (pop_exn t)

let[@inline] min_priority t =
  if t.size = 0 then invalid_arg "Heap.min_priority: empty";
  Array.unsafe_get t.prios 0

let min_before t ~priority ~seq =
  if t.size = 0 then invalid_arg "Heap.min_before: empty";
  let p = Array.unsafe_get t.prios 0 in
  p < priority || (p = priority && Array.unsafe_get t.seqs 0 < seq)

let clear t =
  t.prios <- [||];
  t.seqs <- [||];
  t.vals <- [||];
  t.size <- 0

let isheap t =
  let ok = ref (t.size <= Array.length t.prios) in
  for i = 1 to t.size - 1 do
    let parent = (i - 1) / arity in
    let pp = t.prios.(parent) and cp = t.prios.(i) in
    if cp < pp || (cp = pp && t.seqs.(i) < t.seqs.(parent)) then ok := false
  done;
  (* vacated slots must hold the sentinel, not stale values *)
  for i = t.size to Array.length t.vals - 1 do
    if t.vals.(i) != dummy then ok := false
  done;
  !ok
