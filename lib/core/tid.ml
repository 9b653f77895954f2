(* A transaction identifier is its packed key plus the nesting path.
   The key bit-packs [origin | seq | depth] into one immediate int so
   that the family tables of [State] (and the data servers) can be
   int-keyed instead of polymorphic-hashing [(Site.id * int)] tuples,
   and so that equality and family checks are single compares on the
   commit hot path. *)

let depth_bits = 6
let seq_bits = 36
let origin_bits = 21
let max_depth = (1 lsl depth_bits) - 1
let max_seq = (1 lsl seq_bits) - 1
let max_origin = (1 lsl origin_bits) - 1

type t = { key : int; path : int list }

let pack ~origin ~seq ~depth =
  (origin lsl (seq_bits + depth_bits)) lor (seq lsl depth_bits) lor depth

let origin t = t.key lsr (seq_bits + depth_bits)
let seq t = (t.key lsr depth_bits) land max_seq
let depth t = t.key land max_depth

let key t = t.key
let family_key t = t.key lsr depth_bits
let family t = (origin t, seq t)

let compare a b =
  (* family-major (origin, then seq), then depth, then path; total *)
  match Int.compare a.key b.key with
  | 0 -> Stdlib.compare a.path b.path
  | c -> c

let equal a b = a == b || (a.key = b.key && a.path = b.path)

let root ~origin ~seq =
  if origin < 0 || origin > max_origin then invalid_arg "Tid.root: bad origin";
  if seq < 0 || seq > max_seq then invalid_arg "Tid.root: bad seq";
  { key = pack ~origin ~seq ~depth:0; path = [] }

let child t ~n =
  if n < 0 then invalid_arg "Tid.child: negative index";
  if t.key land max_depth = max_depth then invalid_arg "Tid.child: too deep";
  (* depth lives in the low bits, so descending is an increment *)
  { key = t.key + 1; path = t.path @ [ n ] }

let root_key t = t.key land lnot max_depth

let parent t =
  match t.path with
  | [] -> None
  | path -> (
      match List.rev path with
      | [] -> None
      | _ :: rev_prefix -> Some { key = t.key - 1; path = List.rev rev_prefix })

let is_top t = t.key land max_depth = 0

let top t = if is_top t then t else { key = root_key t; path = [] }

let rec is_prefix prefix path =
  match (prefix, path) with
  | [], _ -> true
  | _ :: _, [] -> false
  | a :: prefix', b :: path' -> a = b && is_prefix prefix' path'

let same_family a b = a.key lsr depth_bits = b.key lsr depth_bits

let is_ancestor a b = same_family a b && is_prefix a.path b.path

(* [to_string] cache: direct-mapped over the root key, so the hot case
   (rendering top-level transactions, e.g. while tracing) allocates the
   "T<origin>.<seq>" base once per family instead of on every call. *)
let cache_size = 1024
let str_keys = Array.make cache_size (-1)
let str_vals = Array.make cache_size ""

let base_string t =
  let rk = root_key t in
  let slot = (rk lsr depth_bits) land (cache_size - 1) in
  if Array.unsafe_get str_keys slot = rk then Array.unsafe_get str_vals slot
  else begin
    let s = "T" ^ string_of_int (origin t) ^ "." ^ string_of_int (seq t) in
    Array.unsafe_set str_keys slot rk;
    Array.unsafe_set str_vals slot s;
    s
  end

let to_string t =
  let base = base_string t in
  match t.path with
  | [] -> base
  | path ->
      let buf = Buffer.create (String.length base + (4 * List.length path)) in
      Buffer.add_string buf base;
      List.iter
        (fun n ->
          Buffer.add_char buf '/';
          Buffer.add_string buf (string_of_int n))
        path;
      Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)
