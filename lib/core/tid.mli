(** Transaction identifiers for arbitrarily nested, distributed
    transactions (the Moss model shared by Camelot and Argus).

    A {e family} is a top-level transaction together with all its
    descendants (paper §3.4). The identifier carries everything any
    site needs without a lookup:

    - the {b origin}: the site whose TranMan created the family — that
      site is the commit coordinator;
    - the family {b sequence number}, unique at the origin;
    - the {b path} from the root through the nesting tree, so the
      ancestor relation (which drives lock inheritance) is a prefix
      check. The root has path [[]]; its second child has path [[1]];
      that child's first child [[1; 0]]. *)

type t

(** Total order (families first, then path, lexicographic). *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** [root ~origin ~seq] is a fresh top-level transaction identifier. *)
val root : origin:Camelot_mach.Site.id -> seq:int -> t

(** [child parent ~n] is [parent]'s [n]-th subtransaction. *)
val child : t -> n:int -> t

(** [parent t] is [None] for a top-level transaction. *)
val parent : t -> t option

(** The top-level ancestor ([t] itself if top-level). *)
val top : t -> t

val is_top : t -> bool

(** Nesting depth; 0 for top-level. *)
val depth : t -> int

(** The coordinator site of the family. *)
val origin : t -> Camelot_mach.Site.id

(** Family key: identifies the family across sites. *)
val family : t -> Camelot_mach.Site.id * int

(** Packed family key — [origin] and [seq] bit-packed into one
    immediate int, equal exactly when {!family} is equal. The
    transaction manager's family and waiter tables are keyed on this
    (an int-keyed hash table beats polymorphic hashing of an
    [(id * int)] tuple on the commit hot path). *)
val family_key : t -> int

(** Packed identifier key: {!family_key} plus the nesting depth in the
    low bits. Unique per transaction {e within a family} only up to
    depth (siblings share it); combine with the path where full
    identity is needed. *)
val key : t -> int

(** [is_ancestor a b]: [a] = [b], or [a] is a proper ancestor of [b]
    in the same family. This is the relation the lock table uses. *)
val is_ancestor : t -> t -> bool

val same_family : t -> t -> bool

(** ["T<origin>.<seq>" followed by "/n" path segments]. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
