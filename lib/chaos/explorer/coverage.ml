(* Coverage for the chaos fuzzer: what a run *reached*, not just which
   points fired. A run's coverage is its set of

     (fault-point × hit-index × explorer-phase)

   tuples — one per distinct (point, k-th hit at some site, phase of
   the run when the hit happened). The hit index is bucketed so points
   that fire on every datagram contribute a bounded tuple family; the
   site is deliberately excluded so coverage transfers across
   workloads with different site counts.

   Phases follow the explorer's run structure: [Workload] while the
   transactions execute, [Recover] from the first heal/restart until
   everything resolved, [Hammer] during the final crash-everything
   durability pass. The same fault point hit during recovery is a
   genuinely different protocol situation than during the workload —
   the tuple space records that. *)

type phase = Workload | Recover | Hammer

let phase_to_char = function Workload -> 'w' | Recover -> 'r' | Hammer -> 'h'

(* [c_note] is the hitting site's protocol-state note at hit time,
   rendered by [note_to_string] — "" when none, which keeps pre-note
   signatures byte-identical. *)
type tuple = { c_point : string; c_hit : int; c_phase : phase; c_note : string }

let note_to_string = function
  | Camelot_chaos.Votes n -> "v" ^ string_of_int n
  | Camelot_chaos.Ballot b -> "b" ^ string_of_int b
  | Camelot_chaos.Quorum_commit -> "qc"
  | Camelot_chaos.Quorum_abort -> "qa"

(* Hit indices above the cap collapse into one overflow bucket:
   "fired a 13th-or-later time" is one fact, not an unbounded family. *)
let bucket_cap = 12

let bucket n = if n <= bucket_cap then n else bucket_cap + 1

let tuple ?(note = "") ~point ~hit ~phase () =
  { c_point = point; c_hit = bucket hit; c_phase = phase; c_note = note }

let tuple_to_string t =
  if t.c_note = "" then
    Printf.sprintf "%s#%d@%c" t.c_point t.c_hit (phase_to_char t.c_phase)
  else
    Printf.sprintf "%s#%d@%c!%s" t.c_point t.c_hit (phase_to_char t.c_phase)
      t.c_note

let compare_tuple (a : tuple) (b : tuple) = compare a b

(* The canonical signature of a run: its sorted distinct tuples joined
   into one string. Two runs with equal signatures reached exactly the
   same coverage — the corpus deduplicates on this. *)
let signature tuples =
  let sorted = List.sort_uniq compare_tuple tuples in
  String.concat ";" (List.map tuple_to_string sorted)

(* Short stable digest of a signature, used for corpus file names. *)
let short signature = Digest.to_hex (Digest.string signature)
