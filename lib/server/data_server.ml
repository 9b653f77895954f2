open Camelot_mach
open Camelot_core

type op = Read of string | Write of string * int | Add of string * int

exception Lock_timeout of { server : string; key : string }

(* One undo entry per update, newest first. [e_tid] is retagged to the
   parent when a subtransaction commits (anti-inheritance of the
   ability to undo, mirroring the lock transfer). *)
(* [e_new] is what this entry wrote: an undo only restores [e_old] when
   the key still holds [e_new]. Under strict two-phase locking the two
   are always equal at abort time; once short-commit releases locks
   early, a later committed writer may have overtaken the key, and the
   restore must not clobber it. *)
type undo_entry = {
  mutable e_tid : Tid.t;
  e_key : string;
  e_old : int;
  e_new : int;
}

type family_state = {
  mutable fs_undo : undo_entry list;
  mutable fs_joined : Tid.t list;  (* tids that joined at this server *)
  mutable fs_updated : bool;
  mutable fs_veto : Tid.t list;  (* test hook *)
  mutable fs_released : bool;  (* short-commit: locks dropped early *)
}

type t = {
  name : string;
  tranman : Tranman.t;
  site : Site.t;
  log : Record.t Camelot_wal.Log.t;
  lock_timeout_ms : float option;
  mutable values : (string, int) Hashtbl.t;
  mutable locks : Tid.t Camelot_lock.Lock_table.t;
  families : (int, family_state) Hashtbl.t;  (* keyed by Tid.family_key *)
}

let name t = t.name
let locks t = t.locks

let family_state t tid =
  let key = Tid.family_key tid in
  match Hashtbl.find_opt t.families key with
  | Some fs -> fs
  | None ->
      let fs =
        {
          fs_undo = [];
          fs_joined = [];
          fs_updated = false;
          fs_veto = [];
          fs_released = false;
        }
      in
      Hashtbl.replace t.families key fs;
      fs

let get_value t key = Option.value ~default:0 (Hashtbl.find_opt t.values key)

let peek t key = get_value t key

let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t.values []

let veto_next t tid = (family_state t tid).fs_veto <- tid :: (family_state t tid).fs_veto

(* the server reports old and new values to the disk manager, which
   copies them into the log buffer *)
let spool_update t tid ~key ~old_v ~new_v =
  ignore
    (Camelot_wal.Log.spool t.log
       (Record.Update
          {
            u_tid = tid;
            u_server = t.name;
            u_key = key;
            u_old = old_v;
            u_new = new_v;
          })
      : int)

(* --- callbacks registered with the transaction manager ----------- *)

let in_subtree root tid = Tid.is_ancestor root tid

(* Undo the subtree rooted at [tid]: newest entries first, then release
   the subtree's locks. *)
let do_abort t tid =
  let fs = family_state t tid in
  let model = Site.model t.site in
  let keep, gone =
    List.partition (fun e -> not (in_subtree tid e.e_tid)) fs.fs_undo
  in
  List.iter
    (fun e ->
      (* restore only while the key still holds what we wrote: after a
         short-commit early release a later committed writer may own
         the key, and its value must survive our abort *)
      if get_value t e.e_key = e.e_new then begin
        (* a nested abort must survive a later family commit: spool a
           compensating update, or crash recovery's redo pass would
           resurrect the aborted subtree's writes from their original
           update records (the volatile undo below is not enough) *)
        if not (Tid.is_top tid) then
          spool_update t e.e_tid ~key:e.e_key ~old_v:(get_value t e.e_key)
            ~new_v:e.e_old;
        Hashtbl.replace t.values e.e_key e.e_old
      end)
    gone;
  fs.fs_undo <- keep;
  List.iter
    (fun owner ->
      if in_subtree tid owner then begin
        Site.cpu_use t.site model.Cost_model.drop_lock_ms;
        Camelot_lock.Lock_table.release_all t.locks ~owner
      end)
    fs.fs_joined;
  if Tid.is_top tid then Hashtbl.remove t.families (Tid.family_key tid)

(* Family committed: discard undo, drop every member's locks. *)
let do_commit t tid =
  let fs = family_state t tid in
  let model = Site.model t.site in
  List.iter
    (fun owner ->
      Site.cpu_use t.site model.Cost_model.drop_lock_ms;
      Camelot_lock.Lock_table.release_all t.locks ~owner)
    fs.fs_joined;
  Hashtbl.remove t.families (Tid.family_key tid)

(* Short-commit early release (§3.2 variant): drop every member's locks
   NOW, at prepare time, but keep the undo stack and the family entry —
   the outcome is still undecided and an abort must still restore
   whatever nobody else has overwritten since. *)
let do_release t tid =
  let fs = family_state t tid in
  if not fs.fs_released then begin
    let model = Site.model t.site in
    List.iter
      (fun owner ->
        Site.cpu_use t.site model.Cost_model.drop_lock_ms;
        Camelot_lock.Lock_table.release_all t.locks ~owner)
      fs.fs_joined;
    fs.fs_released <- true
  end

(* Nested commit: the subtree's locks and undo entries pass to the
   parent. *)
let do_subcommit t tid =
  match Tid.parent tid with
  | None -> ()
  | Some parent ->
      let fs = family_state t tid in
      List.iter
        (fun e -> if in_subtree tid e.e_tid then e.e_tid <- parent)
        fs.fs_undo;
      List.iter
        (fun owner ->
          if in_subtree tid owner then
            Camelot_lock.Lock_table.transfer t.locks ~from_:owner ~to_:parent)
        fs.fs_joined;
      if not (List.exists (Tid.equal parent) fs.fs_joined) then
        fs.fs_joined <- parent :: fs.fs_joined

let do_vote t tid =
  match Hashtbl.find_opt t.families (Tid.family_key tid) with
  | None -> Protocol.Vote_no
  | Some fs ->
      if List.exists (Tid.equal tid) fs.fs_veto then begin
        fs.fs_veto <- List.filter (fun v -> not (Tid.equal tid v)) fs.fs_veto;
        Protocol.Vote_no
      end
      else Protocol.Vote_yes { read_only = not fs.fs_updated }

let callbacks t =
  {
    State.sv_name = t.name;
    sv_vote = do_vote t;
    sv_commit = do_commit t;
    sv_abort = do_abort t;
    sv_subcommit = do_subcommit t;
    sv_release = do_release t;
  }

let reattach t = Tranman.register_server t.tranman (callbacks t)

let create ~name ~tranman ~log ?lock_timeout_ms () =
  let site = Tranman.site tranman in
  let t =
    {
      name;
      tranman;
      site;
      log;
      lock_timeout_ms;
      values = Hashtbl.create 64;
      locks =
        Camelot_lock.Lock_table.create (Site.engine site)
          ~is_ancestor:Tid.is_ancestor;
      families = Hashtbl.create 16;
    }
  in
  reattach t;
  t

(* --- operations --------------------------------------------------- *)

let acquire t tid ~key mode =
  let model = Site.model t.site in
  Site.cpu_use t.site model.Cost_model.get_lock_ms;
  match t.lock_timeout_ms with
  | None -> Camelot_lock.Lock_table.acquire t.locks ~owner:tid ~key mode
  | Some timeout ->
      if not (Camelot_lock.Lock_table.acquire_timeout t.locks ~owner:tid ~key mode ~timeout)
      then raise (Lock_timeout { server = t.name; key })

let apply_write t fs tid ~key new_v =
  let old_v = get_value t key in
  fs.fs_undo <- { e_tid = tid; e_key = key; e_old = old_v; e_new = new_v } :: fs.fs_undo;
  fs.fs_updated <- true;
  Hashtbl.replace t.values key new_v;
  spool_update t tid ~key ~old_v ~new_v;
  new_v

let execute t tid op =
  let fs = family_state t tid in
  if not (List.exists (Tid.equal tid) fs.fs_joined) then begin
    (* Figure 1 step 4: first touch — join the transaction *)
    Tranman.join t.tranman tid ~server:t.name;
    fs.fs_joined <- tid :: fs.fs_joined
  end;
  match op with
  | Read key ->
      acquire t tid ~key Camelot_lock.Lock_table.Shared;
      get_value t key
  | Write (key, v) ->
      acquire t tid ~key Camelot_lock.Lock_table.Exclusive;
      apply_write t fs tid ~key v
  | Add (key, d) ->
      acquire t tid ~key Camelot_lock.Lock_table.Exclusive;
      apply_write t fs tid ~key (get_value t key + d)

(* --- crash / recovery --------------------------------------------- *)

(* Fail lock waiters whose fibers survived the site crash (remote
   callers block inside our lock table on their own site's fiber). *)
let break_waiters t = Camelot_lock.Lock_table.break_all t.locks

let reset t =
  break_waiters t;
  t.values <- Hashtbl.create 64;
  t.locks <-
    Camelot_lock.Lock_table.create (Site.engine t.site) ~is_ancestor:Tid.is_ancestor;
  Hashtbl.reset t.families

let redo t (u : Record.update) =
  if u.u_server = t.name then Hashtbl.replace t.values u.u_key u.u_new

(* Conditional, like [do_abort]'s restore: after a short-commit early
   release a loser's key may hold a later committed writer's value,
   which redo already reinstated and this undo must not clobber. *)
let undo t (u : Record.update) =
  if u.u_server = t.name && get_value t u.u_key = u.u_new then
    Hashtbl.replace t.values u.u_key u.u_old

(* --- checkpointing ------------------------------------------------- *)

(* One walk over the undo stacks, newest entries first, builds both
   halves of a checkpoint. A write whose key still holds what it wrote
   is undone in the committed snapshot (walking each key back to its
   committed value) and carried as written, so a recovery that starts
   from the checkpoint can rebuild undo stacks and locks for
   transactions still unresolved. A write that a later committed writer
   overtook after a short-commit early release is neither: the key's
   value is that writer's, and a restart must neither redo nor undo the
   released write over it. *)
let checkpoint t =
  let committed = Hashtbl.copy t.values in
  let active =
    Hashtbl.fold
      (fun _ fs acc ->
        (* prepending newest-first leaves each family's updates oldest
           first *)
        List.fold_left
          (fun acc (e : undo_entry) ->
            if Option.value ~default:0 (Hashtbl.find_opt committed e.e_key) = e.e_new
            then begin
              Hashtbl.replace committed e.e_key e.e_old;
              {
                Record.u_tid = e.e_tid;
                u_server = t.name;
                u_key = e.e_key;
                u_old = e.e_old;
                u_new = e.e_new;
              }
              :: acc
            end
            else acc)
          acc fs.fs_undo)
      t.families []
  in
  (Hashtbl.fold (fun key v acc -> (t.name, key, v) :: acc) committed [], active)

(* Recovery: install a checkpointed committed value. *)
let restore t ~key ~value = Hashtbl.replace t.values key value

let recover_in_doubt t (u : Record.update) =
  if u.u_server = t.name then begin
    Hashtbl.replace t.values u.u_key u.u_new;
    let fs = family_state t u.u_tid in
    fs.fs_undo <-
      { e_tid = u.u_tid; e_key = u.u_key; e_old = u.u_old; e_new = u.u_new }
      :: fs.fs_undo;
    fs.fs_updated <- true;
    if not (List.exists (Tid.equal u.u_tid) fs.fs_joined) then
      fs.fs_joined <- u.u_tid :: fs.fs_joined;
    ignore
      (Camelot_lock.Lock_table.try_acquire t.locks ~owner:u.u_tid ~key:u.u_key
         Camelot_lock.Lock_table.Exclusive
        : bool)
  end
