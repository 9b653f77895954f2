(** A simulated computer: CPU(s), a fiber group per incarnation, and
    crash/restart support.

    Crashing a site kills every fiber of its current incarnation (at
    their next blocking point, mirroring the paper's fail-stop model),
    marks it dead so the network drops traffic to it, and bumps the
    incarnation counter so stale wakeups from before the crash are
    never applied to the restarted site. Volatile state of processes is
    lost; the stable log (in [camelot_wal]) survives. *)

type id = int

type t

(** [create engine ~id ~model ~rng] builds a site whose CPU bank has
    [model.cpus] servers. *)
val create :
  Camelot_sim.Engine.t ->
  id:id ->
  model:Cost_model.t ->
  rng:Camelot_sim.Rng.t ->
  t

val id : t -> id
val engine : t -> Camelot_sim.Engine.t
val model : t -> Cost_model.t

(** Site-local RNG stream. *)
val rng : t -> Camelot_sim.Rng.t

(** Fiber group of the current incarnation. Processes belonging to the
    site must spawn into this group so crashes terminate them. *)
val group : t -> Camelot_sim.Fiber.Group.t

val alive : t -> bool

(** Incarnation counter, bumped by each restart. *)
val incarnation : t -> int

(** Fail-stop crash: kill all fibers of the incarnation, drop future
    message deliveries. No-op if already crashed. *)
val crash : t -> unit

(** Restart after a crash: new fiber group, new incarnation, runs the
    [on_restart] hooks (registered by e.g. the recovery process).
    @raise Invalid_argument if the site is alive. *)
val restart : t -> unit

(** Register a hook run on every [restart]. *)
val on_restart : t -> (unit -> unit) -> unit

(** Spawn a fiber belonging to this site's current incarnation. *)
val spawn : t -> ?name:string -> (unit -> unit) -> unit

(** Occupy one CPU of the site for [ms] of virtual time (FCFS).
    Returns immediately if [ms <= 0]. *)
val cpu_use : t -> float -> unit

(** The CPU bank, for utilization reporting. *)
val cpu : t -> Camelot_sim.Sync.Resource.t

val pp : Format.formatter -> t -> unit
