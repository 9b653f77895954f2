(** The extended-LAN datagram network (a 4 Mb/s token ring in the
    paper: one continuous ring, no gateways).

    Transaction managers talk to each other with unreliable datagrams
    (paper footnote 1); this module provides them. Behaviours that the
    paper's analysis depends on are modelled explicitly:

    - {b send occupancy}: a sender's interface is busy for the datagram
      "cycle time" (1.7 ms) per send, so a coordinator sending prepare
      messages to [n] subordinates serializes them — the paper's known
      source of rising latency with transaction size;
    - {b multicast}: one cycle-time charge reaches any number of
      destinations — the paper's variance-reduction mechanism;
    - {b transit jitter}: exponential, drives the variance the paper
      observes rising with network load;
    - {b loss, partitions, crashes}: datagrams to dead or partitioned
      sites vanish silently.

    Sends are fire-and-forget and may be issued from fibers or plain
    events. Delivery runs the destination endpoint's handler as an
    engine event. *)

type t

(** [create engine ~model ~rng] builds a LAN whose timing constants
    come from [model]. @param loss datagram loss probability
    (default 0). *)
val create :
  ?loss:float ->
  Camelot_sim.Engine.t ->
  model:Camelot_mach.Cost_model.t ->
  rng:Camelot_sim.Rng.t ->
  t

(** A typed receiving port at a site. *)
type 'a endpoint

(** [endpoint t site handler] registers a port delivering into
    [handler]. *)
val endpoint : t -> Camelot_mach.Site.t -> ('a -> unit) -> 'a endpoint

(** Replace an endpoint's handler (used when a site restarts and its
    processes are recreated). *)
val set_handler : 'a endpoint -> ('a -> unit) -> unit

(** [send t ~src ep msg] transmits one datagram. Silently dropped if
    the source is dead, the destination is dead at delivery time, the
    sites are partitioned, or the loss dice say so. *)
val send : t -> src:Camelot_mach.Site.t -> 'a endpoint -> 'a -> unit

(** [send_piggybacked t ~src ep msg] transmits without occupying the
    source interface: the message rides a datagram that is being sent
    anyway (the paper's message batching for off-critical-path traffic
    such as delayed commit-acks). *)
val send_piggybacked : t -> src:Camelot_mach.Site.t -> 'a endpoint -> 'a -> unit

(** [multicast t ~src eps msg] reaches every endpoint for a single
    cycle-time charge at the source; each destination still draws its
    own transit jitter. *)
val multicast : t -> src:Camelot_mach.Site.t -> 'a endpoint list -> 'a -> unit

(** [partition t groups] makes sites in different groups mutually
    unreachable (sites absent from [groups] remain fully connected). *)
val partition : t -> Camelot_mach.Site.id list list -> unit

(** Remove all partitions. *)
val heal : t -> unit

val reachable : t -> Camelot_mach.Site.id -> Camelot_mach.Site.id -> bool

(** Datagrams handed to [send]/[multicast] (multicast counts one per
    destination). *)
val sent : t -> int

(** Datagrams actually delivered to a handler. *)
val delivered : t -> int

(** Datagrams lost to crash, partition or random loss. *)
val dropped : t -> int
