(** Primitive cost models, calibrated from the paper's measurements.

    The paper's §4 analyzes every protocol as a composition of
    primitives (Table 2) and reports raw machine/Mach benchmarks
    (Table 1). A cost model packages those constants so that the whole
    simulation — and the static analysis of §4.2/§4.3 — reads from one
    place. Two profiles are provided: {!rt} (IBM RT PC model 125 + Mach
    2.0 + 4 Mb/s token ring: the latency experiments) and {!vax}
    (4-way VAX 8200 multiprocessor: the throughput experiments of
    Figures 4 and 5). *)

type t = {
  name : string;
  mips : float;  (** rough CPU speed, for the Table 1 narrative *)
  cpus : int;  (** processors per site *)
  (* --- Table 1: machine/Mach benchmarks (microseconds unless noted) *)
  procedure_call_us : float;  (** procedure call, 32-byte arg *)
  bcopy_base_us : float;  (** data copy fixed cost *)
  bcopy_per_kb_us : float;  (** data copy per-KB cost *)
  kernel_call_us : float;  (** getpid(), fastest kernel call *)
  copy_inout_us : float;  (** copy data in/out of kernel, fixed part *)
  context_switch_us : float;  (** swtch() *)
  raw_disk_write_ms : float;  (** raw disk write, 1 track *)
  (* --- Table 2: Camelot primitives (milliseconds) *)
  local_ipc_ms : float;  (** local in-line IPC *)
  local_ipc_to_server_ms : float;  (** local in-line IPC to server *)
  local_outofline_ipc_ms : float;  (** local out-of-line IPC *)
  local_oneway_ipc_ms : float;  (** local one-way in-line message *)
  remote_rpc_ms : float;  (** full remote RPC (sum of the legs below) *)
  log_force_ms : float;  (** synchronous stable-storage force *)
  datagram_ms : float;  (** inter-TranMan datagram transit *)
  get_lock_ms : float;
  drop_lock_ms : float;
  (* --- §4.1 decomposition of the remote RPC *)
  netmsg_rpc_ms : float;  (** NetMsgServer-to-NetMsgServer RPC *)
  comman_ipc_ms : float;  (** CornMan <-> NetMsgServer IPC, per site *)
  comman_cpu_ms : float;  (** CornMan CPU, per site *)
  (* --- network behaviour *)
  datagram_cycle_ms : float;  (** per-datagram send occupancy at the NIC *)
  datagram_jitter_ms : float;  (** mean of exponential transit jitter *)
  send_hiccup_p : float;
      (** probability that a send stalls behind OS scheduling — the
          heavy tail behind the paper's rising variance; multicast pays
          this dice-roll once instead of once per destination *)
  send_hiccup_ms : float;  (** mean of the exponential stall *)
  (* --- CPU charged per protocol action (drives queueing/variance) *)
  tranman_cpu_ms : float;  (** TranMan processing per protocol message *)
  server_cpu_ms : float;  (** data-server processing per operation *)
  log_spool_cpu_ms : float;
      (** disk-manager CPU per spooled update record (old/new value
          copies through the logger; dominates update throughput on the
          VAX) *)
  log_daemon_pass_cpu_ms : float;
      (** logger-daemon batched serialization: fixed CPU per
          drain-and-serialize pass, paid once however many records the
          pass covers *)
  log_spool_batch_cpu_ms : float;
      (** logger-daemon batched serialization: marginal CPU per record
          in a pass (replaces [log_spool_cpu_ms] when the daemon defers
          spool work) *)
  recovery_replay_cpu_ms : float;
      (** dependency-partitioned recovery: CPU per replayed record,
          charged by each chain's replay fiber so independent chains
          overlap across the site's processors *)
  ipc_cpu_fraction : float;
      (** share of an IPC's latency spent on the CPU (the rest is
          scheduling wait during which the processor is free) *)
  rpc_jitter_ms : float;  (** mean of exponential jitter per RPC *)
}

(** IBM RT PC model 125 (2 MIPS), Mach 2.0, 4 Mb/s token ring — the
    environment of Tables 1–3 and Figures 2–3. Constants are the
    paper's own measurements. *)
val rt : t

(** 4-way VAX 8200 (1-MIP CPUs) — the environment of Figures 4–5. CPU
    costs are scaled by the MIPS ratio; the log force reflects the
    shared logger observed to saturate near 8–10 update TPS without
    group commit. *)
val vax : t

(** The §4.1 RPC decomposition: labelled legs summing to
    [remote_rpc_ms]. *)
val rpc_legs : t -> (string * float) list

val pp : Format.formatter -> t -> unit
