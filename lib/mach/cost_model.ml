type t = {
  name : string;
  mips : float;
  cpus : int;
  procedure_call_us : float;
  bcopy_base_us : float;
  bcopy_per_kb_us : float;
  kernel_call_us : float;
  copy_inout_us : float;
  context_switch_us : float;
  raw_disk_write_ms : float;
  local_ipc_ms : float;
  local_ipc_to_server_ms : float;
  local_outofline_ipc_ms : float;
  local_oneway_ipc_ms : float;
  remote_rpc_ms : float;
  log_force_ms : float;
  datagram_ms : float;
  get_lock_ms : float;
  drop_lock_ms : float;
  netmsg_rpc_ms : float;
  comman_ipc_ms : float;
  comman_cpu_ms : float;
  datagram_cycle_ms : float;
  datagram_jitter_ms : float;
  send_hiccup_p : float;
  send_hiccup_ms : float;
  tranman_cpu_ms : float;
  server_cpu_ms : float;
  log_spool_cpu_ms : float;
  log_daemon_pass_cpu_ms : float;
  log_spool_batch_cpu_ms : float;
  recovery_replay_cpu_ms : float;
  ipc_cpu_fraction : float;
  rpc_jitter_ms : float;
}

let rt =
  {
    name = "IBM RT PC / Mach 2.0";
    mips = 2.0;
    cpus = 1;
    (* Table 1 *)
    procedure_call_us = 12.0;
    bcopy_base_us = 8.4;
    bcopy_per_kb_us = 180.0;
    kernel_call_us = 149.0;
    copy_inout_us = 35.0;
    context_switch_us = 137.0;
    raw_disk_write_ms = 26.8;
    (* Table 2 *)
    local_ipc_ms = 1.5;
    local_ipc_to_server_ms = 3.0;
    local_outofline_ipc_ms = 5.5;
    local_oneway_ipc_ms = 1.0;
    remote_rpc_ms = 28.5;
    log_force_ms = 15.0;
    datagram_ms = 10.0;
    get_lock_ms = 0.5;
    drop_lock_ms = 0.5;
    (* §4.1: 19.1 + 2*1.5 + 2*3.2 = 28.5 *)
    netmsg_rpc_ms = 19.1;
    comman_ipc_ms = 1.5;
    comman_cpu_ms = 3.2;
    (* network *)
    datagram_cycle_ms = 1.7;
    datagram_jitter_ms = 1.2;
    (* occasionally a send stalls behind OS scheduling / ring access:
       this heavy tail is what multicast's single send avoids *)
    send_hiccup_p = 0.08;
    send_hiccup_ms = 30.0;
    (* per-action CPU *)
    tranman_cpu_ms = 0.7;
    server_cpu_ms = 0.5;
    log_spool_cpu_ms = 1.0;
    (* logger-daemon batched serialization: one buffer-setup pass plus a
       marginal per-record copy, amortizing the per-record IPC + copy
       overhead the per-update spool charge models *)
    log_daemon_pass_cpu_ms = 0.3;
    log_spool_batch_cpu_ms = 0.25;
    (* dependency-partitioned recovery: CPU per replayed log record
       (value re-installation + verdict lookup), charged by each replay
       fiber so chains on different processors overlap *)
    recovery_replay_cpu_ms = 0.02;
    ipc_cpu_fraction = 0.85;
    rpc_jitter_ms = 0.8;
  }

(* The VAX 8200 CPUs are ~2x slower than the RT (1 vs 2 MIPS) and the
   throughput experiments drive a shared logger to saturation: the
   paper's Figure 4 peaks near 6-7 TPS without group commit, implying
   an effective serial log-path of ~100+ ms per update commit. The
   figures below are calibrated to land in the paper's TPS ranges while
   keeping every ratio (reads vs updates, thread counts, group commit)
   emergent. *)
(* The VAX has four 1-MIP processors, but the Mach version used for the
   throughput experiments "had only a single run queue on one master
   processor" (§4.5): message handling effectively serializes on one
   CPU, so the model exposes a single effective processor. Update
   transactions additionally load the disk manager heavily (old/new
   value copies into the log: "the logger also receives high traffic"),
   modelled as CPU per spooled update record. *)
let vax =
  {
    rt with
    name = "VAX 8200 (4-way, single Mach run queue)";
    mips = 1.0;
    cpus = 1;
    context_switch_us = 300.0;
    local_ipc_ms = 3.0;
    local_ipc_to_server_ms = 5.5;
    local_outofline_ipc_ms = 11.0;
    local_oneway_ipc_ms = 2.0;
    log_force_ms = 110.0;
    get_lock_ms = 1.0;
    drop_lock_ms = 1.0;
    tranman_cpu_ms = 4.0;
    server_cpu_ms = 1.0;
    log_spool_cpu_ms = 55.0;
    (* the 55 ms spool charge is dominated by per-record disk-manager
       IPC and value copies done one record at a time; a daemon that
       serializes a whole batch in one pass pays the setup once and a
       much smaller marginal copy per record *)
    log_daemon_pass_cpu_ms = 6.0;
    log_spool_batch_cpu_ms = 9.0;
    ipc_cpu_fraction = 0.6;
    rpc_jitter_ms = 1.6;
  }

let rpc_legs t =
  [
    ("client CornMan<->NetMsgServer IPC", t.comman_ipc_ms);
    ("client CornMan CPU", t.comman_cpu_ms);
    ("NetMsgServer-to-NetMsgServer RPC", t.netmsg_rpc_ms);
    ("server CornMan CPU", t.comman_cpu_ms);
    ("server CornMan<->NetMsgServer IPC", t.comman_ipc_ms);
  ]

let pp ppf t =
  Format.fprintf ppf
    "@[<v>%s (%.1f MIPS, %d cpu)@,\
     local IPC %.1fms  to-server %.1fms  one-way %.1fms@,\
     remote RPC %.1fms  datagram %.1fms (+%.1fms cycle)@,\
     log force %.1fms  locks %.1f/%.1fms@]"
    t.name t.mips t.cpus t.local_ipc_ms t.local_ipc_to_server_ms
    t.local_oneway_ipc_ms t.remote_rpc_ms t.datagram_ms t.datagram_cycle_ms
    t.log_force_ms t.get_lock_ms t.drop_lock_ms
