(** Network runtime: executes OpenFlow flow tables over a topology.

    [Net] wires a {!Topology} to live switch state ({!Ofproto.Flow_table},
    {!Ofproto.Meter}) inside a {!Sim} event loop, and provides
    controller connections modelled after encrypted OpenFlow sessions:
    per-connection latency, optional message loss on the switch→
    controller direction (to study missed monitor events, paper
    §IV-A.1), flow-monitor subscription, Packet-In delivery, Packet-Out
    and Flow-Mod injection, and flow/meter stats polling.

    Switch semantics follow OpenFlow 1.3: highest-priority match wins;
    a packet matching no entry is dropped (installing a priority-0
    table-miss entry restores reactive behaviour); [To_controller]
    actions produce Packet-Ins; hard timeouts expire entries. *)

type t

(** A controller connection (authenticated channel to some switches). *)
type conn

type drop_reason = No_rule | Meter_limited | Loop_guard | Unwired_port

type stats = {
  mutable delivered : int;  (** packets handed to host receivers *)
  mutable dropped_no_rule : int;
  mutable dropped_meter : int;
  mutable dropped_loop : int;
  mutable dropped_unwired : int;
  mutable packet_ins : int;
  mutable flow_mods : int;
  mutable ctrl_faults_lost : int;
      (** controller-connection messages dropped by injected faults *)
  mutable ctrl_faults_duplicated : int;
      (** extra controller-connection copies delivered by injected faults *)
  mutable link_faults_lost : int;
      (** data-plane packets dropped by injected link faults *)
  mutable link_faults_duplicated : int;
      (** extra data-plane copies delivered by injected link faults *)
  mutable session_drops : int;
      (** messages dropped because a controller session was down *)
}

(** [create ~seed topo] builds the runtime.  The topology must not be
    modified afterwards. *)
val create : seed:int -> Topology.t -> t

val sim : t -> Sim.t

val topology : t -> Topology.t

val stats : t -> stats

(** [table t ~sw] is switch [sw]'s live flow table.
    @raise Not_found for unknown switches. *)
val table : t -> sw:int -> Ofproto.Flow_table.t

(** [meters t ~sw] is switch [sw]'s live meter table. *)
val meters : t -> sw:int -> Ofproto.Meter.t

(** [set_host_receiver t ~host f] registers the host's receive
    callback. *)
val set_host_receiver : t -> host:int -> (Packet.t -> unit) -> unit

(** [host_send t ~host packet] injects [packet] from the host's network
    card at the current simulation time. *)
val host_send : t -> host:int -> Packet.t -> unit

(** [on_drop t f] registers a drop observer (for tests and debugging). *)
val on_drop : t -> (sw:int -> reason:drop_reason -> Packet.t -> unit) -> unit

(** {1 Controller connections} *)

(** [register_controller t ~name ~delay ?loss_prob ?faults ()] creates
    a controller connection.  [delay] is the one-way control-channel
    latency; [loss_prob] (default 0) drops each switch→controller
    {e flow-monitor event} independently (request/response exchanges
    are modelled as reliable — a real controller retries them).
    [faults] (default {!Faults.none}) applies uniformly to {e every}
    message on the connection, in both directions: Packet-Ins, stats
    replies, Flow-Mods, Packet-Outs, … — the degraded channel the
    protocol retry layers are tested against. *)
val register_controller :
  t -> name:string -> delay:float -> ?loss_prob:float -> ?faults:Faults.t -> unit -> conn

(** [set_handler conn f] sets the message handler (replacing any
    previous one). *)
val set_handler : conn -> (Ofproto.Message.to_controller -> unit) -> unit

(** [attach t conn ~sw ~monitor] connects [conn] to switch [sw];
    [monitor] subscribes it to flow-monitor events. *)
val attach : t -> conn -> sw:int -> monitor:bool -> unit

(** [attached t conn] lists switches this connection controls. *)
val attached : t -> conn -> int list

(** [send t conn ~sw msg] transmits a controller→switch message; it is
    applied after the connection delay.  @raise Invalid_argument when
    [conn] is not attached to [sw]. *)
val send : t -> conn -> sw:int -> Ofproto.Message.to_switch -> unit

(** [conn_name conn] / [conn_tx conn] / [conn_rx conn]: identification
    and message counters (rx counts messages actually delivered, after
    loss). *)
val conn_name : conn -> string

val conn_tx : conn -> int

val conn_rx : conn -> int

(** [conn_lost conn] counts messages dropped on this connection —
    flow-monitor events hit by the legacy [loss_prob] plus any message
    dropped by the connection's fault config. *)
val conn_lost : conn -> int

(** {1 Session teardown and re-establishment}

    Crash-recovery primitives (paper stance: verification must outlive
    the provider it audits).  A disconnected session silently drops
    every message in both directions — including those already in
    flight — while switch state keeps forwarding untouched (OpenFlow
    fail-standalone mode).  Attachment lists and counters survive, so
    a recovering controller re-attaches by calling {!reconnect} and
    resynchronising state itself. *)

(** [disconnect t conn] tears the session down: models a controller
    crash or control-channel partition. *)
val disconnect : t -> conn -> unit

(** [reconnect t conn] re-establishes a torn-down session (idempotent;
    bumps the session count). *)
val reconnect : t -> conn -> unit

(** [conn_up conn] is [true] while the session is established. *)
val conn_up : conn -> bool

(** [conn_sessions conn] counts session establishments (1 + successful
    reconnects) — lets tests and the failover report distinguish a
    resumed session from the original. *)
val conn_sessions : conn -> int

(** {1 Injected faults}

    See {!Faults}.  Per-connection faults are fixed at
    {!register_controller} time; data-plane link faults can be set (and
    changed) at any point. *)

(** [set_link_faults t endpoint faults] applies [faults] to packets
    transmitted {e from} [endpoint] (a switch egress
    [{node = Switch sw; port}] or a host NIC [{node = Host h; port = 0}]),
    overriding the default. *)
val set_link_faults : t -> Topology.endpoint -> Faults.t -> unit

(** [clear_link_faults t endpoint] removes the per-endpoint override,
    restoring the default fault config for that endpoint (a
    per-endpoint entry shadows the default entirely, so flap-restore
    must delete it rather than set {!Faults.none}). *)
val clear_link_faults : t -> Topology.endpoint -> unit

(** [set_default_link_faults t faults] applies [faults] to every
    data-plane hop without a per-endpoint override. *)
val set_default_link_faults : t -> Faults.t -> unit
