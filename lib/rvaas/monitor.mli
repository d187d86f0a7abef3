(** Configuration monitoring (paper §IV-A.1).

    Owns the RVaaS controller connection — a secured, authenticated
    OpenFlow session to every switch — and maintains the {!Snapshot}
    two ways:

    - {b passively}: flow-monitor events and Flow-Removed messages are
      folded in as they arrive (modulo control-channel delay/loss);
    - {b actively}: flow-stats polls on a {!polling} schedule.  The
      paper argues polls must fire at times "hard to guess for the
      adversary"; [Randomized] draws exponential gaps (memoryless),
      [Periodic] is the evadable baseline used in experiment E3.

    Every observation is appended to a bounded history ring so that
    short-lived reconfiguration attacks remain detectable after the
    attacker restores the original rules. *)

type polling =
  | No_polling
  | Periodic of float  (** fixed poll period in seconds *)
  | Randomized of float  (** mean poll gap, exponentially distributed *)

type observation =
  | Event of Ofproto.Message.monitor_event  (** passive, per switch *)
  | Poll of { flows : int; digest : int64 }
      (** active: polled rule count and the polled switch's
          {!Snapshot.switch_digest} after the reply *)
  | Removed of Ofproto.Flow_entry.spec

type history_entry = { at : float; sw : int; what : observation }

type t

(** [create net ~conn_delay ?loss_prob ?faults ?poll_retry
    ?history_capacity ~polling ()] registers the "rvaas" controller
    connection, attaches to every switch with monitor subscription, and
    starts the polling schedule.  [loss_prob] models a degraded
    switch→controller channel for flow-monitor events only; [faults]
    (see {!Netsim.Faults}) degrades {e every} message on the connection
    in both directions.  [poll_retry] (default off) re-sends a stats
    request whose reply has not arrived within the given deadline
    (seconds), under a fresh xid, up to 3 total attempts — required for
    snapshot convergence on a faulty channel.

    Recovery hooks: [snapshot] starts from a restored snapshot instead
    of an empty one; [journal] records every snapshot mutation (and
    periodic checkpoints) into the durable log; [prefill] seeds the
    history ring (observations recovered from a journal); [conn]
    re-uses an already-registered controller session instead of
    registering a fresh one — how a restarted controller re-attaches
    to the switches it had before the crash.
    @raise Invalid_argument when [poll_retry <= 0]. *)
val create :
  Netsim.Net.t ->
  conn_delay:float ->
  ?loss_prob:float ->
  ?faults:Netsim.Faults.t ->
  ?poll_retry:float ->
  ?history_capacity:int ->
  ?snapshot:Snapshot.t ->
  ?journal:Journal.t ->
  ?prefill:history_entry list ->
  ?conn:Netsim.Net.conn ->
  polling:polling ->
  unit ->
  t

val snapshot : t -> Snapshot.t

val conn : t -> Netsim.Net.conn

(** [set_packet_in_handler t f] routes Packet-In messages to the
    service layer. *)
val set_packet_in_handler :
  t -> (sw:int -> in_port:int -> header:Hspace.Header.t -> payload:string -> unit) -> unit

(** [on_snapshot_change t f] registers [f] to run whenever an
    observation touches switch [sw].  [changed] is true when the
    believed flow table actually differs from before the observation
    (per-switch digest comparison) and false for confirming
    observations such as a poll matching the current view.  Hooks fire
    either way — the service's intercept repair is poll-driven and
    must run on unchanged polls too — while verifier and reach-cache
    invalidation key off [changed]. *)
val on_snapshot_change : t -> (sw:int -> changed:bool -> unit) -> unit

(** [on_observation t f] is {!on_snapshot_change} that also passes the
    observation itself, as recorded in {!history}: what evidence about
    [sw] arrived (a monitor event, a poll, a Flow-Removed). *)
val on_observation : t -> (sw:int -> observation -> changed:bool -> unit) -> unit

(** [history t] returns observations, oldest first. *)
val history : t -> history_entry list

(** [polls_sent t] counts flow-stats requests issued so far. *)
val polls_sent : t -> int

(** [events_seen t] counts monitor events received. *)
val events_seen : t -> int

(** [outstanding_polls t] counts stats requests (flow and meter, each
    under its own xid) still awaiting a reply. *)
val outstanding_polls : t -> int

(** [poll_retries t] counts stats requests re-sent after their
    reply deadline expired. *)
val poll_retries : t -> int

(** [stop_polling t] cancels future polls (the schedule checks this
    flag; already-queued simulator events become no-ops). *)
val stop_polling : t -> unit

(** [poll_now t] fires one immediate stats sweep of every switch —
    the resynchronisation step after a session is re-established. *)
val poll_now : t -> unit

(** [journal t] is the durable journal, when one was supplied. *)
val journal : t -> Journal.t option

(** {1 Active wiring verification (paper §IV-A.1)}

    RVaaS may "issue and later intercept LLDP like packets through all
    internal ports" to confirm the physical wiring matches the trusted
    plan. *)

type probe_report = {
  probes_sent : int;
  confirmed : int;  (** probes observed at the expected far endpoint *)
  misdelivered : (int * int * int * int) list;
      (** (origin sw, origin port, observed sw, observed port) for
          probes that surfaced somewhere unexpected *)
  missing : (int * int) list;
      (** (origin sw, origin port) of probes never observed — a dead or
          rewired link, or a lost Packet-In *)
}

(** [verify_wiring t ~timeout ~on_complete] installs the LLDP
    interception entry (cookie {!Wire.lldp_cookie}) on every switch,
    emits one probe out of every switch-to-switch port, and calls
    [on_complete] with the report after [timeout] simulated seconds.
    The interception entries are deleted again when the run completes.
    @raise Invalid_argument when a verification run is already in
    progress. *)
val verify_wiring : t -> timeout:float -> on_complete:(probe_report -> unit) -> unit
