(** Crash recovery and warm-standby failover for the RVaaS controller.

    The paper's trust argument hangs on one attested controller; this
    module makes that controller restartable and replaceable without
    widening the attack's blind window unboundedly.  Three layers:

    - a {b heartbeat} keeps the durable {!Journal} fresh (and echoes
      the switches) while the current incarnation lives;
    - a {b session guard} heals partitions of a live controller:
      reconnect, re-install interception, immediate poll sweep,
      retransmit unanswered challenges;
    - {b warm standbys} (one or several) tail the journal and, once it
      goes stale for longer than [takeover_timeout], elect a single
      winner which replays it and takes over under a new generation
      number — re-attaching every switch, re-issuing every in-flight
      query.

    Quorum election: every standby tails its own lag-bounded
    {!Support.Replica} of the journal — election reads (staleness,
    competing claims) go through the standby's replica view, never the
    primary's memory.  A standby that observes staleness journals a
    {!Journal.Claim} entry, waits one claim window ([check_period +
    replica_delay], so lagging replicas see competing claims), then
    decides over the {e merge} of all non-partitioned replica views:
    the lowest claiming standby id wins — a lagging replica can vote
    and win — reconciles its replica to the longest verified chain
    prefix it holds, and takes over.  The journal is the coordination
    medium, so the election leaves an audit trail, and a partitioned
    standby (whose replica receives nothing and is excluded from the
    merge) can never seize a network it cannot observe.  Losers back
    off until the winning claim expires and rejoin as standbys of the
    new incarnation — two generations never run concurrently.

    The blind window (time the network is unwatched) is bounded by
    [takeover_timeout + 2 x check_period] (staleness detection + claim
    window) plus resync latency; experiments E16/E17 measure it. *)

type config = {
  heartbeat_period : float;  (** journal heartbeat + switch echo cadence *)
  takeover_timeout : float;
      (** journal staleness after which a standby declares the primary
          dead *)
  check_period : float;  (** watchdog polling cadence *)
  checkpoint_every : int;  (** snapshot image cadence (journal records) *)
  standbys : int;
      (** warm standbys armed at {!start} (0 = none; arm explicitly
          with {!enable_standbys}) *)
  auto_compact : bool;
      (** bound the journal to [2 x checkpoint_every] entries via
          {!Journal.compact} *)
  replica_lag : int;
      (** record bound on each standby's replica tail: at most this
          many frames queue before eager apply *)
  replica_delay : float;
      (** in-transit delay of replica frames, in simulated seconds;
          frames younger than this stay queued until the next tick *)
}

(** 10ms heartbeats, 50ms takeover, 10ms checks, checkpoint every 64
    records, one standby, no auto-compaction, replica lag 8 records
    with zero delay (replicas catch up fully at every tick). *)
val default_config : config

(** One takeover, as measured by the recovering side. *)
type report = {
  crashed_at : float;  (** when {!crash} was called (or takeover time) *)
  detected_at : float;
      (** when staleness crossed the threshold (the winner's claim
          time; equals takeover time for {!restart}) *)
  taken_over_at : float;  (** when the winner actually rebuilt *)
  mutable resynced_at : float;
      (** when the post-takeover poll sweep had fully drained (0 until
          then) *)
  replayed_entries : int;  (** journal mutations replayed over the image *)
  reissued_queries : int;  (** in-flight queries re-driven *)
  reconciled_records : int;
      (** replica frames the winner applied during pre-takeover
          reconciliation (0 for {!restart} and fully-caught-up
          winners) *)
  generation : int;  (** the new incarnation's generation number *)
  winner : int;  (** standby id that won the election (-1 = {!restart}) *)
}

(** How a controller incarnation is built.  Supplied by the scenario
    layer (it owns directory, geo registry and keys): called with
    the shared journal, the recovered snapshot (or [None] on a fresh
    start), recovered history for the ring, and the existing session
    registration to re-attach over (or [None] to register fresh). *)
type build =
  journal:Journal.t ->
  snapshot:Snapshot.t option ->
  prefill:Monitor.history_entry list ->
  conn:Netsim.Net.conn option ->
  Monitor.t * Service.t

type t

(** [start ?journal ?config ~build net] builds the primary controller,
    arms heartbeat + session guard, and arms [config.standbys] warm
    standbys.  With an existing non-empty [journal] (e.g. decoded from
    a persisted image) the primary is {e restarted}: generation
    bumped, state replayed, switches attached fresh.  A checkpoint is
    imaged immediately so the log never has an imageless prefix.
    @raise Invalid_argument on non-positive periods or negative
    [standbys]. *)
val start : ?journal:Journal.t -> ?config:config -> build:build -> Netsim.Net.t -> t

val monitor : t -> Monitor.t

val service : t -> Service.t

val journal : t -> Journal.t

(** [generation t] is the current incarnation's generation number. *)
val generation : t -> int

(** [crash t] kills the current incarnation: service dead, polling
    stopped, session torn down.  Switch tables keep forwarding
    (fail-standalone); nothing answers queries until a standby takes
    over or {!restart} is called. *)
val crash : t -> unit

(** [partition t] tears the session down {e without} killing the
    controller — the session guard heals it within [check_period]. *)
val partition : t -> unit

(** [restart t] recovers immediately on the same harness (a restarted
    primary): journal replayed, switches re-attached, interception
    re-installed, in-flight queries re-issued.  Returns the takeover
    report. *)
val restart : t -> report

(** [enable_standbys ?phase t ~count] arms standbys [0 .. count-1]
    (idempotent: already-armed ids are kept; a larger [count] adds
    the missing ones).  Each tails the journal every [check_period];
    when the freshest non-claim entry is older than [takeover_timeout]
    and the primary is dead, it journals a claim and enters the
    election.  [?phase sid] delays standby [sid]'s first tick by the
    returned seconds — tests use it to randomize which standby
    observes the staleness first.  Standbys stay armed across
    takeovers, guarding each new incarnation.
    @raise Invalid_argument when [count < 1]. *)
val enable_standbys : ?phase:(int -> float) -> t -> count:int -> unit

(** [enable_standby t] is [enable_standbys t ~count:(max 1
    config.standbys)] — kept as the single-standby entry point (a
    no-op when {!start} already armed them). *)
val enable_standby : t -> unit

(** Number of standbys armed so far. *)
val standby_count : t -> int

(** [partition_standby t ~sid] cuts standby [sid] off from the
    journal: it neither observes staleness nor writes claims until
    {!heal_standby} — and therefore can never win an election while
    partitioned.
    @raise Invalid_argument on an unknown [sid]. *)
val partition_standby : t -> sid:int -> unit

(** [heal_standby t ~sid] reconnects a partitioned standby; its
    replica resyncs wholesale and it rejoins as a standby of whatever
    incarnation now runs (any pre-partition claim is discarded). *)
val heal_standby : t -> sid:int -> unit

(** [standby_replica t ~sid] is standby [sid]'s replica tail — tests
    inspect lag, queue depth and resync counts through it.
    @raise Invalid_argument on an unknown [sid]. *)
val standby_replica : t -> sid:int -> Support.Replica.t

(** [takeovers t] lists takeover reports, oldest first. *)
val takeovers : t -> report list

(** [last_takeover t] is the most recent takeover report, if any. *)
val last_takeover : t -> report option

(** [resyncs t] counts partition healings by the session guard. *)
val resyncs : t -> int
