(** The RVaaS controller (paper §IV).

    Combines the three functions of the paper in one stand-alone,
    attested controller:

    + {b configuration monitoring} — delegated to {!Monitor};
    + {b logical verification} — {!Verifier} reachability over the
      monitored {!Snapshot} and the trusted wiring plan;
    + {b in-band testing & client interaction} — interception of
      magic-header client requests (Packet-In), dispatch of signed
      authentication requests to relevant endpoints (Packet-Out),
      collection of authenticated replies, and a signed answer back to
      the requesting client, including the total number of auth
      requests issued so silent endpoints are detectable (the counting
      defence, §IV-B.1).

    Confidentiality: answers never contain internal paths or topology,
    only endpoint access points, jurisdiction sets, hop counts and
    meter rates — preserving the provider's autonomy (§III). *)

type stats = {
  mutable queries_received : int;
  mutable queries_rejected : int;
  mutable queries_throttled : int;
      (** queries rejected by the front-end's per-client token bucket
          before evaluation; the client got a signed throttle answer
          ({!Query.answer.throttled}) instead *)
  mutable queries_duplicate : int;
      (** duplicated or replayed deliveries of an in-flight request
          nonce (a fault {!Netsim.Faults} injects) — suppressed, the
          original computation answers once *)
  mutable auth_requests_sent : int;
      (** auth-request transmissions, retransmissions included *)
  mutable auth_retransmissions : int;
      (** of which: retransmissions of an unanswered challenge *)
  mutable auth_replies_accepted : int;
  mutable auth_replies_duplicate : int;
      (** valid replies to an already-answered challenge (duplicated
          delivery or the answer to a retransmission) — counted once in
          answers, tallied here *)
  mutable auth_replies_rejected : int;
  mutable answers_sent : int;
  mutable intercepts_reinstalled : int;
      (** intercept flow entries re-sent after the monitored snapshot
          showed them missing with no install of them in flight, or
          with evidence the in-flight install was lost (a poll still
          lacking it, its deletion, or an observation [auth_timeout]
          after it was sent) *)
  mutable queries_reissued : int;
      (** in-flight queries re-driven after a crash or failover *)
}

(** Auth-request retransmission policy for lossy control channels:
    [attempts] total transmissions per probe (>= 1), the k-th
    retransmission [base_delay * 2^k] seconds after the previous one
    (exponential backoff).  The collection window ([auth_timeout])
    starts after the last attempt; the answer finalizes early when
    every probe has authenticated. *)
type retry = { attempts : int; base_delay : float }

(** One attempt, no backoff — the paper's baseline protocol. *)
val no_retry : retry

type t

(** [create net monitor ~directory ~geo ~keypair ~auth_timeout ()]
    wires the service into [monitor]'s connection, installs the
    interception flow entries on every switch, and begins serving.
    [auth_timeout] is how long the service waits for auth replies
    before answering (seconds).

    [retry] (default {!no_retry}) retransmits unanswered auth
    requests; when the reply quorum is still incomplete at finalize
    the answer carries [degraded = true].

    Every reach question is answered cache-first: a {!Reach_cache}
    of 4096 results, then a {!Verifier.reach_in} pass on the
    service's own context, whose rule guards stay warm across queries
    and are invalidated per switch by the snapshot-change hook.  Every
    reach pass runs in the calling domain.

    [frontend] (default {!Frontend.default_config}: admit everything,
    no coalescing, no settle tick — the historical behaviour) puts the
    multi-tenant front-end in front of evaluation: per-client
    token-bucket admission, coalescing of identical in-flight queries
    under one computation (per-requester signed answers fanned out at
    finalize), per-injection-point batching of queries arriving within
    one [batch_window], and — with [frontend.subsume] — semantic
    subsumption: a [Reachable_endpoints] query whose effective scope
    is contained in a queued computation at the same injection point
    rides it as a slice, whichever of the two arrived first.  The
    slice's probes are cut out of the subsumer's arrival spaces when
    the computation opens, and its waiters are answered at the shared
    finalize.  When the subsumer's sweep emitted a rewritten space
    ({!Verifier.reach_result.rewrote}), its slices fall back to
    per-query evaluation instead.  Slices attach only in the front-end
    queue ({!Frontend.submit}), so the service subsumes only with a
    positive [batch_window]; an identical query still joins a
    computation in flight.  Recovery re-issues ({!reissue}) bypass
    it.
    @raise Invalid_argument on a retry policy with [attempts < 1], a
    negative [base_delay], or an invalid front-end config (see
    {!Frontend.create}). *)
val create :
  ?retry:retry ->
  ?frontend:Frontend.config ->
  Netsim.Net.t ->
  Monitor.t ->
  directory:Directory.t ->
  geo:Geo.Registry.t ->
  keypair:Cryptosim.Keys.keypair ->
  auth_timeout:float ->
  unit ->
  t

(** [reach_cache t] exposes the incremental reach-result cache — its
    hit/miss statistics are the subject of experiments E13 and E15, and
    tests clear it to force cold evaluations.  When the monitored
    snapshot of switch [s] changes, only the cached results whose reach
    pass traversed [s] are evicted (see {!Reach_cache}); results that
    never consulted [s]'s table remain valid by construction. *)
val reach_cache : t -> Reach_cache.t

(** [reach t ~src_sw ~src_port ~hs] runs one cache-first reach pass on
    the service's verification context — the building block of every
    query kind; exposed for tests and benchmarks. *)
val reach :
  t -> src_sw:int -> src_port:int -> hs:Hspace.Hs.t -> Verifier.reach_result

(** [public t] is the service's public key (distributed to clients out
    of band). *)
val public : t -> Cryptosim.Keys.public

(** [stats t] exposes serving counters. *)
val stats : t -> stats

(** [measurement t] is the enclave measurement of the service code. *)
val measurement : t -> Cryptosim.Attest.measurement

(** [attest t ~nonce] produces an attestation quote — used both by
    clients (is this the genuine RVaaS?) and by the provider (does the
    server run the agreed, non-leaking application?). *)
val attest : t -> nonce:string -> Cryptosim.Attest.quote

(** The code identity string measured into attestation quotes. *)
val code_identity : string

(** [evaluate t ~client ~sw ~port query] runs the logical part of a
    query directly (no in-band round) — the building block the in-band
    path shares; exposed for tests and benchmarks.  Returns the answer
    with all [endpoints] unauthenticated and the probe list the in-band
    path would test.

    [Isolation] and [Sources_reaching_me] are all-source questions:
    their probe list is the client's own access points, then every
    other access point from which some traffic (any IP traffic for
    [Isolation], the effective scope for [Sources_reaching_me])
    arrives at one of them, in {!Verifier.access_points} order.  That
    costs one reach pass per access point, each answered by {!reach}
    in the calling domain. *)
val evaluate :
  t ->
  client:int ->
  sw:int ->
  port:int ->
  Query.t ->
  Query.answer * Verifier.endpoint list

(** {1 Multi-tenant front-end} *)

(** [frontend_stats t] exposes the admission/coalescing/subsumption/
    batching counters of the front-end configured at {!create} — the
    subject of experiments E19 and E20. *)
val frontend_stats : t -> Frontend.stats

(** [frontend_config t] is the front-end configuration in effect. *)
val frontend_config : t -> Frontend.config

(** [coalesce_rate t] is the fraction of admitted queries absorbed by
    an existing computation (see {!Frontend.coalesce_rate}). *)
val coalesce_rate : t -> float

(** [subsume_rate t] is the fraction of admitted queries answered as
    slices of a broader computation (see {!Frontend.subsume_rate}). *)
val subsume_rate : t -> float

(** [inject_query t ~client ~nonce ~sw ~port ~ip query] feeds a query
    straight into the post-decode serving path (duplicate suppression,
    admission, coalescing, batching, evaluation, probe round), exactly
    as if a valid signed request had arrived in band at
    [(sw, port)] from [ip].  The answer is still signed and sent as a
    Packet-Out.  For tests and benchmarks that need to drive millions
    of logical clients without paying per-request crypto. *)
val inject_query :
  t -> client:int -> nonce:string -> sw:int -> port:int -> ip:int -> Query.t -> unit

(** [pending_probe_count t] counts outstanding auth challenges — 0
    once every open query has finalized (no orphaned probes). *)
val pending_probe_count : t -> int

(** {1 Crash recovery}

    The primitives {!Failover} builds the takeover protocol from.  A
    killed service must never act again (its timers become no-ops); a
    recovering or standby service re-installs interception, re-issues
    journalled queries, and retransmits whatever a healed session left
    unanswered. *)

(** [kill t] marks the service dead: every queued timer and handler of
    this instance becomes a no-op.  Used together with
    {!Netsim.Net.disconnect} to model a controller crash. *)
val kill : t -> unit

(** [live t] is [false] after {!kill}. *)
val live : t -> bool

(** [open_query_count t] counts queries accepted but not yet
    answered. *)
val open_query_count : t -> int

(** [reinstall_intercepts t] re-sends the interception flow entries to
    every switch (idempotent installs) — the first step after a
    session is re-established. *)
val reinstall_intercepts : t -> unit

(** [reissue t q] re-drives a journalled in-flight query on this
    (recovered or standby) instance: fresh evaluation, fresh
    challenges, fresh finalize deadline.  The answer reaches the
    requester under the original nonce. *)
val reissue : t -> Journal.query_open -> unit

(** [retransmit_pending t] re-drives every still-open query of this
    same instance after its session came back: unanswered challenges
    are re-keyed (a challenge that leaked with the dead session is
    never re-used) and re-sent, finalize deadlines re-armed. *)
val retransmit_pending : t -> unit
