(** Multi-tenant query front-end: admission, coalescing, subsumption,
    batching.

    At the scale the roadmap targets — millions of clients sharing one
    verification service — the query stream stops looking like the
    paper's interactive workload and starts looking like a flash
    crowd: most concurrent queries are duplicates or refinements of
    each other, and a single noisy tenant can monopolise the
    verifier.  This module is the pure serving-policy layer {!Service}
    puts in front of query evaluation:

    + {b admission} — a per-client token bucket ({!limits}: refill
      [rate] tokens/second up to [burst]).  An over-budget client gets
      a signed throttle answer (see {!Query.answer.throttled}) instead
      of an evaluation, so one tenant's storm cannot starve the rest
      (the paper's §IV-B.1 per-client accounting turned into a
      defence).
    + {b coalescing} — identical in-flight queries are folded under
      one computation, keyed like {!Reach_cache.key} (injection point
      plus a structural hash of the scope, plus the query kind and —
      for client-dependent kinds — the client).  N clients asking the
      same question cost one sweep; each still receives its own signed
      answer under its own nonce at finalize.
    + {b subsumption} — a [Reachable_endpoints] query whose scope is
      contained in ({!Hspace.Hs.subset}) a queued computation at the
      same injection point attaches to it as a {!slice} instead of
      opening its own: the subsumer's arrival spaces intersected with
      the slice scope are exactly the narrower answer (absent
      rewrites — the service falls back per query on taint).  This
      turns the waiters-on-key list into a waiters-on-computation
      graph: one broad computation can answer many distinct narrower
      questions.  Slices attach in one place, {!submit}, whichever
      question arrives first: a narrower question joins a queued
      entry that contains it, and a broader one absorbs the queued
      entries it contains.  Both questions must be queued, so in
      {!Service} a settle tick ([batch_window > 0]) is what gives
      them the chance.
    + {b batching} — queries that arrive within one settle tick
      ([batch_window]) and share an injection point are pooled: their
      scopes are unioned via {!Hspace.Hs.Builder}, one sweep runs over
      the union, and the result is split per query by intersecting
      arrival spaces with each query's scope.

    The module is deliberately free of protocol state: it queues
    generic waiter tokens (['w] is {!Service}'s requester record) and
    never touches the network, which keeps every policy decision unit
    testable without a simulator. *)

(** Token-bucket admission parameters: a client's bucket refills at
    [rate] tokens per second up to [burst]; each accepted query costs
    one token.  A fresh client starts with a full bucket. *)
type limits = { rate : float; burst : float }

type config = {
  limits : limits option;  (** admission control; [None] admits all *)
  coalesce : bool;
      (** fold identical in-flight queries under one computation *)
  batch_window : float;
      (** settle tick in seconds: queries arriving within the window
          are flushed together and batched per injection point.  [0.]
          flushes synchronously (no added latency, no batching). *)
  subsume : bool;
      (** attach scope-contained [Reachable_endpoints] queries to a
          broader queued computation as slice waiters instead of
          evaluating them, in either arrival order; a {!Service} with
          [batch_window = 0.] flushes every query alone, so there
          nothing is subsumed *)
}

(** Everything off: admit all, evaluate per query, no settle tick —
    the seed behaviour, bit-compatible with the pre-frontend
    service. *)
val default_config : config

(** [coalescing ()] is the recommended serving configuration:
    coalescing on, optional admission [limits], a [batch_window]
    (default [0.]), and optionally [subsume] (default [false] — off,
    it reproduces the identical-only coalescing of PR 7 bit for
    bit). *)
val coalescing :
  ?limits:limits -> ?batch_window:float -> ?subsume:bool -> unit -> config

(** Coalescing key: query kind (plus [Path_length]'s destination),
    injection point, scope, and — for the kinds whose evaluation
    depends on the requesting tenant ([Sources_reaching_me],
    [Isolation], [Fairness]) — the client.  Kinds that ignore their
    scope ([Isolation], [Fairness]) leave it out, so differently
    scoped but identical questions still coalesce.  Scopes are hashed
    once; equal hashes are confirmed with {!Hspace.Hs.equal}. *)
type key

val key_of : client:int -> sw:int -> port:int -> Query.t -> key

(** Tables keyed by {!key}; polymorphic hashing and equality do not
    apply to it. *)
module Key_table : Hashtbl.S with type key = key

(** A narrower query attached to a broader computation: at the
    subsumer's finalize, its arrival spaces are intersected with
    [sl_scope] and every slice waiter receives its own signed answer
    under its own nonce.  [sl_waiters] is newest-first. *)
type 'w slice = {
  sl_key : key;
  sl_scope : Hspace.Hs.t;  (** effective scope of the sliced query *)
  sl_query : Query.t;
  mutable sl_waiters : 'w list;
}

(** One queued computation: the leading query plus every waiter
    attached to it.  [e_waiters] is newest-first; the evaluation runs
    with the leader's coordinates; [e_slices] are the narrower
    questions riding this computation. *)
type 'w entry = {
  e_key : key;
  e_client : int;
  e_sw : int;
  e_port : int;
  e_query : Query.t;
  e_scope : Hspace.Hs.t option;
      (** the effective scope the service evaluates (batchable kinds
          only) — what the subsumption containment checks run on *)
  mutable e_waiters : 'w list;
  mutable e_slices : 'w slice list;
}

type stats = {
  mutable admitted : int;  (** queries past admission control *)
  mutable throttled : int;  (** queries rejected by the token bucket *)
  mutable coalesced : int;
      (** admitted queries folded into an identical computation
          (pre-flush attach or in-flight join) instead of costing one *)
  mutable subsumed : int;
      (** admitted queries answered as slice waiters of a broader
          queued computation, each counted once: when it attaches at
          {!submit}, or when a broader submission absorbs the entry it
          waited on *)
  mutable entries : int;  (** computations handed to the service *)
  mutable batches : int;  (** flush groups that pooled >= 2 entries *)
  mutable batched : int;  (** entries inside such groups *)
  mutable batch_fallbacks : int;
      (** pooled groups re-run per entry because a rewrite on the
          swept region made the union split unsound *)
  mutable slice_fallbacks : int;
      (** slices re-run as their own computations because the
          subsumer's region was rewrite-tainted *)
  mutable flushes : int;
}

type 'w t

(** @raise Invalid_argument on [rate <= 0], [burst < 1], or a
    [batch_window] that is negative or not finite. *)
val create : config -> 'w t

val config : 'w t -> config

val stats : 'w t -> stats

(** [coalesce_rate t] is the fraction of admitted queries that were
    absorbed by an identical computation — [0.] when nothing was
    admitted. *)
val coalesce_rate : 'w t -> float

(** [subsume_rate t] is the fraction of admitted queries answered as
    slices of a broader computation — [0.] when nothing was
    admitted. *)
val subsume_rate : 'w t -> float

(** [admit t ~client ~now] charges one token from [client]'s bucket
    ([now] in seconds drives the refill).  [false] means throttle:
    the caller owes the client a signed throttle answer. *)
val admit : 'w t -> client:int -> now:float -> bool

(** [note_coalesced t] records an in-flight join: the service attached
    a waiter to an already-evaluating computation (coalescing after
    the entry left the queue — this module only sees the queue). *)
val note_coalesced : 'w t -> unit

(** [note_fallback t n] records a pooled group of [n] entries that the
    service re-ran per entry (rewrite taint). *)
val note_fallback : 'w t -> int -> unit

(** [note_slice_fallback t n] records [n] slices the service re-ran as
    their own computations because the subsumer was rewrite-tainted. *)
val note_slice_fallback : 'w t -> int -> unit

(** [submit t ~key ?scope ~client ~sw ~port query ~waiter] enqueues a
    query.  [scope] is the effective scope the service will evaluate
    (batchable kinds only) — it feeds the subsumption containment
    checks.  [`Coalesced] means the query was attached to an
    already-queued identical entry (only with [config.coalesce]);
    [`Subsumed] means it was attached as a slice waiter to a queued
    broader computation at the same injection point (only with
    [config.subsume]); otherwise it opens a new entry, which with
    [config.subsume] absorbs every queued entry at its point whose
    scope it contains: each one's waiters become one slice of the new
    entry, followed by the slices it carried.  [`Queued `First] means
    the new entry went into a previously empty queue — the caller must
    now arrange a flush (immediately, or one [batch_window] later);
    [`Queued `Later] means the queue was already non-empty and a flush
    is already owed. *)
val submit :
  'w t ->
  key:key ->
  ?scope:Hspace.Hs.t ->
  client:int ->
  sw:int ->
  port:int ->
  Query.t ->
  waiter:'w ->
  [ `Coalesced | `Subsumed | `Queued of [ `First | `Later ] ]

(** [queued t] is the number of computations awaiting a flush. *)
val queued : 'w t -> int

(** [flush t] drains the queue into evaluation groups, in arrival
    order.  Entries of batchable kinds ([Reachable_endpoints]) that
    share an injection point are grouped together (one pooled sweep);
    everything else comes back as singleton groups.  Entries an
    absorption emptied are left out, so with [config.subsume] no
    member's scope contains another's, and the [entries]/[batched]
    stats count the computations actually handed out. *)
val flush : 'w t -> 'w entry list list
