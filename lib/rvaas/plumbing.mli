(** Compiled plumbing graph: equivalence-class reachability without
    per-query sweeps (paper §IV-A.2's scale-up lineage).

    {!Verifier.reach_in} pays a full rule-graph traversal per query;
    the delta-aware {!Reach_cache} only amortises {e repeated}
    queries.  This engine compiles a configuration view + topology
    once into per-(switch, ingress-port) arrays of guarded rule nodes
    — each rule's match cube, its higher-priority shadow (the exact
    guard representation of the sweep, see {!Verifier.guarded}) and
    its action list resolved through the trusted wiring plan — and
    precomputes, per queried source, the reachable header-space sets
    of a full-space propagation.  Steady-state queries are then
    answered by intersecting the stored arrival sets with the query
    scope: no guard derivation, no traversal.

    Scoped lookups are {e exact} when the compile pass applied no
    field rewrite (propagation is per-concrete-header and the BFS is
    depth-monotone, so restriction commutes with reachability); a
    rewriting source falls back to an exact propagation of the scope
    over the compiled tables.  [rule_visits] is 0 for restricted
    lookups and the compile pass's count for full-scope ones.

    Incremental maintenance: {!update} re-derives only the touched
    switch's node arrays and bumps a per-switch version; precomputed
    sources revalidate lazily against the versions of the switches
    their pass traversed.  An update burst touching more distinct
    switches than the churn threshold triggers a full recompile. *)

(** The verification engine selector threaded through {!Service},
    [Scenario.spec] and the CLI. *)
type engine = [ `Sweep | `Compiled ]

type t

type stats = {
  mutable source_compiles : int;
      (** full-space propagations run (initial compiles and stale
          re-derivations) *)
  mutable lookups : int;  (** queries answered from a precomputed source *)
  mutable scoped_lookups : int;  (** of which: restricted by intersection *)
  mutable fallback_sweeps : int;
      (** scoped queries on rewriting sources, answered by exact
          propagation over the compiled tables *)
  mutable updates : int;  (** incremental per-switch deltas applied *)
  mutable stale_sources : int;
      (** precomputed sources re-derived because a traversed switch's
          version moved *)
  mutable recompiles : int;  (** churn-threshold full recompiles *)
  mutable pool_warms : int;
      (** {!warm} invocations that found >= 1 cold or stale source —
          the cross-source warm the front-end seeds per flush *)
}

(** [compile ?churn_threshold ~flows_of topo] builds the plumbing
    graph for every switch of [topo].  [churn_threshold] (default
    [max 4 (switches/4)]) bounds the update burst the delta path
    absorbs before recompiling. *)
val compile :
  ?churn_threshold:int ->
  flows_of:(int -> Ofproto.Flow_entry.spec list) ->
  Netsim.Topology.t ->
  t

(** [reach t ~src_sw ~src_port ~hs] answers the same question as
    {!Verifier.reach_in} without a boundary on the same configuration
    view — equal endpoints, arrival spaces (up to {!Hspace.Hs.equal}),
    controller hits and traversal, and no handoffs — from the
    precomputed source, compiling or revalidating it on demand. *)
val reach :
  t -> src_sw:int -> src_port:int -> hs:Hspace.Hs.t -> Verifier.reach_result

(** [update t ~sw] applies an incremental delta: [sw]'s node arrays
    are re-derived from [flows_of] and its version bumped, leaving
    every other switch's slice and every non-traversing source
    untouched.  Wire it to {!Monitor.on_snapshot_change}'s [~changed]
    hook. *)
val update : t -> sw:int -> unit

(** [warm t ~points] precompiles (or refreshes) the sources for the
    given [(switch, port)] injection points — typically every access
    point, or the injection points of one front-end flush — so later
    queries are pure lookups.  Counted in [stats.pool_warms] when at
    least one source needed compiling. *)
val warm : t -> points:(int * int) list -> unit

val stats : t -> stats

(** [compiled_sources t] counts currently precomputed sources. *)
val compiled_sources : t -> int

(** The effective churn threshold (resolved default included). *)
val churn_threshold : t -> int

(** Graph-size instrumentation: rule nodes, plumbing edges (a rule's
    rewritten match bound overlapping a next-hop guard, prefilter
    rejected first; host emissions count as one edge each) and
    compiled (switch, port) ingress tables. *)
type graph_stats = { nodes : int; edges : int; ports : int }

val graph : t -> graph_stats
