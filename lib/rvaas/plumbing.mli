(** Plumbing memo: full-space reachability per source over
    {!Verifier.trace_in} (paper §IV-A.2's scale-up lineage).

    {!Verifier.reach_in} pays a traversal per query; the delta-aware
    {!Reach_cache} only amortises {e repeated} queries.  This memo
    traverses the full header space once per queried source and keeps
    the arrival sets, so steady-state queries are answered by
    intersecting them with the query scope: no traversal.  Guards and
    the traversal belong to the {!Verifier.ctx} the memo builds at
    {!compile}.

    It is not on the serving path: {!Service} answers every question
    cache-first with {!Verifier.reach_in}.  The memo is measured
    against that sweep (experiment E18) and replayed per layer by the
    benchmark.

    Scoped lookups are {e exact} when the source's pass applied no
    field rewrite (propagation is per-concrete-header and the BFS is
    depth-monotone, so restriction commutes with reachability); a
    rewriting source falls back to traversing the scope itself.
    [rule_visits] is 0 for restricted lookups and the pass's count for
    full-scope ones.

    Incremental maintenance: {!update} bumps the touched switch's
    version and drops its guards from the context; memoised sources
    revalidate lazily against the versions of the switches their pass
    traversed. *)

type t

type stats = {
  mutable source_compiles : int;
      (** full-space traversals run (first uses and stale
          re-derivations) *)
  mutable scoped_lookups : int;
      (** scoped queries answered by intersecting a memoised source *)
  mutable fallback_sweeps : int;
      (** scoped queries on rewriting sources, answered by traversing
          the scope itself *)
  mutable updates : int;  (** incremental per-switch deltas applied *)
  mutable stale_sources : int;
      (** memoised sources re-derived because a traversed switch's
          version moved *)
  mutable recompiles : int;
      (** always 0: maintenance is per switch and never recompiles;
          kept for the benchmark's per-layer report *)
}

(** [compile ~flows_of topo] is an empty memo over a fresh context:
    nothing is derived up front, and sources are traversed on first
    use. *)
val compile :
  flows_of:(int -> Ofproto.Flow_entry.spec list) -> Netsim.Topology.t -> t

(** [reach t ~src_sw ~src_port ~hs] answers the same question as
    {!Verifier.reach_in} without a boundary on the same configuration
    view — equal endpoints, arrival spaces (up to {!Hspace.Hs.equal}),
    controller hits and traversal, and no handoffs — from the memoised
    source, traversing or revalidating it on demand. *)
val reach :
  t -> src_sw:int -> src_port:int -> hs:Hspace.Hs.t -> Verifier.reach_result

(** [update t ~sw] applies an incremental delta: [sw]'s version is
    bumped and its guards dropped from the context (see
    {!Verifier.invalidate_switch}), leaving every other switch and
    every non-traversing source untouched.  Wire it to
    {!Monitor.on_snapshot_change}'s [~changed] hook. *)
val update : t -> sw:int -> unit

(** [warm t ~points] traverses (or refreshes) the sources for the
    given [(switch, port)] injection points — typically every access
    point, or the injection points of one front-end flush — so later
    queries are pure lookups. *)
val warm : t -> points:(int * int) list -> unit

val stats : t -> stats

(** Graph-size instrumentation over the context's guards (deriving any
    not yet visited): rule nodes, plumbing edges (a rule's rewritten
    match bound overlapping a next-hop guard, prefilter rejected
    first; host emissions count as one edge each) and (switch, port)
    ingress tables. *)
type graph_stats = { nodes : int; edges : int; ports : int }

val graph : t -> graph_stats
