(** Incremental, delta-invalidated reachability result cache.

    Client queries between reconfigurations are highly repetitive: an
    isolation query alone costs one full reach pass per access point,
    and clients re-ask the same questions (paper §IV-A.2's interactive
    workload).  This cache keys a {!Verifier.reach_result} by the
    injection point (source switch, source port) and the queried
    header space; a structural hash of the space prefilters, and
    {!Hspace.Hs.equal} decides.

    Freshness is tracked per entry rather than baked into the key: an
    entry depends on the switches its reach pass {e traversed}.  A
    reach result depends only on the tables of traversed switches — a
    rule on a switch the pass never visited cannot alter it — so when
    a Flow-Mod lands on switch [s], {!invalidate_switch} evicts exactly
    the entries that traversed [s].  Under rolling single-switch
    updates this retains the large majority of the cache.

    Capacity is enforced by second-chance (clock) eviction: entries hit
    since their last consideration get another round instead of the
    whole cache being dropped. *)

type t

(** Lookup key: injection point plus the header space, with its hash
    computed once. *)
type key

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;  (** full clears ({!invalidate}) *)
  mutable invalidated : int;
      (** {!invalidate_switch} deltas that evicted at least one entry —
          distinguishes how often a delta actually hit the cache from
          how many entries it cost ([delta_evictions]) *)
  mutable delta_evictions : int;
      (** entries evicted by {!invalidate_switch} deltas *)
  mutable capacity_evictions : int;
      (** entries evicted by the second-chance sweep at capacity *)
  mutable clock_purged : int;
      (** stale ring slots (dead keys and duplicates) dropped by the
          bounded-clock purge — nonzero means the delta workload was
          leaking ring entries that capacity eviction alone would
          never have reclaimed *)
}

(** [create ?capacity ()] makes an empty cache holding at most
    [capacity] (default 4096) results; beyond that, second-chance
    eviction replaces the least recently hit entries one at a time. *)
val create : ?capacity:int -> unit -> t

(** [key ~src_sw ~src_port ~hs] builds the lookup key for a reach pass
    injected at [(src_sw, src_port)] with header space [hs]. *)
val key : src_sw:int -> src_port:int -> hs:Hspace.Hs.t -> key

(** [find t key] returns the cached result and counts a hit/miss.  A
    hit marks the entry recently-used for the second-chance sweep. *)
val find : t -> key -> Verifier.reach_result option

(** [add t key result] stores a computed result; [result.traversed]
    is the entry's freshness dependencies. *)
val add : t -> key -> Verifier.reach_result -> unit

(** [invalidate_switch t ~sw] evicts every entry that traversed [sw];
    entries that never consulted [sw] remain valid and are kept.

    Delta evictions leave their keys in the second-chance ring (the
    sweep skips dead keys); to keep that bounded under delta-heavy
    workloads that never hit capacity, the ring is purged of dead keys
    and duplicates whenever it exceeds ~2x the live table size
    (counted in [stats.clock_purged], observable via
    {!clock_length}). *)
val invalidate_switch : t -> sw:int -> unit

(** [invalidate t] drops every entry (e.g. a topology-level change or
    a test forcing the non-incremental behaviour). *)
val invalidate : t -> unit

val stats : t -> stats

(** [hit_rate t] is hits / (hits + misses), 0 when never consulted. *)
val hit_rate : t -> float

(** [length t] is the number of cached results. *)
val length : t -> int

(** [clock_length t] is the current second-chance ring size, live
    entries plus not-yet-purged stale slots.  Bounded by
    [2 * length t + 16] at the delta-invalidation points. *)
val clock_length : t -> int
