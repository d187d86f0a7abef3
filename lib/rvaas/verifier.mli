(** Logical data-plane verification: Header Space Analysis reachability
    over a configuration view and the trusted wiring plan (paper
    §IV-A.2).

    The engine propagates header-space sets through switch transfer
    functions derived from (believed) flow tables.  Rule guards are the
    rule's match cube minus every strictly-higher-priority cube
    applicable on the same ingress port, so overlapping priorities are
    resolved exactly as the data plane resolves them.  Loop termination
    uses per-(switch, port) header-space accumulation: a packet set is
    only propagated where it has not been seen before, which is both
    sound and complete for reachability and traversal questions
    (forwarding is a function of (port, header)).

    The engine is deliberately independent of {!Snapshot}: any
    [flows_of] function works, so tests can verify the *actual* tables
    and compare against simulation — the repository's central
    correctness property. *)

type endpoint = { host : int; sw : int; port : int }

type reach_result = {
  endpoints : (endpoint * Hspace.Hs.t) list;
      (** hosts reachable, with the headers arriving there (as rewritten
          in flight), merged per host *)
  controller_hits : (int * Hspace.Hs.t) list;
      (** switches that send part of the space to the controller *)
  traversed : int list;
      (** every switch some packet of the query space can visit *)
  sample_paths : (endpoint * int list) list;
      (** one witness switch-path per reached endpoint *)
  handoffs : (int * int * Hspace.Hs.t) list;
      (** (switch, ingress port, headers) arriving at switches outside
          the query boundary — the cross-provider egress points used by
          {!Federation} (empty without a [boundary]) *)
  rule_visits : int;  (** work counter for benchmarks *)
}

(** {1 Rule guards}

    A rule's match cube plus the strictly-higher-priority cubes
    overlapping it (its "shadow"), subtracted lazily at propagation
    time.  Exposed so {!Plumbing.graph} can count plumbing edges over
    the very guards the traversal uses. *)
type guarded = {
  g_spec : Ofproto.Flow_entry.spec;
  g_cube : Hspace.Tern.t;  (** the rule's match cube *)
  g_shadow : Hspace.Tern.t list;
      (** overlapping cubes of strictly-higher-priority rules on the
          same ingress port *)
  g_pre : Hspace.Tern.prefilter;
      (** required-bits view of [g_cube] for word-level rejection *)
}

(** A verification context caches rule guards per switch and ingress
    port, derived on first visit and shared by every query against the
    same configuration view.  {!invalidate_switch} keeps a long-lived
    context current; the compiled engine ({!Plumbing}) memoises over
    one. *)
type ctx

(** [context ~flows_of topo] builds a context (guards are derived
    lazily on first use).  [flows_of] must yield rules in
    priority-descending order (the {!Ofproto.Flow_table} invariant). *)
val context :
  flows_of:(int -> Ofproto.Flow_entry.spec list) -> Netsim.Topology.t -> ctx

(** [topology ctx] is the wiring plan [ctx] was built over. *)
val topology : ctx -> Netsim.Topology.t

(** [invalidate_switch ctx ~sw] drops cached guards for [sw] — call
    when that switch's configuration view changed.  Other switches'
    caches stay valid, making long-lived contexts cheap to keep current
    under churn. *)
val invalidate_switch : ctx -> sw:int -> unit

(** [guards ctx ~sw ~port] is the guarded rules applicable on ingress
    [port] of [sw], priority-descending, with fully-shadowed rules
    dropped — from the cache, derived on a miss. *)
val guards : ctx -> sw:int -> port:int -> guarded list

(** What one traversal saw beyond its {!reach_result}: the raw material
    of {!Plumbing}'s full-space memo. *)
type trace = {
  result : reach_result;
  seen : (int * int, Hspace.Hs.t) Hashtbl.t;
      (** the space that arrived on each (switch, ingress port) *)
  arrivals : (endpoint * Hspace.Hs.t * int list) list;
      (** every host emission, newest first, with its witness
          switch-path leaf-first (reverse it for source-first) *)
  rewrote : bool;
      (** a Set_field shaped some space that left a rule on a wired
          port or to the controller *)
}

(** [trace_in ?boundary ctx ~src_sw ~src_port ~hs] is the breadth-first
    traversal: forward reachability of the header space [hs] injected
    at the given ingress port.  When [boundary] is given, switches for
    which it returns [false] are not expanded: arrivals there are
    reported as [handoffs] instead (a provider's verifier only reasons
    about its own domain, paper §IV-C.a). *)
val trace_in :
  ?boundary:(int -> bool) ->
  ctx ->
  src_sw:int ->
  src_port:int ->
  hs:Hspace.Hs.t ->
  trace

(** [reach_in ?boundary ctx ~src_sw ~src_port ~hs] is
    [(trace_in ?boundary ctx ~src_sw ~src_port ~hs).result]. *)
val reach_in :
  ?boundary:(int -> bool) ->
  ctx ->
  src_sw:int ->
  src_port:int ->
  hs:Hspace.Hs.t ->
  reach_result

(** [reach ~flows_of topo ~src_sw ~src_port ~hs] is [reach_in] over a
    one-shot context. *)
val reach :
  flows_of:(int -> Ofproto.Flow_entry.spec list) ->
  Netsim.Topology.t ->
  src_sw:int ->
  src_port:int ->
  hs:Hspace.Hs.t ->
  reach_result

(** [access_points topo] lists every client-facing attachment
    (host, sw, port) in the wiring plan. *)
val access_points : Netsim.Topology.t -> endpoint list

(** [sources_reaching ~flows_of topo ~dst ~hs] runs {!reach_in} from
    every access point except [dst] itself, on one shared context, and
    returns those whose traffic (within [hs]) can arrive at [dst], in
    {!access_points} order, each with its arrival space. *)
val sources_reaching :
  flows_of:(int -> Ofproto.Flow_entry.spec list) ->
  Netsim.Topology.t ->
  dst:endpoint ->
  hs:Hspace.Hs.t ->
  (endpoint * Hspace.Hs.t) list

(** [ip_traffic_hs ()] is the header space of all IPv4 traffic — the
    default query scope. *)
val ip_traffic_hs : unit -> Hspace.Hs.t

(** [dst_ip_hs ip] is IPv4 traffic addressed to [ip]. *)
val dst_ip_hs : int -> Hspace.Hs.t

(** [dst_prefix_hs ~value ~prefix_len] is IPv4 traffic addressed into a
    prefix. *)
val dst_prefix_hs : value:int -> prefix_len:int -> Hspace.Hs.t
