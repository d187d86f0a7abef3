(** One-stop scenario builder: topology → running RVaaS deployment.

    Wires together everything a test, example or benchmark needs: the
    network runtime, client addressing, the provider control plane (and
    its compromised connection), the RVaaS monitor + service, the geo
    registry with ground-truth switch locations, and one client agent
    per host.  All randomness derives from [seed]. *)

(** Durable storage for the HA journal: a {!Support.Segment_store} in
    [p_dir] with [p_segment_bytes] segments; with [p_encrypt] every
    frame is encrypted at rest under a key derived from the service
    keypair — deterministic in the scenario seed, so a separate
    recovery process re-derives it ({!storage_key}). *)
type persist = {
  p_dir : string;
  p_segment_bytes : int;
  p_encrypt : bool;
}

type spec = {
  topo : Netsim.Topology.t;
  clients : int;  (** hosts are assigned to clients round-robin *)
  seed : int;
  polling : Rvaas.Monitor.polling;
  rvaas_loss : float;  (** switch→RVaaS message loss probability
                           (legacy, monitor events only) *)
  rvaas_faults : Netsim.Faults.t;
      (** fault model for {e every} RVaaS control message *)
  auth_retry : Rvaas.Service.retry;  (** auth-request retransmission policy *)
  poll_retry : float option;  (** stats-poll retry deadline (seconds) *)
  agent_resend : float option;  (** client answer-wait resend timeout *)
  isolation : bool;
  whitelist : (int * int) list;
  jurisdictions : string list;  (** ground-truth jurisdiction pool *)
  ha : Rvaas.Failover.config option;
      (** when set, the controller is built through {!Rvaas.Failover}:
          journalled, heartbeated, crash/partition-able, with
          [config.standbys] warm standbys armed from the start (quorum
          election among them on takeover) and, with
          [config.auto_compact], a self-bounding journal — all
          reachable via {!controller} *)
  persist : persist option;
      (** when set (requires [ha]), the journal is mirrored into a
          segmented on-disk store reachable via {!val-store} *)
  frontend : Rvaas.Frontend.config;
      (** the service's multi-tenant front-end (admission, coalescing,
          subsumption, batching); {!Rvaas.Frontend.default_config} —
          everything off — by default *)
  range_hosts : int;
      (** 0 (default): every topology host is one individually
          addressed endpoint.  [> 0]: range mode — every topology host
          becomes the gateway of a {!Sdnctl.Addressing.add_range}
          block of that many addresses, carried end-to-end as a single
          prefix ([Hs] cube) through routing, snapshot and verifier;
          see {!range_scope} *)
}

(** [default_spec topo] — two clients, seed 42, randomized polling with
    a 50 ms mean, no loss or faults, no retries, isolation on.  Every
    deployment has 1 ms control channels, a fault-free data plane and a
    20 ms auth timeout. *)
val default_spec : Netsim.Topology.t -> spec

type t = {
  spec : spec;
  net : Netsim.Net.t;
  addressing : Sdnctl.Addressing.t;
  provider : Sdnctl.Provider.t;
  monitor : Rvaas.Monitor.t;
      (** the {e initial} incarnation — under HA prefer {!val-monitor},
          which tracks takeovers *)
  service : Rvaas.Service.t;  (** initial incarnation; see {!val-service} *)
  controller : Rvaas.Failover.t option;  (** present iff [spec.ha] was set *)
  store : Support.Segment_store.t option;
      (** present iff [spec.persist] was set *)
  directory : Rvaas.Directory.t;
  geo_truth : Geo.Registry.t;
  agents : (int * Rvaas.Client_agent.t) list;  (** host id → agent *)
  service_keypair : Cryptosim.Keys.keypair;
}

(** [build spec] constructs the deployment and installs the provider
    configuration and RVaaS intercepts (runs the simulator briefly so
    all Flow-Mods land). *)
val build : spec -> t

(** [run t ~until] advances simulation to absolute time [until]. *)
val run : t -> until:float -> unit

(** [monitor t] is the {e live} monitor: the current controller
    incarnation's under HA (takeovers swap it), the built one
    otherwise. *)
val monitor : t -> Rvaas.Monitor.t

(** [service t] is the live service (see {!val-monitor}). *)
val service : t -> Rvaas.Service.t

(** [controller t] is the failover harness.
    @raise Invalid_argument when [spec.ha] was [None]. *)
val controller : t -> Rvaas.Failover.t

(** [store t] is the segmented on-disk journal store.
    @raise Invalid_argument when [spec.persist] was [None]. *)
val store : t -> Support.Segment_store.t

(** [storage_key t] is the encryption-at-rest key — derived from the
    service keypair, hence deterministic in [spec.seed]: a recovery
    process that rebuilds the scenario (or just the keypair) gets the
    same key.  Pair with {!Cryptosim.Atrest.crypt} for
    {!Support.Segment_store.recover_from_dir}. *)
val storage_key : t -> Cryptosim.Hmac.key

(** [agent t ~host] returns the host's agent.
    @raise Invalid_argument naming the host for unknown hosts. *)
val agent : t -> host:int -> Rvaas.Client_agent.t

(** [baseline t] captures the current believed configuration as the
    drift baseline (call after [build], before any attack). *)
val baseline : t -> Rvaas.Detector.baseline

(** [policy_for t ~host] derives the default detector policy of
    [host]'s client: its own access points, whitelisted peers' points
    allowed, and every own access point except [host]'s expected in an
    unscoped endpoint answer to a query from [host] (a blackholed peer
    raises [Unreachable_expected]). *)
val policy_for : t -> host:int -> Rvaas.Detector.policy

(** [query_and_wait t ~host query ~timeout] sends a query from [host],
    advances the simulation until the answer arrives (or [timeout]
    simulated seconds elapsed), and returns the outcome. *)
val query_and_wait :
  t -> host:int -> Rvaas.Query.t -> timeout:float -> Rvaas.Client_agent.outcome option

(** [actual_flows t sw] reads the switch's real table (ground truth for
    agreement tests). *)
val actual_flows : t -> int -> Ofproto.Flow_entry.spec list

(** [range_scope t ~host] is the header-space cube covering the whole
    address range gatewayed by [host] (destination-IP prefix), or
    [None] when the host is not a range gateway.  Use as a query
    scope to verify millions of addresses in one cube. *)
val range_scope : t -> host:int -> Hspace.Hs.t option

(** [address_count t] is the total number of client addresses the
    deployment speaks for (ranges counted by their size). *)
val address_count : t -> int
