(** Traffic generation: constant-rate UDP flows between hosts.

    Used to validate data-plane QoS behaviour (token-bucket meters,
    fairness attacks) against what RVaaS's configuration queries
    report: a meter-squeeze attack must show up both in the Fairness
    answer (configuration) and in the delivered goodput (behaviour). *)

type flow = {
  src_host : int;
  dst_host : int;
  rate_pps : float;  (** packets per second *)
  size_bytes : int;
  start : float;  (** absolute simulation time of the first packet *)
  duration : float;
}

(** [make_flow scenario ~src_host ~dst_host ~rate_pps ~size_bytes
    ~start ~duration] builds a flow addressed with the scenario's
    registered IPs.  @raise Invalid_argument on unknown hosts. *)
val make_flow :
  Scenario.t ->
  src_host:int ->
  dst_host:int ->
  rate_pps:float ->
  size_bytes:int ->
  start:float ->
  duration:float ->
  flow

type report = {
  flow : flow;
  sent : int;
  delivered : int;  (** packets that reached [dst_host] *)
}

(** [run scenario flows ~until] schedules every flow's packets,
    replaces the destination hosts' receivers with counters (the
    scenario's client agents stop receiving — use a dedicated scenario
    for traffic experiments), advances the simulation to [until] and
    reports per-flow delivery.  Flows are distinguished by a unique
    source UDP port per flow. *)
val run : Scenario.t -> flow list -> until:float -> report list

(** [goodput_kbps r] is the delivered rate over the flow duration. *)
val goodput_kbps : report -> float
