(** Churn campaigns: declarative long-running event programs.

    A campaign is a seeded, replayable schedule of operational churn —
    rolling switch upgrades, link flap storms, transient attack bursts
    and flash-crowd query storms — planned up front ({!plan}) as a pure
    function of (world, profile, seed) and executed on the scenario's
    {!Netsim.Sim} event loop.  The soak bench (E22) drives hours of
    simulated time through these programs; the differential churn test
    replays one against the independent reachability oracles. *)

type event =
  | Upgrade of { sw : int; outage : float }
      (** rolling upgrade: the switch loses the provider's rules and
          gets its slice re-pushed after [outage] seconds *)
  | Flap of { sw : int; port : int; down : float }
      (** link flap: 100 % loss on the link both ways and withdrawal of
          the routes using the port, restored after [down] seconds *)
  | Attack_burst of { attack : Sdnctl.Attack.t; dwell : float }
      (** transient compromise: the attack is installed through the
          provider's connection and retracted after [dwell] seconds *)
  | Storm of { host : int; queries : int; spread : float }
      (** flash crowd: the host's agent fires [queries] queries evenly
          over [spread] seconds *)

type campaign = {
  c_seed : int;
  c_start : float;
  c_duration : float;
  c_events : (float * event) list;
      (** (absolute simulation time, event), ascending *)
}

(** Per-minute event rates and per-event magnitudes. *)
type profile = {
  upgrades_per_min : float;
  flaps_per_min : float;
  attacks_per_min : float;
  storms_per_min : float;
  upgrade_outage : float;
  flap_down : float;
  attack_dwell : float;
  storm_queries : int;
  storm_spread : float;
}

(** 1 upgrade, 2 flaps, 1 attack and 1 storm per minute; seconds-scale
    outages and dwells; 20-query storms. *)
val default_profile : profile

(** Tallies, updated live as the simulation executes scheduled
    events — read them mid-run for progress or at the end for the
    campaign total. *)
type report = {
  mutable upgrades : int;
  mutable flaps : int;
  mutable attacks : int;
  mutable storms : int;
  mutable storm_queries_sent : int;
  mutable storm_answers : int;
  mutable storm_throttled : int;
}

(** [plan s profile ~seed ~start ~duration] draws a campaign: each
    event class is a Poisson arrival process at its profile rate with
    targets picked uniformly from the scenario's world.  Pure in
    (world, profile, seed) — replaying the same seed yields the same
    program.  @raise Invalid_argument on a non-positive duration or an
    empty world. *)
val plan :
  Scenario.t -> profile -> seed:int -> start:float -> duration:float -> campaign

(** [schedule s campaign] registers every event on the scenario's
    simulator and returns the live report; the caller advances
    simulation time ({!Scenario.run}) at its own pace, interleaving
    measurements. *)
val schedule : Scenario.t -> campaign -> report

(** [execute s campaign] is [schedule] followed by running the
    simulation to the campaign end (plus settle time). *)
val execute : Scenario.t -> campaign -> report

(** [event_count campaign] is the number of planned events. *)
val event_count : campaign -> int

(** [describe event] is a short human-readable label. *)
val describe : event -> string
