(** Detection logic: turning answers and monitoring history into
    alarms.

    Two complementary detectors, matching the paper's passive/active
    split:

    - {b answer-based} (client side): compare a query answer against
      the client's policy — expected access points, forbidden
      jurisdictions, path-stretch bounds, minimum rates, and the
      counting defence (missing auth replies).
    - {b history-based} (service side): compare the monitoring history
      against a baseline configuration; any added/removed rule outside
      the baseline is drift, with the observation timestamp — this is
      what catches transient reconfiguration attacks after the fact. *)

type alarm =
  | Unknown_access_point of { sw : int; port : int }
      (** an access point outside the client's own set can reach it *)
  | Unauthenticated_endpoint of { sw : int; port : int }
      (** a probed endpoint never answered — possible suppression *)
  | Missing_replies of { expected : int; got : int }
      (** counting defence: fewer replies than requests *)
  | Forbidden_jurisdiction of string
  | Path_stretch of { observed : int; optimal : int; bound : float }
  | Throttled of { meter : int; rate_kbps : int; floor_kbps : int }
  | Unreachable_expected of { sw : int; port : int }
      (** an endpoint the client expects to reach is missing from the
          answer — e.g. a blackholed peer *)
  | Config_drift of { at : float; sw : int; detail : string }

(** Client-side policy. *)
type policy = {
  own_points : (int * int) list;  (** legitimate access points *)
  allowed_peer_points : (int * int) list;
      (** whitelisted foreign access points (e.g. approved peers) *)
  forbidden_jurisdictions : string list;
  max_path_stretch : float;  (** observed/optimal bound, e.g. 1.5 *)
  min_rate_kbps : int option;  (** agreed rate floor, for fairness *)
  expected_reachable : (int * int) list;
      (** access points the client expects endpoint answers to include *)
}

(** [default_policy ~own_points] permits only the client's own points,
    forbids nothing geographically, allows stretch 1.0 and sets no rate
    floor. *)
val default_policy : own_points:(int * int) list -> policy

(** [check_answer policy answer] returns alarms raised by one answer. *)
val check_answer : policy -> Query.answer -> alarm list

(** A believed-good configuration to compare history against. *)
type baseline

(** [baseline_of_flows flows] records a believed-good configuration: a
    list of (switch, rule list) pairs, each taken in as a stats reply
    into a {!Snapshot}, so its per-switch digests are the ones
    {!Monitor.Poll} records. *)
val baseline_of_flows : (int * Ofproto.Flow_entry.spec list) list -> baseline

(** [check_history baseline history] returns drift alarms: monitor
    events that add rules beyond the baseline or remove baseline
    rules, and polls whose switch digest differs from the baseline's
    digest for that switch (a switch the baseline does not list
    compares against an empty table). *)
val check_history : baseline -> Monitor.history_entry list -> alarm list

(** [describe alarm] is a one-line rendering. *)
val describe : alarm -> string
