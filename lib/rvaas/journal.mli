(** Typed record layer over {!Support.Journal}: the durable log a
    crashed or failed-over RVaaS controller recovers from.

    The {!Monitor} journals every snapshot mutation (flow-monitor
    events, poll results); the {!Service} journals integrity-query
    opens and closes; a {!Checkpoint} images the whole {!Snapshot}
    every [checkpoint_every] state-changing records so replay length
    stays bounded.  {!recover} turns the checksummed valid prefix back
    into a snapshot plus the set of queries that were in flight at the
    crash — everything a standby needs to take over. *)

(** An integrity query that was open (answer not yet sent) — enough
    context for a recovering controller to re-issue it: requester
    identity/location and the parsed query. *)
type query_open = {
  q_nonce : string;
  q_client : int;
  q_sw : int;  (** switch the request arrived on *)
  q_port : int;  (** ingress port of the request *)
  q_ip : int option;  (** requester source IP, when seen *)
  q_query : Query.t;
}

type record =
  | Observation of { sw : int; event : Ofproto.Message.monitor_event }
      (** a flow-monitor event folded into the snapshot *)
  | Flows_polled of { sw : int; flows : Ofproto.Flow_entry.spec list }
      (** a flow-stats reply that replaced [sw]'s view *)
  | Meters_polled of { sw : int; meters : (int * Ofproto.Meter.band) list }
  | Checkpoint of string  (** a {!Snapshot.to_bytes} image *)
  | Query_opened of query_open
  | Query_closed of { nonce : string }
  | Heartbeat  (** liveness marker: keeps {!Support.Journal.last_at} fresh *)
  | Takeover of { gen : int }
      (** a generation bump written by {!Support.Journal.begin_generation} *)
  | Claim of { sid : int }
      (** a standby's journalled takeover claim — the quorum election
          in {!Failover} is decided by lowest claiming standby id *)

type t

(** [create ?checkpoint_every ?auto_compact ()] makes a typed journal
    over a fresh log.  [checkpoint_every] (default 64) is how many
    state-changing records may accumulate before {!append} images a
    checkpoint.  With [auto_compact] (default [false]) the journal
    self-bounds: whenever it reaches [2 * checkpoint_every] entries it
    is compacted down to the open-query block plus one fresh image.
    @raise Invalid_argument when [checkpoint_every < 1]. *)
val create : ?checkpoint_every:int -> ?auto_compact:bool -> unit -> t

(** [of_log ?checkpoint_every ?auto_compact log] adopts an existing
    log (e.g. one rebuilt by {!Support.Journal.decode}) for continued
    writing. *)
val of_log : ?checkpoint_every:int -> ?auto_compact:bool -> Support.Journal.t -> t

(** [log t] is the underlying append-only log (shared, not copied) —
    what a warm standby tails and what gets encoded for persistence. *)
val log : t -> Support.Journal.t

(** [append t ~at ~snapshot record] journals [record]; when the
    checkpoint cadence is reached, also journals a fresh image of
    [snapshot].  Checkpoint records trigger {!Support.Journal.sync} —
    the fsync boundary of an attached segmented store. *)
val append : t -> at:float -> snapshot:Snapshot.t -> record -> unit

(** [checkpoint t ~at ~snapshot] forces an image now (used at start-up
    so the journal never has an imageless prefix, and at takeover). *)
val checkpoint : t -> at:float -> snapshot:Snapshot.t -> unit

(** [heartbeat t ~at] journals a liveness marker. *)
val heartbeat : t -> at:float -> unit

(** [claim t ~at ~sid] journals standby [sid]'s takeover claim.
    Claims are ignored by {!recover} and excluded from the staleness
    signal ({!Failover} judges primary liveness by the freshest
    non-claim entry) — they exist so that competing standbys elect a
    single winner through the log itself. *)
val claim : t -> at:float -> sid:int -> unit

(** The raw tag of {!Claim} entries. *)
val claim_tag : string

(** [compact t ~at] bounds the journal: recovers its current state,
    re-appends every still-open query, images the recovered snapshot,
    then drops everything older ({!Support.Journal.compact} — the
    chain root moves, an attached segmented store unlinks the sealed
    segments below it).
    Recovery-equivalent: [recover (log t)] returns the same snapshot,
    digest vector and open-query list before and after. *)
val compact : t -> at:float -> unit

(** [decode_entry e] parses a raw log entry back into a {!record}
    ([Takeover] for {!Support.Journal.generation_tag} entries). *)
val decode_entry : Support.Journal.entry -> (record, string) result

(** What {!recover} reconstructs from a journal's valid prefix. *)
type recovery = {
  snapshot : Snapshot.t;
      (** last decodable checkpoint + all later mutations replayed *)
  open_queries : query_open list;
      (** queries opened but never closed, oldest first *)
  replayed : int;  (** mutation records applied on top of the checkpoint *)
  generation : int;  (** highest generation seen in the valid prefix *)
  last_at : float option;  (** timestamp of the newest raw entry *)
}

(** [recover log] rebuilds controller state from the checksummed valid
    prefix of [log].  Records past a torn write are ignored; a
    checksummed record that fails to decode is skipped. *)
val recover : Support.Journal.t -> recovery
