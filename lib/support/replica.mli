(** Lag-bounded replica tail of a journal — the stream a warm standby
    receives from the primary.

    Frames arrive in order but may sit in transit before being applied
    to the replica's local view, bounded by [max_lag] records (applied
    eagerly once exceeded) and [delay] seconds of simulated time
    (applied by {!pump}).  The view is a real {!Journal.t} built with
    {!Journal.ingest}, so election logic can read claims and
    heartbeats from the standby's own — possibly stale — copy instead
    of the primary's memory.

    A partitioned replica receives nothing; frames sent meanwhile are
    lost.  Healing (and any mid-stream gap) triggers a full snapshot
    resync from the source, because an ingest chain cannot re-join
    across a gap.  Compaction on the source ships the compacted image
    wholesale.  {!catch_up} applies everything queued regardless of
    delay — the reconciliation a lagging election winner performs
    before takeover. *)

type t

(** [create source] attaches a replica tail to [source].  [max_lag]
    (default 8) bounds how many frames may queue before eager apply;
    [delay] (default 0) is the in-transit time in the entries' own
    [at] clock; [faults] lets a {!Storefault} plan hold frames in
    transit ([hold_frames]). *)
val create : ?faults:Storefault.t -> ?max_lag:int -> ?delay:float -> Journal.t -> t

(** The replica's local view (stale by at most the configured bounds
    while live). *)
val view : t -> Journal.t

(** Apply every queued frame older than [delay] at simulated time
    [now], then re-enforce the record bound.  No-op while frames are
    held by a fault plan. *)
val pump : t -> now:float -> unit

(** Apply everything queued, regardless of delay or hold; returns the
    number of frames applied.  Used by an election winner to reconcile
    to the longest chain prefix it holds before takeover. *)
val catch_up : t -> int

(** Cut the link: the replica stops receiving; frames in flight and
    frames sent while partitioned are dropped. *)
val partition : t -> unit

(** Restore the link and resync wholesale from the source. *)
val heal : t -> unit

val partitioned : t -> bool

(** Frames currently queued (in transit, not yet applied). *)
val queued : t -> int

(** Frames applied to the view so far. *)
val delivered : t -> int

(** Full snapshot resyncs performed (heals and gap recoveries). *)
val resyncs : t -> int
