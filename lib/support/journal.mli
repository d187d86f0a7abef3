(** Append-only, checksummed, generation-numbered event journal.

    The durable backbone of crash recovery: a controller appends every
    observation (and periodic snapshot checkpoints) here; a restarted
    or standby controller replays the journal to reconstruct the exact
    pre-crash state.  The module is deliberately generic — entries
    carry an opaque [payload] under a short [tag]; the typed record
    layer lives in [Rvaas.Journal].

    Integrity: each entry's checksum chains over the previous entry's
    checksum and all of its own fields (FNV-1a, self-contained so
    [support] stays dependency-free).  A torn write, reordering, or
    in-place tampering breaks the chain at the first bad entry;
    {!valid_prefix} recovers exactly the prefix written
    before the fault.

    Generations: every controller incarnation appending to the journal
    gets a generation number; {!begin_generation} bumps it and records
    the takeover itself as a journal entry (tag {!generation_tag}), so
    the log is also an audit trail of failovers.  Within the valid
    prefix, sequence numbers are strictly increasing and generations
    are non-decreasing.

    Compaction: {!compact} drops a prefix of old entries (only a
    prefix — the checksum chain is sequential) and moves the chain
    base to the newest dropped entry, so the retained suffix verifies
    unchanged and sequence/generation numbering is preserved.

    Backends: a {!sink} mirrors the log onto durable storage
    ([Segment_store] is the on-disk one); callers stay
    backend-agnostic — they only ever talk to this module. *)

type entry = {
  gen : int;  (** generation of the writing controller incarnation *)
  seq : int;  (** strictly increasing over the whole journal *)
  at : float;  (** timestamp supplied by the writer (simulated time) *)
  tag : string;  (** record kind, e.g. ["obs"], ["ckpt"] *)
  payload : string;  (** opaque binary payload *)
  checksum : int64;  (** chained FNV-1a over prev checksum + fields *)
}

type t

val create : unit -> t

(** [append t ~at ~tag ~payload] stamps generation, sequence number
    and chained checksum, appends, and returns the entry. *)
val append : t -> at:float -> tag:string -> payload:string -> entry

(** [ingest t e] appends a primary-stamped entry {e verbatim} —
    generation, sequence number and chained checksum are kept, not
    re-derived.  This is how a replica tail applies frames received
    from the primary; the chain stays verifiable because the frames
    arrive in order.
    @raise Invalid_argument when [e.seq] is not the next sequence
    number (the follower lost frames and must resync wholesale). *)
val ingest : t -> entry -> unit

(** [generation t] is the current writer generation (starts at 1). *)
val generation : t -> int

(** [begin_generation t ~at] increments the generation — called by a
    recovering or standby controller when it takes over — appends a
    {!generation_tag} entry recording the takeover, and returns the
    new generation. *)
val begin_generation : t -> at:float -> int

(** The tag of entries appended by {!begin_generation}. *)
val generation_tag : string

val length : t -> int

(** [base_seq t] is the sequence number of the oldest entry the
    journal can still hold — 0 for a fresh journal, moved forward by
    {!compact}. *)
val base_seq : t -> int

(** [base_gen t] is the generation at the compaction base. *)
val base_gen : t -> int

(** [base_checksum t] is the chain root: the checksum the first
    retained entry's link hashes over. *)
val base_checksum : t -> int64

(** [last_seq t] is the sequence number of the newest entry
    ([base_seq t - 1] when empty). *)
val last_seq : t -> int

(** [last_at t] is the timestamp of the newest entry — the signal a
    warm standby tails to detect a dead primary (heartbeat records
    keep it fresh while the primary lives). *)
val last_at : t -> float option

(** [entries t] returns all entries, oldest first, without integrity
    checking (use {!valid_prefix} for recovery). *)
val entries : t -> entry list

(** [find_newest t ~f] is the newest entry satisfying [f] (no
    integrity check).  Standbys use it to find the freshest
    non-claim record when judging primary staleness. *)
val find_newest : t -> f:(entry -> bool) -> entry option

(** [valid_prefix t] returns the longest prefix whose checksum chain,
    sequence numbers and generation monotonicity all hold. *)
val valid_prefix : t -> entry list

(** [verify t] is [true] when every entry is in the valid prefix. *)
val verify : t -> bool

(** {1 Compaction}

    [compact t ~upto_seq] drops every entry with [seq < upto_seq] and
    moves the chain base to the newest dropped entry, preserving the
    checksum chain, sequence numbering and generation audit trail of
    the retained suffix.  The caller is responsible for only cutting
    at a point covered by a newer verified checkpoint (the typed
    layer, [Rvaas.Journal.compact], enforces this).  Attached sinks
    are told through [on_compact].  No-op when nothing would be
    dropped. *)
val compact : t -> upto_seq:int -> unit

(** {1 Backends}

    A sink mirrors the in-memory log onto durable storage (or a
    replica tail); callers of this module never see them — appending,
    syncing and compacting work identically with zero, one or several
    attached. *)

type sink = {
  on_append : entry -> unit;  (** called after each append *)
  on_sync : unit -> unit;
      (** make prior appends durable before returning (fsync) *)
  on_roll : unit -> unit;
      (** a segment boundary: the segmented store seals the active
          segment and starts a fresh one; replica tails ignore it *)
  on_compact : unit -> unit;
      (** {!compact} moved the chain base forward: drop whatever now
          lies wholly below {!base_seq} *)
}

(** [attach t sink] adds a backend.  Several sinks can be attached at
    once (a durable store plus replica tails); they are notified in
    attach order.  A sink does NOT retroactively see existing entries —
    backends write the current image on attach ([Segment_store.attach]
    does). *)
val attach : t -> sink -> unit

(** [detach_sink t sink] removes exactly [sink] (physical equality),
    leaving other backends attached. *)
val detach_sink : t -> sink -> unit

(** [sync t] asks every attached backend to make all appends durable;
    no-op without one.  The typed layer calls this on checkpoint
    records — the fsync boundary of the durability contract. *)
val sync : t -> unit

(** [roll t] marks a segment boundary: a segmented backend seals its
    active segment (finalized header, span checksum, fsync) and starts
    a fresh one at the current chain tail.  The typed layer calls this
    right before re-appending the retained block during compaction, so
    the subsequent {!compact} can drop whole sealed segments without
    rewriting any retained bytes.  No-op for replica tails. *)
val roll : t -> unit

(** {1 Binary persistence}

    [decode (encode t)] round-trips; [decode] of a truncated or
    tampered image keeps the checksum-valid prefix and drops the rest
    (never fails once the magic matches).  The image header carries
    the compaction base (chain root), so compacted journals round-trip
    too. *)

val encode : t -> string

(** [encode_entry e] is the wire frame of a single entry, exactly as
    it appears in an image after the header. *)
val encode_entry : entry -> string

(** An open-ended header count: {!decode} treats the count as an
    upper bound, so every frame after such a header decodes.  The
    segmented store writes it into active-segment headers and into the
    image it synthesizes at recovery. *)
val open_count : int

val decode : string -> (t, string) result

(** Little-endian primitives behind {!encode} and {!decode}, shared
    with [Segment_store] so [support] has one binary reader.  Readers
    take the bytes and a cursor, advance the cursor, and raise
    {!Truncated} when the bytes run out or a length prefix is negative
    or points past the end. *)
module Binary : sig
  exception Truncated

  val w_i64 : Buffer.t -> int64 -> unit

  val w_int : Buffer.t -> int -> unit

  val r_u8 : string -> int ref -> int

  val r_i64 : string -> int ref -> int64

  val r_int : string -> int ref -> int

  val r_string : string -> int ref -> string
end
