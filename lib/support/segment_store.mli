(** Segmented journal store, the on-disk backend for {!Journal}:
    sealed immutable segments plus one active segment, so compaction
    never rewrites the world.

    A directory holds [seg-NNNNNN.rvsg] files (sealed — finalized
    header with exact frame count and span checksum, fsynced, never
    written again) and at most one [seg-NNNNNN.act] (active — open
    header, incrementally appended, flushed per entry, fsynced on
    checkpoint).  Each segment records its own chain base, so recovery
    concatenates segments in index order and re-derives a single
    continuous checksum chain; a torn write in the active tail costs
    only the torn frame.

    Compaction ({!Journal.compact} on the attached log) drops whole
    sealed segments that lie wholly below the new chain base — oldest
    first, no retained byte rewritten.  The typed layer rolls the
    active segment ({!Journal.roll}) before re-appending the retained
    block, so the cut lands on a segment boundary.

    Encryption-at-rest: install a {!crypt} and every frame payload is
    wrapped by an authenticated cipher (per-segment nonce, per-frame
    MAC) before hitting disk — plaintext never does.  The frame length
    prefix delimits ciphertext; corrupting either prefix or payload
    makes the frame MAC fail, and recovery stops there (the torn-tail
    contract, preserved under encryption).

    Error containment: write/fsync failures mark the store degraded
    and are swallowed; the in-memory journal stays authoritative. *)

(** Injected cipher hooks ([support] sits below [cryptosim], so the
    cipher itself lives in [Cryptosim.Atrest] and is passed in).
    [wrap ~nonce ~index plain] authenticates-then-encrypts one frame;
    [unwrap] inverts it, [None] on MAC failure; [fresh_nonce ~seg]
    derives the per-segment nonce. *)
type crypt = {
  wrap : nonce:string -> index:int -> string -> string;
  unwrap : nonce:string -> index:int -> string -> string option;
  fresh_nonce : seg:int -> string;
}

type config = {
  segment_bytes : int;  (** seal the active segment at this size *)
  crypt : crypt option;  (** encrypt-at-rest when present *)
}

(** 64 KiB segments, no encryption. *)
val default_config : config

type t

(** [attach log ~dir] replaces whatever store lives in [dir] (stale
    [*.tmp] files are swept and counted, old segments removed), writes
    the log's current entries into a fresh active segment (sealing on
    threshold), and installs the sink so later appends, syncs, rolls
    and compactions are mirrored.  [faults] injects a deterministic
    {!Storefault} plan for crash-matrix tests. *)
val attach : ?config:config -> ?faults:Storefault.t -> Journal.t -> dir:string -> t

(** Path of the current active segment.
    @raise Invalid_argument when the store is closed. *)
val active_path : t -> string

(** Paths of the sealed segments, oldest first. *)
val sealed_paths : t -> string list

(** Bytes across all live segment files (flushed to the OS). *)
val written_bytes : t -> int

(** Bytes known durable; [= written_bytes] right after a checkpoint
    or seal. *)
val synced_bytes : t -> int

(** Directory fsyncs so far (attach, every seal, every deletion
    batch). *)
val dir_syncs : t -> int

(** Segments sealed so far (including those later deleted). *)
val seals : t -> int

(** Sealed segments currently live. *)
val sealed_count : t -> int

(** Sealed segments deleted by compaction so far. *)
val sealed_deleted : t -> int

(** Stale [*.tmp] files swept by {!attach}. *)
val stale_temps_removed : t -> int

(** Write/fsync failures swallowed (the store is then degraded). *)
val sink_errors : t -> int

(** [true] once an I/O failure stopped the mirroring; on-disk state is
    a stale but still-recoverable prefix. *)
val degraded : t -> bool

(** Seal the active segment now (if non-empty) and start a fresh one
    at the chain tail.  Equivalent to {!Journal.roll} reaching this
    sink. *)
val seal_active : t -> unit

(** Fsync the active segment; equivalent to {!Journal.sync}. *)
val sync : t -> unit

(** Detach from the log, fsync and close the active segment.  The
    directory remains recoverable. *)
val close : t -> unit

(** [recover_from_dir ?crypt dir] reads every segment in index order,
    verifies chain continuity across segment boundaries, decrypts
    frames when [crypt] is given, and returns the decoded journal —
    the longest verified prefix across the whole store.  Recovery
    stops at the first torn frame, MAC failure, truncated sealed
    segment, or inter-segment gap.  [Error] when the directory is
    missing/empty, no segment decodes, or the store is encrypted and
    no [crypt] was supplied. *)
val recover_from_dir : ?crypt:crypt -> string -> (Journal.t, string) result
