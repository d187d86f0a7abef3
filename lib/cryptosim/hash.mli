(** 64-bit non-cryptographic hash (FNV-1a).

    This is the primitive under all of {!Hmac}, {!Keys} and {!Box}.  It
    is deliberately NOT cryptographically secure: the repository
    simulates the *protocol roles* of crypto (authenticate, verify,
    seal) in a sealed offline environment, as documented in DESIGN.md
    §3.  Determinism is a feature here — tests and benchmarks are
    reproducible. *)

(** [digest s] hashes a string to 64 bits. *)
val digest : string -> int64

(** [init] is the FNV-1a offset basis: the state before any byte. *)
val init : int64

(** [feed h s] continues the hash state [h] over the bytes of [s].
    FNV-1a is a streaming hash, so [feed (feed init a) b] is
    [digest (a ^ b)] without building the concatenation. *)
val feed : int64 -> string -> int64

(** [to_hex h] renders a hash state as 16 lower-case hex characters,
    most significant nibble first. *)
val to_hex : int64 -> string

(** [digest_hex s] renders {!digest} as 16 hex characters. *)
val digest_hex : string -> string

(** [combine a b] hashes the concatenation of two digests. *)
val combine : int64 -> int64 -> int64
