(** Authenticated encryption-at-rest for journal frames (simulated).

    A stream cipher whose keystream is derived from (key, per-segment
    nonce, frame index), with a per-frame MAC over the binding context
    and ciphertext.  Plaintext journal bytes never reach disk; any
    corruption of a frame — or of the length prefix delimiting it —
    fails the MAC, and recovery stops at the first unverifiable frame
    (the torn-tail contract, preserved under encryption).

    Like the rest of [cryptosim], this simulates the protocol role
    only — the underlying hash is not cryptographically secure (see
    DESIGN.md §3). *)

(** [crypt ~key] packages the hooks for
    {!Support.Segment_store.attach}: each frame is encrypted and
    authenticated, its tag prepended to the ciphertext; a frame whose
    MAC does not verify does not decode; the per-segment nonce is
    deterministic in (key, segment index) and stored in the segment
    header. *)
val crypt : key:Hmac.key -> Support.Segment_store.crypt
