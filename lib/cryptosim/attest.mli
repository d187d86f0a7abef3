(** SGX-style remote attestation (simulated).

    The paper relies on trusted hardware in two directions: the client
    verifies it is talking to the genuine RVaaS application, and the
    provider verifies the RVaaS server runs the agreed code and will
    not leak topology details (§IV-A).  We model an enclave as a code
    measurement; a quote binds a measurement to a caller-chosen nonce
    under a simulated hardware key. *)

type measurement = string

type quote

(** [measure ~code_identity] hashes a code identity string into a
    measurement. *)
val measure : code_identity:string -> measurement

(** [quote ~measurement ~nonce] produces a quote, as the (simulated)
    hardware would. *)
val quote : measurement:measurement -> nonce:string -> quote

(** [verify q ~expected ~nonce] checks that [q] attests [expected]
    under [nonce]. *)
val verify : quote -> expected:measurement -> nonce:string -> bool

(** [forge ~measurement ~nonce] builds a quote NOT endorsed by the
    hardware key; {!verify} rejects it.  Used in negative tests. *)
val forge : measurement:measurement -> nonce:string -> quote
