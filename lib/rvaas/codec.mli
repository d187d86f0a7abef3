(** Wire codec for the in-band protocol payloads.

    Four payload kinds travel inside the UDP packets of {!Wire}:

    - {b request} (client → service): sealed to the service's public
      key so the provider cannot read query contents, and HMAC-tagged
      with the client's registered key so the service can authenticate
      the requester.
    - {b auth request} (service → endpoint host): a fresh challenge,
      signed by the service so hosts only answer the genuine RVaaS.
    - {b auth reply} (endpoint host → service): echoes the challenge
      under the host's client key.
    - {b answer} (service → client): the query answer, signed by the
      service.

    The format is line-oriented [key=value] text — easy to inspect in
    tests and logs. *)

type request = { client : int; nonce : string; query : Query.t }

(** The most cubes a query scope may carry on the wire (64).  Every
    caller in this repository sends at most 3. *)
val max_scope_cubes : int

(** [encode_request r ~key ~recipient] authenticates with the client
    [key] and seals to the service public key. *)
val encode_request : request -> key:Cryptosim.Hmac.key -> recipient:Cryptosim.Keys.public -> string

(** [decode_request payload ~keypair ~lookup_key] opens the box with
    the service [keypair], parses, and verifies the client tag using
    [lookup_key client].  A scope with more than {!max_scope_cubes}
    cubes, or with a cube that does not parse or is not
    {!Hspace.Field.total_width} wide, is an [Error]. *)
val decode_request :
  string ->
  keypair:Cryptosim.Keys.keypair ->
  lookup_key:(int -> Cryptosim.Hmac.key option) ->
  (request, string) result

(** [encode_auth_request ~challenge ~signer] signs a challenge. *)
val encode_auth_request : challenge:string -> signer:Cryptosim.Keys.keypair -> string

(** [decode_auth_request payload ~service_public] verifies and returns
    the challenge. *)
val decode_auth_request :
  string -> service_public:Cryptosim.Keys.public -> (string, string) result

type auth_reply = { reply_client : int; challenge : string }

(** [encode_auth_reply ~client ~challenge ~key] tags the echo with the
    client key. *)
val encode_auth_reply : client:int -> challenge:string -> key:Cryptosim.Hmac.key -> string

(** [decode_auth_reply payload ~lookup_key] parses and verifies. *)
val decode_auth_reply :
  string -> lookup_key:(int -> Cryptosim.Hmac.key option) -> (auth_reply, string) result

(** [encode_answer a ~signer] signs the serialised answer. *)
val encode_answer : Query.answer -> signer:Cryptosim.Keys.keypair -> string

(** [decode_answer payload ~service_public] verifies the service
    signature and parses. *)
val decode_answer :
  string -> service_public:Cryptosim.Keys.public -> (Query.answer, string) result

(** [query_to_string] / [query_of_string]: the bare query in the same
    line format used inside requests — used by the durable journal to
    record open queries so a recovering controller can re-issue them. *)
val query_to_string : Query.t -> string

val query_of_string : string -> (Query.t, string) result

(** Compact little-endian binary encoders for the durable layer
    (snapshot images, journal payloads).  Kept in [Codec] so every
    byte crossing a persistence or wire boundary is defined in one
    module.  Readers raise {!Bin.Malformed} on any structural error —
    callers at trust boundaries must catch it. *)
module Bin : sig
  exception Malformed of string

  val w_u8 : Buffer.t -> int -> unit

  val w_int : Buffer.t -> int -> unit

  val w_float : Buffer.t -> float -> unit

  val w_string : Buffer.t -> string -> unit

  val w_opt : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit

  val w_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit

  type reader

  val reader : string -> reader

  val r_int : reader -> int

  val r_float : reader -> float

  val r_string : reader -> string

  val r_opt : (reader -> 'a) -> reader -> 'a option

  val r_list : (reader -> 'a) -> reader -> 'a list

  (** Flow-entry specs, monitor events and meter tables — the payloads
      of snapshot checkpoints and journal observations.  Round-trip
      preserves {!Ofproto.Flow_entry.spec_equal} and the fingerprints
      {!Snapshot.switch_digest} is built from. *)

  val w_spec : Buffer.t -> Ofproto.Flow_entry.spec -> unit

  val r_spec : reader -> Ofproto.Flow_entry.spec

  val w_event : Buffer.t -> Ofproto.Message.monitor_event -> unit

  val r_event : reader -> Ofproto.Message.monitor_event

  val w_meters : Buffer.t -> (int * Ofproto.Meter.band) list -> unit

  val r_meters : reader -> (int * Ofproto.Meter.band) list
end
