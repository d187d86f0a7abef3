type public = string

type keypair = { public : public; secret : Hmac.key }

(* Process-local registry standing in for a PKI: verification needs the
   secret because our "signature" is an HMAC. *)
let registry : (public, Hmac.key) Hashtbl.t = Hashtbl.create 16

let generate rng ~owner =
  let secret = Hmac.random_key rng in
  let public = "pub:" ^ owner ^ ":" ^ Hash.digest_hex (Hmac.key_to_string secret) in
  Hashtbl.replace registry public secret;
  { public; secret }

let public kp = kp.public

(* The signed message is [public ^ "/" ^ msg]; the MAC hashes the
   three parts in order instead of copying [msg] into it. *)
let tag secret public msg = Hmac.mac_parts secret [ public; "/"; msg ]

let sign kp msg = tag kp.secret kp.public msg

let verify ~public msg ~signature =
  match Hashtbl.find_opt registry public with
  | None -> false
  | Some secret -> String.equal (tag secret public msg) signature

let forge_signature msg = Hash.digest_hex ("forged:" ^ msg)

(* Purpose-bound subkey: deterministic in (secret, purpose), so a
   separate recovery process holding the same keypair re-derives the
   same storage key — the stand-in for key escrow. *)
let derive kp ~purpose =
  Hmac.key_of_string (Hmac.key_to_string kp.secret ^ "/derive/" ^ purpose)
