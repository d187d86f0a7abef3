type measurement = string

type quote = { measurement : measurement; nonce : string; endorsement : string }

(* Simulated hardware root key baked into every (simulated) CPU. *)
let hardware_key = Hmac.key_of_string "sgx-root-of-trust"

let measure ~code_identity = "mrenclave:" ^ Hash.digest_hex code_identity

let quote ~measurement ~nonce =
  { measurement; nonce; endorsement = Hmac.mac hardware_key (measurement ^ "#" ^ nonce) }

let verify q ~expected ~nonce =
  String.equal q.measurement expected
  && String.equal q.nonce nonce
  && Hmac.verify hardware_key (q.measurement ^ "#" ^ q.nonce) q.endorsement

let forge ~measurement ~nonce =
  { measurement; nonce; endorsement = Hash.digest_hex ("forged#" ^ measurement ^ nonce) }
