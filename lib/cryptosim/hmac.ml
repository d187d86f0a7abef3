type key = string

let key_of_string s = "k:" ^ Hash.digest_hex s

let random_key rng = key_of_string (string_of_int (Support.Rng.bits rng))

(* The tag is FNV-1a over [key ^ "|" ^ parts ^ "|" ^ key], fed piece by
   piece: the digest of the framing, never a copy of the message. *)
let mac_parts key parts =
  let h = Hash.feed (Hash.feed Hash.init key) "|" in
  let h = List.fold_left Hash.feed h parts in
  Hash.to_hex (Hash.feed (Hash.feed h "|") key)

let mac key msg = mac_parts key [ msg ]

let verify key msg tag = String.equal (mac key msg) tag

let key_to_string key = key
