(** Keyed message authentication codes (simulated).

    Used for the auth request/reply packets of the RVaaS in-band
    protocol: clients prove possession of their registered key without
    per-packet public-key operations (paper §III rules those out). *)

type key

(** [key_of_string s] derives a key from secret material. *)
val key_of_string : string -> key

(** [random_key rng] draws a fresh key. *)
val random_key : Support.Rng.t -> key

(** [mac key msg] tags [msg]. *)
val mac : key -> string -> string

(** [mac_parts key parts] is [mac key (String.concat "" parts)],
    hashed part by part without building the concatenation. *)
val mac_parts : key -> string list -> string

(** [verify key msg tag] checks a tag. *)
val verify : key -> string -> string -> bool

(** [key_to_string key] serialises the key (for registry storage). *)
val key_to_string : key -> string
