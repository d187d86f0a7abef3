(** OpenFlow match expressions.

    A match constrains the ingress port and any subset of header fields
    with value/mask pairs, as in OpenFlow 1.3 OXM.  Matches convert to
    {!Hspace.Tern} cubes for logical verification and evaluate directly
    against concrete headers in the data plane. *)

type field_match = { value : int; mask : int }

type t

(** Matches every packet on every port. *)
val any : t

(** [with_in_port t p] additionally requires ingress port [p]. *)
val with_in_port : t -> int -> t

(** [with_field t f ~value ~mask] adds a masked field constraint
    (replacing any existing constraint on [f]). *)
val with_field : t -> Hspace.Field.name -> value:int -> mask:int -> t

(** [with_exact t f v] adds an exact-value constraint on [f]. *)
val with_exact : t -> Hspace.Field.name -> int -> t

(** [with_prefix t f ~value ~prefix_len] adds a CIDR-prefix constraint. *)
val with_prefix : t -> Hspace.Field.name -> value:int -> prefix_len:int -> t

(** [in_port t] is the required ingress port, if constrained. *)
val in_port : t -> int option

(** [fields t] lists the field constraints in a stable order. *)
val fields : t -> (Hspace.Field.name * field_match) list

(** [matches t ~in_port header] evaluates [t] against a concrete
    packet arriving on [in_port]. *)
val matches : t -> in_port:int -> Hspace.Header.t -> bool

(** [to_tern t] is the header-space cube of [t] (the in-port constraint
    is not part of the header and is returned by {!in_port}). *)
val to_tern : t -> Hspace.Tern.t

(** [subset a b] is true when every (port, header) matched by [a] is
    matched by [b].  Like {!overlaps} and {!equal} it walks the two
    canonical field lists once and builds no cube. *)
val subset : t -> t -> bool

(** [overlaps a b] is true when some (port, header) is matched by both. *)
val overlaps : t -> t -> bool

(** [equal a b] is semantic equality of the match predicates. *)
val equal : t -> t -> bool

(** [hash t] is a word-wise FNV-1a hash of the canonical constraints:
    [equal a b] implies [hash a = hash b]. *)
val hash : t -> int

val pp : Format.formatter -> t -> unit
