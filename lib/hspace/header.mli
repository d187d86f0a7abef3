(** Concrete packet headers.

    The record mirrors the field layout of {!Field}; conversion to a
    concrete {!Tern} vector links the simulated data plane with the
    logical header-space analysis. *)

type t = {
  eth_src : int;
  eth_dst : int;
  eth_type : int;
  vlan : int;
  ip_src : int;
  ip_dst : int;
  ip_proto : int;
  tp_src : int;
  tp_dst : int;
}

(** A zeroed header. *)
val default : t

(** Well-known [eth_type] values used in the simulation. *)
val eth_type_ip : int

(** Well-known [ip_proto] values. *)
val proto_udp : int

val proto_tcp : int

(** [get h f] reads field [f] as an integer. *)
val get : t -> Field.name -> int

(** [set h f v] returns [h] with field [f] replaced by the low bits of
    [v] (truncated to the field width). *)
val set : t -> Field.name -> int -> t

(** [to_tern h] is the concrete ternary vector encoding [h]. *)
val to_tern : t -> Tern.t

(** [of_tern t] decodes a concrete vector into a header.
    @raise Invalid_argument if [t] is not concrete. *)
val of_tern : Tern.t -> t

(** [udp ~src_ip ~dst_ip ~src_port ~dst_port] builds a UDP header. *)
val udp : src_ip:int -> dst_ip:int -> src_port:int -> dst_port:int -> t

(** [equal a b] is structural equality. *)
val equal : t -> t -> bool

(** [random rng] draws a uniform header. *)
val random : Support.Rng.t -> t
