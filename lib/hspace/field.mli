(** Header field layout.

    Defines the packet-header bit layout shared by the concrete data
    plane ({!Header}), the OpenFlow match language ([Ofproto.Match])
    and the header-space verifier.  Bit 0 of a field is its least
    significant bit and is stored at the field's offset. *)

type name =
  | Eth_src
  | Eth_dst
  | Eth_type
  | Vlan
  | Ip_src
  | Ip_dst
  | Ip_proto
  | Tp_src
  | Tp_dst

(** All fields in layout order. *)
val all : name list

(** [offset f] is the first header bit of [f]. *)
val offset : name -> int

(** [bit_width f] is the width of [f] in bits. *)
val bit_width : name -> int

(** Total header width in bits (sum of all field widths). *)
val total_width : int

(** [name_to_string f] is a stable lower-case name. *)
val name_to_string : name -> string

(** [set_exact t f v] constrains field [f] of cube [t] to the exact
    value [v] (low [bit_width f] bits of [v]). *)
val set_exact : Tern.t -> name -> int -> Tern.t

(** [set_masked t f ~value ~mask] constrains the bits of [f] whose mask
    bit is 1 to the corresponding bit of [value]; other bits are left
    unchanged.  With [mask = 0] this is the identity. *)
val set_masked : Tern.t -> name -> value:int -> mask:int -> Tern.t

(** [set_prefix t f ~value ~prefix_len] constrains the [prefix_len]
    most significant bits of [f] — the CIDR-style prefix match. *)
val set_prefix : Tern.t -> name -> value:int -> prefix_len:int -> Tern.t

(** [get_exact t f] returns the concrete value of [f] when all its bits
    are 0/1, otherwise [None]. *)
val get_exact : Tern.t -> name -> int option

(** [prefix_mask f prefix_len] is the integer mask with the
    [prefix_len] most significant bits of field [f] set. *)
val prefix_mask : name -> int -> int

val pp_name : Format.formatter -> name -> unit
