(** OpenFlow actions.

    An action list is applied in order; header rewrites affect
    subsequent outputs.  An empty action list drops the packet. *)

type t =
  | Output of int  (** forward out of a specific port *)
  | In_port  (** forward back out of the ingress port (OFPP_IN_PORT) —
                 the only way to hairpin, since a plain [Output] naming
                 the ingress port is suppressed *)
  | Flood  (** forward out of all ports except the ingress port *)
  | To_controller  (** encapsulate in a Packet-In to the controllers *)
  | Set_field of Hspace.Field.name * int  (** rewrite a header field *)
  | Set_queue of int  (** select an egress queue (QoS modelling) *)

(** Result of applying an action list to a header arriving on a port. *)
type applied = {
  outputs : (int * Hspace.Header.t) list;
      (** concrete egress ports with the header as rewritten at that
          point of the action list *)
  to_controller : Hspace.Header.t option;
      (** header sent to the controller, if [To_controller] appears *)
  final_header : Hspace.Header.t;
  queue : int option;
}

(** [apply ~ports ~in_port header actions] executes [actions]:
    [Flood] expands to [ports] minus [in_port], rewrites apply to all
    later outputs, and — as in OpenFlow — an [Output] naming the
    ingress port itself is suppressed. *)
val apply :
  ports:int list -> in_port:int -> Hspace.Header.t -> t list -> applied

(** [sends_to_controller actions] is true when the list contains
    [To_controller]. *)
val sends_to_controller : t list -> bool

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val pp_list : Format.formatter -> t list -> unit
