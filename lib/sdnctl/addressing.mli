(** Client and host addressing.

    Each client owns an IPv4 /16 subnet (10.c.0.0/16); its hosts get
    sequential addresses within it.  The registry also records which
    access points (switch, port) belong to which client — the ground
    truth against which RVaaS isolation answers are judged. *)

type host_info = { host : int; client : int; ip : int; mac : int }

(** An address {e range}: a naturally-aligned power-of-two block of a
    client's /16, represented in the topology by a single gateway
    host ([r_host]) and carried end-to-end as one prefix (an [Hs]
    cube) instead of [r_count] enumerated endpoints. *)
type range_info = {
  r_host : int;  (** gateway topology host standing for the range *)
  r_client : int;
  r_base : int;  (** full 32-bit address of the block base *)
  r_prefix_len : int;  (** block = [r_base, r_base + 2{^32-len}) *)
  r_count : int;  (** addresses in use within the block *)
}

type t

val create : unit -> t

(** [add_client t ~client ~name] declares a client.
    @raise Invalid_argument on duplicates or ids outside [0, 255]. *)
val add_client : t -> client:int -> name:string -> unit

(** [add_host t ~host ~client] registers a host under a client and
    assigns its address.  @raise Invalid_argument when the host is
    already registered or the client unknown. *)
val add_host : t -> host:int -> client:int -> host_info

(** [add_range t ~host ~client ~count] registers [host] as the gateway
    of a fresh range of [count] addresses inside the client's /16.
    Blocks are carved from the top of the subnet downward (individual
    hosts grow from index 1 upward), rounded up to a power of two and
    naturally aligned, so each range is exactly one prefix.  The
    gateway is entered in the host tables with the block base address.
    @raise Invalid_argument when the host is already registered, the
    client unknown, [count] outside [1, 65536], or the subnet
    exhausted. *)
val add_range : t -> host:int -> client:int -> count:int -> range_info

(** [range t ~host] looks up the range gatewayed by [host]. *)
val range : t -> host:int -> range_info option

(** [ranges_of_client t ~client] lists a client's ranges, ascending by
    base address. *)
val ranges_of_client : t -> client:int -> range_info list

(** [all_ranges t] lists every registered range, ascending by gateway
    host id. *)
val all_ranges : t -> range_info list

(** [range_of_ip t ~ip] finds the range containing [ip], if any. *)
val range_of_ip : t -> ip:int -> range_info option

(** [resolve_ip t ~ip] resolves an address to a concrete registered
    host: an exact match first, else the gateway of the containing
    range. *)
val resolve_ip : t -> ip:int -> host_info option

(** [address_count t] is the number of addresses the registry speaks
    for: individually registered hosts plus the [r_count] of every
    range (gateways count once, through their range). *)
val address_count : t -> int

(** [clients t] lists client ids, ascending. *)
val clients : t -> int list

(** [host t ~host] looks a host's addressing up. *)
val host : t -> host:int -> host_info option

(** [host_by_ip t ~ip] reverse-resolves an address. *)
val host_by_ip : t -> ip:int -> host_info option

(** [hosts_of_client t ~client] lists a client's hosts, ascending by
    host id. *)
val hosts_of_client : t -> client:int -> host_info list

(** [all_hosts t] lists all registered hosts, ascending by host id. *)
val all_hosts : t -> host_info list

(** [subnet t ~client] is the client's (prefix value, prefix length).
    The prefix value is the full 32-bit address of the subnet base. *)
val subnet : t -> client:int -> int * int

(** [client_of_ip t ~ip] derives the owning client from an address
    inside a registered client subnet. *)
val client_of_ip : t -> ip:int -> int option

(** [access_points t net_topo ~client] lists the (switch, port)
    attachment points of the client's hosts. *)
val access_points : t -> Netsim.Topology.t -> client:int -> (int * int) list
