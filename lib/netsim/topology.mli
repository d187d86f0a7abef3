(** Network topology: the trusted wiring plan.

    The paper's threat model assumes "internal network ports are known,
    and follow a well-defined wiring plan" — this module is that plan.
    It is shared (read-only) by the data-plane simulator and by the
    RVaaS verifier, which is exactly the trust assumption the paper
    makes. *)

type node = Switch of int | Host of int

type endpoint = { node : node; port : int }

type link = { a : endpoint; b : endpoint; delay : float }

type t

val create : unit -> t

(** [add_switch t id] declares a switch. @raise Invalid_argument on
    duplicate ids. *)
val add_switch : t -> int -> unit

(** [add_host t id] declares a host. @raise Invalid_argument on
    duplicate ids. *)
val add_host : t -> int -> unit

(** [connect t a b ~delay] wires two endpoints with a bidirectional
    link.  @raise Invalid_argument if either endpoint is already wired
    or its node undeclared. *)
val connect : t -> endpoint -> endpoint -> delay:float -> unit

(** [peer t e] is the endpoint at the far side of [e]'s link. *)
val peer : t -> endpoint -> endpoint option

(** [link_delay t e] is the delay of the link at [e]. *)
val link_delay : t -> endpoint -> float option

(** [switches t] lists declared switch ids, ascending. *)
val switches : t -> int list

(** [hosts t] lists declared host ids, ascending. *)
val hosts : t -> int list

(** [links t] lists links in insertion order. *)
val links : t -> link list

(** [switch_ports t sw] lists the wired ports of switch [sw],
    ascending. *)
val switch_ports : t -> int -> int list

(** [host_attachment t host] is the switch-side endpoint the host is
    wired to, when the host has exactly one link to a switch. *)
val host_attachment : t -> int -> endpoint option

(** [hosts_on_switch t sw] lists (host, switch port) pairs attached to
    switch [sw]. *)
val hosts_on_switch : t -> int -> (int * int) list

(** [neighbor_switches t sw] lists (local port, remote switch, remote
    port) for switch-to-switch links of [sw]. *)
val neighbor_switches : t -> int -> (int * int * int) list

(** [shortest_paths t ~from_sw] computes BFS hop distance and a
    predecessor map over the switch-to-switch graph; returns
    [(distance, via)] maps keyed by switch id, where [via sw] is the
    (port out of predecessor, predecessor) used to reach [sw]. *)
val shortest_paths : t -> from_sw:int -> (int, int) Hashtbl.t * (int, int * int) Hashtbl.t

(** [next_hop_port t ~from_sw ~to_sw] is the egress port of [from_sw]
    on some shortest path towards [to_sw] (None when unreachable or
    equal). *)
val next_hop_port : t -> from_sw:int -> to_sw:int -> int option

(** [routes_to t ~dst_sw] is every switch's next-hop egress port
    towards [dst_sw] on some shortest path, computed with a single
    BFS from the destination.  [dst_sw] itself and unreachable
    switches are absent from the table.  Agrees with
    {!next_hop_port} up to shortest-path tie-breaking. *)
val routes_to : t -> dst_sw:int -> (int, int) Hashtbl.t

(** [shortest_switch_path t ~from_sw ~to_sw] is the switch sequence of
    some shortest path, inclusive of both ends ([\[from_sw\]] when
    equal); [None] when unreachable. *)
val shortest_switch_path : t -> from_sw:int -> to_sw:int -> int list option

(** [shortest_switch_path_avoiding t ~from_sw ~to_sw ~avoid] is like
    {!shortest_switch_path} but never enters a switch in [avoid]
    (endpoints are exempt). *)
val shortest_switch_path_avoiding :
  t -> from_sw:int -> to_sw:int -> avoid:int list -> int list option

(** [port_towards t ~sw ~neighbor] is an egress port of [sw] wired
    directly to [neighbor]. *)
val port_towards : t -> sw:int -> neighbor:int -> int option

val pp_endpoint : Format.formatter -> endpoint -> unit
