(** The provider's control plane (paper §III: "network management
    system and control plane").

    Proactively installs destination-based shortest-path routing for
    every registered host and per-port ingress isolation ACLs so that
    clients cannot reach each other except through whitelisted peers.
    This is the *correct* configuration; the compromised controller
    ({!Attack}) later mutates it.

    Rule priorities (documented because RVaaS verification and the
    attack taxonomy reason about them):
    {ul
    {- 400+: attacker rules (installed by {!Attack})}
    {- 300: whitelist allow rules (cross-client exceptions)}
    {- 200: isolation drop rules at client-facing ingress ports}
    {- 100: destination-based routing}} *)

type policy = {
  isolation : bool;  (** install inter-client drop ACLs *)
  whitelist : (int * int) list;
      (** (src client, dst client) cross-client pairs allowed anyway *)
}

type t

(** [cookie] tags all provider-installed rules. *)
val cookie : int

(** [create net addressing ~policy ~conn_delay] registers the provider
    controller connection on every switch (without monitor
    subscription) and returns the handle.  Nothing is installed yet. *)
val create :
  Netsim.Net.t -> Addressing.t -> policy:policy -> conn_delay:float -> t

(** [conn t] is the provider's controller connection — handing this to
    {!Attack} models the compromise of the provider control plane. *)
val conn : t -> Netsim.Net.conn

(** [install_all t] pushes the complete configuration (routing +
    ACLs).  Run the simulator afterwards to let Flow-Mods land.

    Individually registered hosts are routed with exact /32 matches;
    {!Addressing.add_range} ranges with a single prefix match towards
    their gateway — one rule per (switch, range) no matter how many
    addresses the range holds. *)
val install_all : t -> unit

(** [mods_via t ~sw ~port] is the subset of switch [sw]'s slice of
    the configuration (routing + ACL + whitelist) whose
    actions output via [port] — the rules a link flap at that port
    invalidates. *)
val mods_via : t -> sw:int -> port:int -> (int * Ofproto.Message.to_switch) list

(** [reinstall t ~sw] re-pushes switch [sw]'s slice of the
    configuration — the tail end of a rolling upgrade that wiped the
    switch's tables. *)
val reinstall : t -> sw:int -> unit

(** [rule_count t] is the number of Flow-Mods [install_all] sends. *)
val rule_count : t -> int
