(** The compromised control plane (paper §III threat model).

    An attacker who hacked the provider's management system issues
    Flow-Mods through the provider's own controller connection.  The
    taxonomy covers the misbehaviours the paper's case studies discuss:

    {ul
    {- [Join]: secretly add an access point into a victim client's
       isolation domain (paper §IV-B.1 "join attacks")}
    {- [Divert]: reroute victim traffic through a chosen switch, e.g.
       one in a foreign jurisdiction (paper §IV-B.2)}
    {- [Exfiltrate]: duplicate traffic addressed to a victim host
       towards an attacker host (paper §I "exfiltrate confidential
       traffic")}
    {- [Blackhole]: silently drop a victim host's traffic}
    {- [Meter_squeeze]: throttle a victim's traffic with a meter,
       violating neutrality/fairness (paper §IV-C.b)}
    {- [Transient]: run any of the above only during a short window, to
       evade naive configuration checks (paper §IV-A "short term
       reconfiguration attacks")}} *)

type t =
  | Join of { victim_client : int; attacker_host : int }
  | Divert of { src_host : int; dst_host : int; via_sw : int }
  | Exfiltrate of { victim_host : int; attacker_host : int }
  | Blackhole of { victim_host : int }
  | Meter_squeeze of { victim_host : int; rate_kbps : int }
  | Transient of { attack : t; start : float; duration : float }

(** Cookie tagging attacker rules (used by the attacker itself to
    retract transient rules; invisible to RVaaS's reasoning, which
    never trusts cookies). *)
val cookie : int

(** [launch net addressing ~conn attack] issues the attack's Flow-Mods
    on the (compromised) controller connection [conn].  [Transient]
    schedules installation at [start] and retraction at
    [start +. duration] in absolute simulation time.

    @raise Invalid_argument when the attack references unknown hosts or
    no loop-free detour exists for [Divert]. *)
val launch : Netsim.Net.t -> Addressing.t -> conn:Netsim.Net.conn -> t -> unit

(** [describe attack] is a short human-readable label. *)
val describe : t -> string
