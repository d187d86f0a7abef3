(** Multi-provider federation (paper §IV-C.a).

    "While we have described our architecture for a single-provider
    setting, in principle, our approach can also be used across multiple
    providers.  In this case, queries need to be propagated between the
    RVaaS servers of the respective providers.  Clearly, the trust
    assumptions then need to be extended accordingly, to those servers
    as well."

    A federation partitions the switches of an internetwork into
    domains, each with its own configuration view (its provider's RVaaS
    instance only monitors its own switches) and its own signing key.
    A federated query starts in the client's home domain; whenever the
    local reachability analysis shows traffic leaving through a peering
    link, a signed sub-query is sent to the neighbouring domain's
    server, which answers with a signed sub-answer — recursively, until
    no new handoffs appear.  Sub-answers from domains whose key is not
    in the trust store are rejected and surfaced as
    [untrusted_domains]. *)

type domain = {
  name : string;
  member : int -> bool;  (** which switches belong to this domain *)
  flows_of : int -> Ofproto.Flow_entry.spec list;
      (** this domain's configuration view (e.g. its monitor snapshot) *)
  geo : Geo.Registry.t;  (** this domain's location registry *)
  keypair : Cryptosim.Keys.keypair;  (** signs its sub-answers *)
}

type t

(** [create topo domains] builds a federation over a shared
    internetwork wiring plan.  Every switch must belong to exactly one
    domain.  Each domain answers its sub-queries with a
    {!Verifier.reach_in} pass bounded to its members, on a verification
    context of its own built per {!reach} call, so every question reads
    the domains' current configuration views.
    @raise Invalid_argument otherwise. *)
val create : Netsim.Topology.t -> domain list -> t

(** [trust t ~of_domain ~peer ~public] records that [of_domain]'s
    servers accept sub-answers from [peer] signed by [public].  By
    default each domain trusts every other domain in [create]'s list;
    use {!distrust} to remove one. *)
val trust : t -> of_domain:string -> peer:string -> public:Cryptosim.Keys.public -> unit

(** [distrust t ~of_domain ~peer] removes [peer]'s key from
    [of_domain]'s trust store. *)
val distrust : t -> of_domain:string -> peer:string -> unit

type result = {
  endpoints : (Verifier.endpoint * Hspace.Hs.t) list;
      (** global endpoint set, merged across domains *)
  jurisdictions : string list;
      (** union of jurisdictions traversed in every answering domain *)
  domains_traversed : string list;
  sub_queries : int;  (** inter-provider sub-queries issued *)
  untrusted_domains : string list;
      (** domains whose (signed) sub-answers failed verification and
          were discarded *)
}

(** [reach t ~start_domain ~src_sw ~src_port ~hs] runs the federated
    reachability query.  Sub-queries are evaluated one at a time, in
    the order their handoffs were found; each peer's sub-answer is
    signature-checked before it is merged.
    @raise Invalid_argument when [start_domain] is unknown or [src_sw]
    is not one of its members. *)
val reach :
  t ->
  start_domain:string ->
  src_sw:int ->
  src_port:int ->
  hs:Hspace.Hs.t ->
  result

(** [domain_of t ~sw] names the domain owning [sw]. *)
val domain_of : t -> sw:int -> string option
