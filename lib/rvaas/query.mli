(** Client queries and service answers (the paper's flexible query
    interface, §IV-A).

    A query is evaluated against the client's own access point (the
    "request point" the message arrived on), optionally restricted to a
    header-space scope.  Answers expose endpoint sets, jurisdiction
    sets, hop counts and meter configurations — but never internal
    paths, preserving the provider's autonomy. *)

type kind =
  | Reachable_endpoints
      (** which destinations can traffic leaving my network card reach? *)
  | Sources_reaching_me
      (** for which sources exist routing paths that reach my card? *)
  | Isolation
      (** which access points can enter my isolation domain? (superset
          of [Sources_reaching_me]: includes data-plane auth testing of
          every such point) *)
  | Geo  (** which jurisdictions can my traffic traverse? *)
  | Path_length of { dst_ip : int }
      (** how long are my paths to [dst_ip], and are they optimal? *)
  | Fairness
      (** which rate limits (meters) apply to my traffic? *)
  | Transfer_summary
      (** a compact representation of the transfer function of my
          routing service: for each reachable endpoint, the header
          space arriving there (paper §IV-A) *)

type t = { kind : kind; scope : Hspace.Hs.t option }

(** One access point in an answer.  [ip]/[client] are filled from
    authenticated replies; an unauthenticated endpoint is one that was
    probed but never (verifiably) answered. *)
type endpoint_report = {
  sw : int;
  port : int;
  ip : int option;
  authenticated : bool;
  client : int option;
}

type answer = {
  nonce : string;
  kind : kind;
  endpoints : endpoint_report list;
  total_auth_requests : int;
      (** the counting defence: lets the client detect suppressed
          endpoints (paper §IV-B.1) *)
  auth_replies : int;
  auth_attempts : int;
      (** auth-request transmissions for this query, retransmissions
          included — the message overhead of the lossy-channel retry
          layer ([= total_auth_requests] when nothing was retried) *)
  degraded : bool;
      (** the reply quorum was incomplete when the service finalized:
          some probed endpoint never (verifiably) answered within the
          retry budget.  The answer is still sound but may understate
          authenticated endpoints — clients should re-query rather than
          treat it as a clean verdict. *)
  jurisdictions : string list;
  path_hops : (int * int) option;  (** (observed hops, optimal hops) *)
  meters : (int * int) list;  (** (meter id, rate kbps) *)
  transfer : (int * int * Hspace.Hs.t) list;
      (** per (switch, port) endpoint: the headers arriving there — the
          compact transfer-function representation *)
  snapshot_age : float;  (** seconds since the config view was refreshed *)
  throttled : bool;
      (** the service's admission control rejected the query before
          evaluation (the requesting client exceeded its token-bucket
          budget): every result field is empty and the client should
          back off and re-ask.  Still signed — a throttle verdict must
          be as unforgeable as an answer. *)
}

(** [make ?scope kind] builds a query. *)
val make : ?scope:Hspace.Hs.t -> kind -> t

(** [kind_to_string k] / [kind_of_string s]: stable wire names. *)
val kind_to_string : kind -> string

val kind_of_string : string -> kind option

val pp_answer : Format.formatter -> answer -> unit
