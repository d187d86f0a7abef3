(** Flow entries: the unit of data-plane configuration.

    A [spec] is the immutable description a controller sends in a
    Flow-Mod; an installed entry additionally carries mutable counters
    maintained by the switch. *)

type spec = {
  priority : int;
  match_ : Match_.t;
  actions : Action.t list;
  cookie : int;  (** opaque controller tag, used for deletion *)
  meter : int option;  (** optional meter id for rate limiting *)
  hard_timeout : float option;  (** seconds until unconditional removal *)
}

type t = {
  spec : spec;
  installed_at : float;
  mutable packets : int;
  mutable bytes : int;
}

(** [spec ?cookie ?meter ?hard_timeout ~priority match_ actions]
    builds a specification.  [cookie] defaults to 0. *)
val make_spec :
  ?cookie:int ->
  ?meter:int ->
  ?hard_timeout:float ->
  priority:int ->
  Match_.t ->
  Action.t list ->
  spec

(** [install spec ~now] creates an installed entry with zero counters. *)
val install : spec -> now:float -> t

(** [spec_equal a b] compares priority, match semantics, actions,
    cookie and meter (timeouts excluded: they do not affect forwarding). *)
val spec_equal : spec -> spec -> bool

(** [hash_into h s] mixes the fields {!spec_equal} compares into the
    running word hash [h] (FNV-1a over whole words).  Specs equal under
    {!spec_equal} mix identically, so folding it over a rule list gives
    an order-sensitive fingerprint of that list. *)
val hash_into : int -> spec -> int

(** [account t ~bytes] bumps the counters for one matched packet. *)
val account : t -> bytes:int -> unit

val pp_spec : Format.formatter -> spec -> unit
