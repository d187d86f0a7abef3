(** Meter table: token-bucket rate limiters referenced by flow entries.

    Meters are the configuration surface for the paper's fairness /
    network-neutrality queries: an attacker who throttles one client's
    traffic must install or modify a meter, which RVaaS observes in its
    configuration snapshot. *)

type band = { rate_kbps : int }

type t

val create : unit -> t

(** [set t ~id band] installs or replaces meter [id]. *)
val set : t -> id:int -> band -> unit

(** [remove t ~id] deletes meter [id]; returns whether it existed. *)
val remove : t -> id:int -> bool

(** [find t ~id] looks a meter up. *)
val find : t -> id:int -> band option

(** [to_list t] lists meters sorted by id. *)
val to_list : t -> (int * band) list

(** [allows t ~id ~now ~bytes] consumes tokens from meter [id]'s bucket
    and reports whether the packet passes; an unknown id always passes. *)
val allows : t -> id:int -> now:float -> bytes:int -> bool

(** [version t] increases on every configuration mutation. *)
val version : t -> int
