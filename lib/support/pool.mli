(** The visible core count.

    Every reach pass runs in the calling domain; nothing in the
    library spawns worker domains.  What is left here is the core
    count that benchmark harnesses print next to their numbers, so a
    timing can be read against the hardware that produced it. *)

(** [default_size ()] is [Domain.recommended_domain_count ()], at
    least 1. *)
val default_size : unit -> int
