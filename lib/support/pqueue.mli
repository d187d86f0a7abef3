(** Imperative binary min-heap priority queue keyed by float priority.

    Ties are broken by insertion order (FIFO), which gives the
    discrete-event simulator deterministic execution. *)

type 'a t

(** [create ()] returns an empty queue. *)
val create : unit -> 'a t

(** [is_empty q] is true when [q] holds no elements. *)
val is_empty : 'a t -> bool

(** [length q] is the number of queued elements. *)
val length : 'a t -> int

(** [push q priority v] inserts [v] with the given [priority]. *)
val push : 'a t -> float -> 'a -> unit

(** [pop q] removes and returns the minimum-priority element together
    with its priority.  Ties pop in insertion order. *)
val pop : 'a t -> (float * 'a) option

(** [peek q] returns the minimum element without removing it. *)
val peek : 'a t -> (float * 'a) option

