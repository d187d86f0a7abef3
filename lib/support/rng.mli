(** Deterministic, splittable pseudo-random number generator.

    All randomness in the repository flows through this module so that
    simulations, workload generation and property tests are reproducible
    from a single integer seed.  The generator is SplitMix64, which has
    good statistical quality for simulation purposes and supports cheap
    splitting into independent streams. *)

type t

(** [create seed] returns a fresh generator determined by [seed]. *)
val create : int -> t

(** [split t] returns a new generator whose stream is independent of
    subsequent draws from [t]. *)
val split : t -> t

(** [bits t] returns 62 uniformly distributed bits as a non-negative int. *)
val bits : t -> int

(** [int t bound] returns a uniform integer in [\[0, bound)].  [bound]
    must be positive. *)
val int : t -> int -> int

(** [int_range t lo hi] returns a uniform integer in [\[lo, hi\]]. *)
val int_range : t -> int -> int -> int

(** [float t bound] returns a uniform float in [\[0, bound)]. *)
val float : t -> float -> float

(** [bool t] returns a fair coin flip. *)
val bool : t -> bool

(** [bernoulli t p] returns [true] with probability [p]. *)
val bernoulli : t -> float -> bool

(** [exponential t ~mean] samples an exponential variate. *)
val exponential : t -> mean:float -> float

(** [pick t xs] returns a uniformly chosen element of [xs].
    @raise Invalid_argument if [xs] is empty. *)
val pick : t -> 'a list -> 'a

(** [pick_array t a] returns a uniformly chosen element of [a].
    @raise Invalid_argument if [a] is empty. *)
val pick_array : t -> 'a array -> 'a

(** [shuffle t xs] returns a uniformly shuffled copy of [xs]. *)
val shuffle : t -> 'a list -> 'a list

(** [sample t k xs] returns [k] distinct elements of [xs] chosen
    uniformly (all of [xs] if it has fewer than [k] elements). *)
val sample : t -> int -> 'a list -> 'a list
