(** Header spaces: finite unions of ternary cubes.

    A header space denotes a set of concrete headers as the union of a
    list of {!Tern} cubes.  Unlike the original HSA library we use
    eager cube subtraction instead of lazy difference terms, so
    emptiness is syntactic ([cubes = \[\]]) and all operations return
    normalised values (no empty cubes, no cube subsumed by another). *)

type t

(** [empty width] denotes the empty set. *)
val empty : int -> t

(** [full width] denotes all headers of the given width. *)
val full : int -> t

(** [of_cube c] is the space denoted by a single cube (normalised). *)
val of_cube : Tern.t -> t

(** [of_cubes width cs] is the union of [cs]; cubes must have width
    [width]. *)
val of_cubes : int -> Tern.t list -> t

(** [of_cubes_ref width cs] is [of_cubes] computed with the original
    quadratic normaliser, kept as the oracle for differential tests of
    the batch builder.  Semantically equal to [of_cubes width cs]. *)
val of_cubes_ref : int -> Tern.t list -> t

(** Mutable batch builder: accumulate cubes from many sources, then
    normalise once.  [build b] is [of_cubes width cs] over everything
    added — one hash-dedup plus a single fixed-count-ordered
    subsumption sweep instead of a normalisation per union, which is
    how the query front-end pools the scopes of a whole batch of
    queries into one swept header space.  The sweep tests a cube only
    against kept cubes that fix fewer bits, the only ones that can
    contain it once duplicates are gone. *)
module Builder : sig
  type builder

  val create : int -> builder

  val add : builder -> Tern.t -> unit

  val build : builder -> t
end

(** [cubes t] returns the normalised cube list. *)
val cubes : t -> Tern.t list

(** [bound t] is the smallest single cube containing [t] (the
    {!Tern.join} of its cubes; all-[z] when empty).  Disjoint bounds
    prove disjoint spaces, which the set operations exploit as a fast
    path. *)
val bound : t -> Tern.t

(** [cube_count t] is the number of cubes in the representation — the
    size proxy for verification-cost experiments. *)
val cube_count : t -> int

(** [is_empty t] is true when [t] denotes no header. *)
val is_empty : t -> bool

(** [union a b] denotes set union. *)
val union : t -> t -> t

(** [inter a b] denotes set intersection. *)
val inter : t -> t -> t

(** [diff a b] denotes set difference [a \ b]. *)
val diff : t -> t -> t

(** [inter_cube t c] is [inter t (of_cube c)] without building the
    intermediate value. *)
val inter_cube : t -> Tern.t -> t

(** [diff_cube t c] is [diff t (of_cube c)] without building the
    intermediate value. *)
val diff_cube : t -> Tern.t -> t

(** [complement t] denotes the complement within the full space. *)
val complement : t -> t

(** [mem concrete t] is true when concrete vector [concrete] is in [t]. *)
val mem : Tern.t -> t -> bool

(** [subset a b] is true when [a] denotes a subset of [b].  Cheap on
    normalised ({!Builder}) output: non-containing bounding cubes
    reject without a diff, a single cube of [b] covering [a]'s bound
    accepts without one, and only cubes of [a] no single cube of [b]
    subsumes pay the cube-by-cube subtraction. *)
val subset : t -> t -> bool

(** [equal a b] is semantic equality (mutual subset). *)
val equal : t -> t -> bool

(** [overlaps a b] is true when the intersection is non-empty.  It
    builds no intersection: disjoint bounding cubes reject, and
    otherwise the first pair of cubes that are not {!Tern.disjoint}
    accepts. *)
val overlaps : t -> t -> bool

(** [hash t] is an order-independent structural hash of the normalised
    cube set, suitable as a compact reach-cache key component.
    Structurally equal sets hash equally; semantically equal sets with
    different normal forms may not. *)
val hash : t -> int

(** [sample rng t] draws some concrete header from [t], or [None] when
    empty.  Free bits are drawn uniformly. *)
val sample : Support.Rng.t -> t -> Tern.t option
