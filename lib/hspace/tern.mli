(** Ternary bit-vectors — the atomic objects of Header Space Analysis.

    A ternary vector of width [w] assigns each of the [w] header bits a
    value in [{0, 1, *}] and denotes the set of concrete bit-vectors
    obtained by expanding each [*].  A position may also become the
    empty set [z] as a result of intersecting [0] with [1]; a vector
    with any [z] position denotes the empty set.

    The representation packs 31 header bits per OCaml [int], two
    encoding bits per header bit (01 = 0, 10 = 1, 11 = *, 00 = z), so
    intersection is word-wise [land] and subset is a word-wise
    comparison.  Values are immutable. *)

type t

type bit = Zero | One | Any | Empty

(** [all_x width] is the full space: every bit is [*]. *)
val all_x : int -> t

(** [none width] is the empty vector: every bit is [z].  It is the
    identity of {!join} and is used as the bounding cube of an empty
    header space. *)
val none : int -> t

(** [width t] is the number of header bits. *)
val width : t -> int

(** [get t i] reads bit [i] (0-based). *)
val get : t -> int -> bit

(** [set t i b] returns a copy of [t] with bit [i] set to [b]. *)
val set : t -> int -> bit -> t

(** [set_masked t ~base ~len ~value ~mask] returns a copy of [t] in
    which each bit [base + i] ([0 <= i < len]) whose mask bit [i] is 1
    holds bit [i] of [value]; the other bits are unchanged.  One array
    copy, rewritten word by word, where a fold of {!set} copies once
    per bit.  @raise Invalid_argument if the range leaves [t] or [len]
    exceeds [Sys.int_size]. *)
val set_masked : t -> base:int -> len:int -> value:int -> mask:int -> t

(** [is_empty t] is true when some position is [Empty], i.e. [t]
    denotes no concrete header. *)
val is_empty : t -> bool

(** [is_full t] is true when every position is [Any]. *)
val is_full : t -> bool

(** [is_concrete t] is true when every position is [Zero] or [One]. *)
val is_concrete : t -> bool

(** [inter a b] is the position-wise intersection.  The result may be
    empty. @raise Invalid_argument on width mismatch. *)
val inter : t -> t -> t

(** [subset a b] is true when every concrete header in [a] is in [b].
    Empty vectors are subsets of everything. *)
val subset : t -> t -> bool

(** [nonempty_subset a b] is [subset a b] for a non-empty [a], without
    the emptiness scan of [a]; it compares the last word first. *)
val nonempty_subset : t -> t -> bool

(** [overlaps a b] is true when [inter a b] is non-empty: [not
    (disjoint a b)], so it builds no vector. *)
val overlaps : t -> t -> bool

(** [disjoint a b] is [not (overlaps a b)] computed without allocating
    the intermediate vector, with an early exit on the first
    conflicting word — the hot-path form used by set bounding-cube
    checks and rule prefilters. *)
val disjoint : t -> t -> bool

(** [join a b] is the smallest cube containing both [a] and [b]
    (position-wise least upper bound; [z] is the bottom element).
    @raise Invalid_argument on width mismatch. *)
val join : t -> t -> t

(** [hash t] is a well-mixed structural hash: equal vectors hash
    equally.  Used for cube deduplication in the {!Hs} batch builder
    and for 64-bit reach-cache keys. *)
val hash : t -> int

(** A precomputed "required bits" view of a cube: only the words in
    which the cube fixes at least one bit, so disjointness against it
    is a handful of word operations.  [prefilter_disjoint pf c] is
    conservative: [true] guarantees [disjoint cube c]; [false] means
    the full algebra must decide (exact whenever [c] has no [z]
    positions). *)
type prefilter

val prefilter : t -> prefilter

val prefilter_disjoint : prefilter -> t -> bool

(** [equal a b] is structural equality (which coincides with set
    equality for non-empty vectors). *)
val equal : t -> t -> bool

(** [compare a b] is a total order compatible with [equal]. *)
val compare : t -> t -> int

(** [complement t] expresses the complement of [t] as a list of ternary
    vectors whose union is exactly the complement.  The complement of
    an empty vector is [\[all_x\]]; of the full space, [\[\]]. *)
val complement : t -> t list

(** [diff a b] expresses [a \ b] as a list of ternary vectors (possibly
    overlapping) whose union is exactly the set difference. *)
val diff : t -> t -> t list

(** [mem concrete t] is true when the concrete vector [concrete] (all
    bits 0/1) lies in [t]. @raise Invalid_argument if [concrete] is not
    concrete or widths differ. *)
val mem : t -> t -> bool

(** [count_fixed t] is the number of positions that are [Zero] or
    [One] — a size proxy used by benchmarks. *)
val count_fixed : t -> int

(** [random rng width ~fixed_prob] draws a random non-empty vector:
    each bit is fixed (to a fair 0/1) with probability [fixed_prob],
    otherwise [*]. *)
val random : Support.Rng.t -> int -> fixed_prob:float -> t

(** [random_concrete rng width] draws a uniform concrete vector. *)
val random_concrete : Support.Rng.t -> int -> t

(** [of_string s] parses a string of [0], [1], [x]/[*] and [z]
    characters, index 0 first. @raise Invalid_argument on others. *)
val of_string : string -> t

(** [to_string t] prints bit 0 first using [0], [1], [x], [z]. *)
val to_string : t -> string
