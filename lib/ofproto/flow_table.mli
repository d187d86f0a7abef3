(** A priority-ordered flow table with OpenFlow add/modify/delete
    semantics.

    Lookup selects the highest-priority matching entry; among equal
    priorities the earliest-installed entry wins (deterministic model
    of the OpenFlow "overlapping entries" behaviour).  Every mutation
    bumps a version counter and is reported to registered observers —
    the hook used by flow-monitor events. *)

type t

type change =
  | Added of Flow_entry.spec
  | Removed of Flow_entry.spec * [ `Delete | `Hard_timeout ]
  | Modified of Flow_entry.spec  (** new spec after modification *)

(** [create ()] returns an empty table. *)
val create : unit -> t

(** [version t] increases on every mutation. *)
val version : t -> int

(** [on_change t f] registers an observer invoked synchronously after
    each mutation. *)
val on_change : t -> (change -> unit) -> unit

(** [add t spec ~now] installs a flow.  An existing entry with an
    identical priority and match predicate is replaced (OpenFlow
    overwrite semantics), reported as [Modified]. *)
val add : t -> Flow_entry.spec -> now:float -> unit

(** [delete t ~match_ ?priority ()] removes all entries whose match is
    a subset of [match_] (OpenFlow non-strict delete); when [priority]
    is given only entries of that exact priority are removed.  Returns
    the number removed. *)
val delete : t -> match_:Match_.t -> ?priority:int -> unit -> int

(** [delete_by_cookie t cookie] removes all entries carrying [cookie].
    Returns the number removed. *)
val delete_by_cookie : t -> int -> int

(** [expire t ~now] removes entries whose hard timeout has elapsed.
    Returns the expired specs. *)
val expire : t -> now:float -> Flow_entry.spec list

(** [lookup t ~in_port header] returns the winning entry, if any. *)
val lookup : t -> in_port:int -> Hspace.Header.t -> Flow_entry.t option

(** [entries t] lists installed entries in priority order (highest
    first, FIFO within a priority). *)
val entries : t -> Flow_entry.t list

(** [specs t] lists installed specs in the same order. *)
val specs : t -> Flow_entry.spec list

(** [size t] is the number of installed entries. *)
val size : t -> int

(** [replace t specs ~now] makes [t] hold exactly what {!add} of each
    spec in order would leave on an empty table, in one sort and one
    pass instead of one pass per spec.  Observers are not notified; the
    version bumps once. *)
val replace : t -> Flow_entry.spec list -> now:float -> unit
