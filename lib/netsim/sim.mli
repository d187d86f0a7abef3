(** Discrete-event simulation engine.

    Events are closures ordered by (time, insertion order); execution
    is single-threaded and deterministic given the seed.  Time is in
    seconds. *)

type t

(** [create ~seed ()] returns a simulator at time 0. *)
val create : seed:int -> unit -> t

(** [now t] is the current simulation time. *)
val now : t -> float

(** [rng t] is the simulator's root random stream. *)
val rng : t -> Support.Rng.t

(** [schedule t ~delay f] runs [f] at [now t +. delay].
    @raise Invalid_argument when [delay < 0]. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** [schedule_at t ~time f] runs [f] at absolute [time] (clamped to
    [now] if in the past). *)
val schedule_at : t -> time:float -> (unit -> unit) -> unit

(** [run ?until t] executes events in order until the queue is empty or
    the next event is later than [until].  Returns the number of events
    executed. *)
val run : ?until:float -> t -> int

(** [every ?until t ~period f] runs [f] every [period] seconds (first
    tick one period from now) for as long as [f] returns [true] and
    [now] has not passed [until].  The periodic driver behind session
    heartbeats and failover watchdogs.
    @raise Invalid_argument when [period <= 0]. *)
val every : ?until:float -> t -> period:float -> (unit -> bool) -> unit

(** [pending t] is the number of queued events. *)
val pending : t -> int

(** [executed t] is the number of events executed so far. *)
val executed : t -> int
