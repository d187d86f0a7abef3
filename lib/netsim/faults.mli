(** Channel fault model: loss, extra delay, jitter, duplication.

    One [t] describes the fault behaviour of a channel — a controller
    connection (both directions) or a data-plane link.  {!Net} draws
    from its seeded fault stream each time a message crosses a faulty
    channel, so runs are deterministic given the simulation seed.

    This is the substrate of the lossy-channel robustness work: the
    RVaaS protocol layers (service retransmission, client re-request,
    monitor poll-retry) are exercised against it, experiment E14
    sweeps its loss probability. *)

type t = {
  loss_prob : float;  (** drop each message independently *)
  extra_delay : float;  (** fixed additional one-way delay, seconds *)
  jitter : float;  (** uniform random extra delay in [0, jitter) *)
  dup_prob : float;  (** deliver a second, independently delayed copy *)
}

(** No faults: deliver exactly once with no extra delay. *)
val none : t

(** [make ()] builds a config; all knobs default to 0.
    @raise Invalid_argument on probabilities outside [0, 1] or negative
    delays. *)
val make :
  ?loss_prob:float -> ?extra_delay:float -> ?jitter:float -> ?dup_prob:float -> unit -> t

(** [loss p] is shorthand for [make ~loss_prob:p ()]. *)
val loss : ?extra_delay:float -> float -> t

(** [is_none f] — no fault is configured; the channel is ideal. *)
val is_none : t -> bool

(** [plan f rng] draws one message's fate: the list of extra one-way
    delays of the copies to deliver.  [[]] means the message is lost;
    [[d]] a single delivery delayed by [d]; [[d1; d2]] a duplicated
    delivery.  [plan none] consumes no randomness. *)
val plan : t -> Support.Rng.t -> float list
