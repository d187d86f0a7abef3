(** Data-plane packets. *)

type t = {
  header : Hspace.Header.t;
  payload : string;
  size_bytes : int;
  hops : int;  (** switches traversed so far; the simulator drops a
                   packet at {!max_hops} as a loop guard *)
}

(** Loop guard: packets are dropped after traversing this many
    switches. *)
val max_hops : int

(** [make ?size_bytes ~header payload] builds a fresh packet.  The
    default size is max(64, payload length + 42) — a minimal Ethernet
    frame plus headers. *)
val make : ?size_bytes:int -> header:Hspace.Header.t -> string -> t

(** [hop p ~header] advances the hop count and replaces the (possibly
    rewritten) header. *)
val hop : t -> header:Hspace.Header.t -> t
