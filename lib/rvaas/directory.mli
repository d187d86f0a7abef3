(** Client directory: what RVaaS knows about registered clients.

    Populated out of band at subscription time (the paper assumes each
    client registers keys and its legitimate access points with the
    service).  The directory is the reference against which isolation
    answers are interpreted: an access point that can reach a client
    but does not belong to it is a violation. *)

type client_record = {
  client : int;
  name : string;
  key : Cryptosim.Hmac.key;
  hosts : (int * int) list;  (** (host id, host IPv4) *)
  subnet : (int * int) option;  (** (prefix value, prefix length) *)
}

type t

val create : unit -> t

(** [register t record] adds or replaces a client record. *)
val register : t -> client_record -> unit

(** [find t ~client] looks a record up. *)
val find : t -> client:int -> client_record option

(** [key t ~client] is the client's HMAC key, if registered. *)
val key : t -> client:int -> Cryptosim.Hmac.key option

(** [clients t] lists registered client ids, ascending. *)
val clients : t -> int list

(** [host_ip t ~host] resolves a registered host's address. *)
val host_ip : t -> host:int -> int option

(** [client_of_host t ~host] is the owning client of a registered
    host. *)
val client_of_host : t -> host:int -> int option
