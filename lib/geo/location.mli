(** Geographic locations and jurisdictions.

    The paper's geo-location case study (§IV-B.2) asks which
    jurisdictions a client's traffic can traverse.  A location is a
    point with a jurisdiction label; distances use the haversine
    formula on a spherical Earth. *)

type jurisdiction = string

type t = { lat : float; lon : float; jurisdiction : jurisdiction }

(** [make ~lat ~lon ~jurisdiction] builds a location.
    @raise Invalid_argument when coordinates are out of range. *)
val make : lat:float -> lon:float -> jurisdiction:jurisdiction -> t

(** [distance_km a b] is the great-circle distance. *)
val distance_km : t -> t -> float

(** [centroid locations] averages coordinates (jurisdiction taken from
    the nearest input location).  @raise Invalid_argument on empty. *)
val centroid : t list -> t

(** [random rng ~jurisdictions] draws a location uniformly over a
    continental-scale box with a random jurisdiction from the list. *)
val random : Support.Rng.t -> jurisdictions:jurisdiction list -> t
