type jurisdiction = string

type t = { lat : float; lon : float; jurisdiction : jurisdiction }

let make ~lat ~lon ~jurisdiction =
  if lat < -90.0 || lat > 90.0 then invalid_arg "Location.make: latitude out of range";
  if lon < -180.0 || lon > 180.0 then invalid_arg "Location.make: longitude out of range";
  { lat; lon; jurisdiction }

let earth_radius_km = 6371.0

let to_radians deg = deg *. Float.pi /. 180.0

let distance_km a b =
  let dlat = to_radians (b.lat -. a.lat) and dlon = to_radians (b.lon -. a.lon) in
  let h =
    (sin (dlat /. 2.0) ** 2.0)
    +. (cos (to_radians a.lat) *. cos (to_radians b.lat) *. (sin (dlon /. 2.0) ** 2.0))
  in
  2.0 *. earth_radius_km *. asin (Float.min 1.0 (sqrt h))

let centroid locations =
  match locations with
  | [] -> invalid_arg "Location.centroid: empty list"
  | _ ->
    let n = float_of_int (List.length locations) in
    let lat = List.fold_left (fun acc l -> acc +. l.lat) 0.0 locations /. n in
    let lon = List.fold_left (fun acc l -> acc +. l.lon) 0.0 locations /. n in
    let center = { lat; lon; jurisdiction = "" } in
    let nearest =
      List.fold_left
        (fun best l ->
          match best with
          | None -> Some l
          | Some b -> if distance_km center l < distance_km center b then Some l else best)
        None locations
    in
    (match nearest with
    | Some l -> { lat; lon; jurisdiction = l.jurisdiction }
    | None -> assert false)

let random rng ~jurisdictions =
  let lat = Support.Rng.float rng 50.0 +. 20.0 in
  let lon = Support.Rng.float rng 80.0 -. 40.0 in
  let jurisdiction =
    match jurisdictions with
    | [] -> "unknown"
    | _ -> Support.Rng.pick rng jurisdictions
  in
  { lat; lon; jurisdiction }
