type band = { rate_kbps : int }

type bucket = {
  mutable band : band;
  mutable tokens : float; (* bytes *)
  mutable refreshed : float; (* sim time of last refill *)
}

type t = {
  meters : (int, bucket) Hashtbl.t;
  mutable version : int;
}

(* Burst allowance: one second at line rate. *)
let burst_bytes band = float_of_int band.rate_kbps *. 1000.0 /. 8.0

let create () = { meters = Hashtbl.create 8; version = 0 }

let set t ~id band =
  let bucket = { band; tokens = burst_bytes band; refreshed = 0.0 } in
  Hashtbl.replace t.meters id bucket;
  t.version <- t.version + 1

let remove t ~id =
  if Hashtbl.mem t.meters id then begin
    Hashtbl.remove t.meters id;
    t.version <- t.version + 1;
    true
  end
  else false

let find t ~id =
  Option.map (fun b -> b.band) (Hashtbl.find_opt t.meters id)

let to_list t =
  Hashtbl.fold (fun id b acc -> (id, b.band) :: acc) t.meters []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let allows t ~id ~now ~bytes =
  match Hashtbl.find_opt t.meters id with
  | None -> true
  | Some bucket ->
    let rate_bytes_per_s = float_of_int bucket.band.rate_kbps *. 1000.0 /. 8.0 in
    let elapsed = max 0.0 (now -. bucket.refreshed) in
    let cap = burst_bytes bucket.band in
    bucket.tokens <- Float.min cap (bucket.tokens +. (elapsed *. rate_bytes_per_s));
    bucket.refreshed <- now;
    let need = float_of_int bytes in
    if bucket.tokens >= need then begin
      bucket.tokens <- bucket.tokens -. need;
      true
    end
    else false

let version t = t.version
