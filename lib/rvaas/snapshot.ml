type view = {
  table : Ofproto.Flow_table.t;
  mutable meter_list : (int * Ofproto.Meter.band) list;
  mutable refreshed : float;
  mutable table_digest : int64 option;
      (* memoised flow-table fingerprint; [None] after any mutation *)
}

type t = {
  views : (int, view) Hashtbl.t;
  mutable global_digest : int64 option;
      (* memoised whole-snapshot fingerprint; [None] after any mutation *)
}

let create () = { views = Hashtbl.create 32; global_digest = None }

let view t sw =
  match Hashtbl.find_opt t.views sw with
  | Some v -> v
  | None ->
    let v =
      {
        table = Ofproto.Flow_table.create ();
        meter_list = [];
        refreshed = 0.0;
        table_digest = None;
      }
    in
    Hashtbl.replace t.views sw v;
    v

let apply_event t ~sw ~now event =
  let v = view t sw in
  v.refreshed <- now;
  v.table_digest <- None;
  t.global_digest <- None;
  match event with
  | Ofproto.Message.Flow_added spec | Ofproto.Message.Flow_modified spec ->
    Ofproto.Flow_table.add v.table spec ~now
  | Ofproto.Message.Flow_deleted spec ->
    ignore
      (Ofproto.Flow_table.delete v.table ~match_:spec.Ofproto.Flow_entry.match_
         ~priority:spec.Ofproto.Flow_entry.priority ())

let apply_flow_removed t ~sw ~now spec =
  apply_event t ~sw ~now (Ofproto.Message.Flow_deleted spec)

let rec same_specs (entries : Ofproto.Flow_entry.t list) specs =
  match entries, specs with
  | [], [] -> true
  | e :: entries, spec :: specs ->
    (e.spec == spec || e.spec = spec) && same_specs entries specs
  | [], _ :: _ | _ :: _, [] -> false

(* A reply that confirms the view, the common case on a quiet network,
   moves only the refresh time: the table, its entries and both digest
   memos stay as they are. *)
let replace_flows t ~sw ~now specs =
  let v = view t sw in
  v.refreshed <- now;
  if not (same_specs (Ofproto.Flow_table.entries v.table) specs) then begin
    v.table_digest <- None;
    t.global_digest <- None;
    Ofproto.Flow_table.replace v.table specs ~now
  end

let replace_meters t ~sw meters =
  let v = view t sw in
  v.meter_list <- meters

let flows t ~sw =
  match Hashtbl.find_opt t.views sw with
  | None -> []
  | Some v -> Ofproto.Flow_table.specs v.table

let meters t ~sw =
  match Hashtbl.find_opt t.views sw with None -> [] | Some v -> v.meter_list

let switches t =
  Hashtbl.fold (fun sw _ acc -> sw :: acc) t.views [] |> List.sort compare

let total_flows t =
  Hashtbl.fold (fun _ v acc -> acc + Ofproto.Flow_table.size v.table) t.views 0

let last_refresh t ~sw =
  match Hashtbl.find_opt t.views sw with None -> 0.0 | Some v -> v.refreshed

let age t ~now =
  Hashtbl.fold (fun _ v acc -> Float.max acc (now -. v.refreshed)) t.views 0.0

let flows_digest specs =
  Int64.of_int
    (List.fold_left Ofproto.Flow_entry.hash_into (Int64.to_int 0xCBF29CE484222325L) specs)

let switch_digest t ~sw =
  match Hashtbl.find_opt t.views sw with
  | None -> 0L
  | Some v -> (
    match v.table_digest with
    | Some d -> d
    | None ->
      let d = flows_digest (Ofproto.Flow_table.specs v.table) in
      v.table_digest <- Some d;
      d)

let digest_vector t =
  List.map (fun sw -> (sw, switch_digest t ~sw)) (switches t)

(* Composed from the memoised per-switch digests rather than
   re-fingerprinting every rule: the monitor computes this after every
   stats reply, and at internet scale a rule-by-rule rendering turns
   each poll sweep quadratic in the network size.  Switches with empty
   tables contribute nothing, so a view that merely exists (e.g. only
   meters were polled) leaves the digest unchanged, as before. *)
let digest t =
  match t.global_digest with
  | Some d -> d
  | None ->
    let lines =
      List.filter_map
        (fun sw ->
          match Hashtbl.find_opt t.views sw with
          | Some v when Ofproto.Flow_table.size v.table > 0 ->
            Some (Printf.sprintf "%d:%Lx" sw (switch_digest t ~sw))
          | Some _ | None -> None)
        (switches t)
    in
    let d = Cryptosim.Hash.digest (String.concat "\n" lines) in
    t.global_digest <- Some d;
    d

(* ---- binary persistence ----

   A checkpoint image for the durable journal: a restarted controller
   restores to the exact pre-crash digest vector.  Per-switch we store
   the believed flow specs (in table order), the meter list and the
   refresh time; digests are memos recomputed on demand, so preserving
   the specs preserves the digests. *)

let image_magic = "RVSS1"

let to_bytes t =
  let b = Buffer.create 1024 in
  Buffer.add_string b image_magic;
  let sws = switches t in
  Codec.Bin.w_int b (List.length sws);
  List.iter
    (fun sw ->
      let v = view t sw in
      Codec.Bin.w_int b sw;
      Codec.Bin.w_float b v.refreshed;
      Codec.Bin.w_list Codec.Bin.w_spec b (Ofproto.Flow_table.specs v.table);
      Codec.Bin.w_meters b v.meter_list)
    sws;
  Buffer.contents b

let of_bytes s =
  let n = String.length image_magic in
  if String.length s < n || not (String.equal (String.sub s 0 n) image_magic) then
    Error "Snapshot.of_bytes: bad magic"
  else
    try
      let r = Codec.Bin.reader (String.sub s n (String.length s - n)) in
      let t = create () in
      let count = Codec.Bin.r_int r in
      for _ = 1 to count do
        let sw = Codec.Bin.r_int r in
        let refreshed = Codec.Bin.r_float r in
        let specs = Codec.Bin.r_list Codec.Bin.r_spec r in
        let meters = Codec.Bin.r_meters r in
        replace_flows t ~sw ~now:refreshed specs;
        replace_meters t ~sw meters
      done;
      Ok t
    with Codec.Bin.Malformed msg -> Error ("Snapshot.of_bytes: " ^ msg)

(* Canonical matches compare structurally exactly when they are
   semantically equal, so sorting these projections compares the rule
   multisets under [Flow_entry.spec_equal]. *)
let multiset specs =
  List.sort compare
    (List.map
       (fun (s : Ofproto.Flow_entry.spec) ->
         (s.priority, s.cookie, s.meter, s.match_, s.actions))
       specs)

let divergence t ~actual =
  List.fold_left
    (fun acc sw ->
      if multiset (flows t ~sw) = multiset (actual sw) then acc else acc + 1)
    0 (switches t)
