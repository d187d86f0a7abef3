type query_open = {
  q_nonce : string;
  q_client : int;
  q_sw : int;
  q_port : int;
  q_ip : int option;
  q_query : Query.t;
}

type record =
  | Observation of { sw : int; event : Ofproto.Message.monitor_event }
  | Flows_polled of { sw : int; flows : Ofproto.Flow_entry.spec list }
  | Meters_polled of { sw : int; meters : (int * Ofproto.Meter.band) list }
  | Checkpoint of string
  | Query_opened of query_open
  | Query_closed of { nonce : string }
  | Heartbeat
  | Takeover of { gen : int }
  | Claim of { sid : int }

let obs_tag = "obs"

let poll_tag = "poll"

let meters_tag = "meters"

let ckpt_tag = "ckpt"

let qopen_tag = "qopen"

let qclose_tag = "qclose"

let hb_tag = "hb"

let claim_tag = "claim"

type t = {
  log : Support.Journal.t;
  checkpoint_every : int;
  auto_compact : bool;
  mutable since_checkpoint : int;
}

let create ?(checkpoint_every = 64) ?(auto_compact = false) () =
  if checkpoint_every < 1 then invalid_arg "Journal.create: checkpoint_every must be >= 1";
  {
    log = Support.Journal.create ();
    checkpoint_every;
    auto_compact;
    since_checkpoint = 0;
  }

let of_log ?(checkpoint_every = 64) ?(auto_compact = false) log =
  if checkpoint_every < 1 then invalid_arg "Journal.of_log: checkpoint_every must be >= 1";
  { log; checkpoint_every; auto_compact; since_checkpoint = 0 }

let log t = t.log

(* ---- payload (de)serialization ---- *)

let encode_record = function
  | Observation { sw; event } ->
    let b = Buffer.create 64 in
    Codec.Bin.w_int b sw;
    Codec.Bin.w_event b event;
    (obs_tag, Buffer.contents b)
  | Flows_polled { sw; flows } ->
    let b = Buffer.create 256 in
    Codec.Bin.w_int b sw;
    Codec.Bin.w_list Codec.Bin.w_spec b flows;
    (poll_tag, Buffer.contents b)
  | Meters_polled { sw; meters } ->
    let b = Buffer.create 64 in
    Codec.Bin.w_int b sw;
    Codec.Bin.w_meters b meters;
    (meters_tag, Buffer.contents b)
  | Checkpoint image -> (ckpt_tag, image)
  | Query_opened q ->
    let b = Buffer.create 128 in
    Codec.Bin.w_string b q.q_nonce;
    Codec.Bin.w_int b q.q_client;
    Codec.Bin.w_int b q.q_sw;
    Codec.Bin.w_int b q.q_port;
    Codec.Bin.w_opt Codec.Bin.w_int b q.q_ip;
    Codec.Bin.w_string b (Codec.query_to_string q.q_query);
    (qopen_tag, Buffer.contents b)
  | Query_closed { nonce } -> (qclose_tag, nonce)
  | Heartbeat -> (hb_tag, "")
  | Claim { sid } ->
    let b = Buffer.create 8 in
    Codec.Bin.w_int b sid;
    (claim_tag, Buffer.contents b)
  | Takeover _ -> invalid_arg "Journal: Takeover entries are written by begin_generation"

let decode_entry (e : Support.Journal.entry) =
  try
    if String.equal e.tag Support.Journal.generation_tag then Ok (Takeover { gen = e.gen })
    else if String.equal e.tag obs_tag then begin
      let r = Codec.Bin.reader e.payload in
      let sw = Codec.Bin.r_int r in
      let event = Codec.Bin.r_event r in
      Ok (Observation { sw; event })
    end
    else if String.equal e.tag poll_tag then begin
      let r = Codec.Bin.reader e.payload in
      let sw = Codec.Bin.r_int r in
      let flows = Codec.Bin.r_list Codec.Bin.r_spec r in
      Ok (Flows_polled { sw; flows })
    end
    else if String.equal e.tag meters_tag then begin
      let r = Codec.Bin.reader e.payload in
      let sw = Codec.Bin.r_int r in
      let meters = Codec.Bin.r_meters r in
      Ok (Meters_polled { sw; meters })
    end
    else if String.equal e.tag ckpt_tag then Ok (Checkpoint e.payload)
    else if String.equal e.tag qopen_tag then begin
      let r = Codec.Bin.reader e.payload in
      let q_nonce = Codec.Bin.r_string r in
      let q_client = Codec.Bin.r_int r in
      let q_sw = Codec.Bin.r_int r in
      let q_port = Codec.Bin.r_int r in
      let q_ip = Codec.Bin.r_opt Codec.Bin.r_int r in
      match Codec.query_of_string (Codec.Bin.r_string r) with
      | Error msg -> Error msg
      | Ok q_query -> Ok (Query_opened { q_nonce; q_client; q_sw; q_port; q_ip; q_query })
    end
    else if String.equal e.tag qclose_tag then Ok (Query_closed { nonce = e.payload })
    else if String.equal e.tag hb_tag then Ok Heartbeat
    else if String.equal e.tag claim_tag then begin
      let r = Codec.Bin.reader e.payload in
      Ok (Claim { sid = Codec.Bin.r_int r })
    end
    else Error ("Journal: unknown tag " ^ e.tag)
  with Codec.Bin.Malformed msg -> Error ("Journal: malformed payload: " ^ msg)

(* ---- appending ---- *)

let append_record t ~at record =
  let tag, payload = encode_record record in
  ignore (Support.Journal.append t.log ~at ~tag ~payload)

(* Checkpoint records are the durability boundary: the segmented
   store fsyncs here, so everything up to (and including) the image survives
   power loss, and anything after it is at worst a torn tail. *)
let append_checkpoint t ~at ~image =
  append_record t ~at (Checkpoint image);
  t.since_checkpoint <- 0;
  Support.Journal.sync t.log

(* ---- recovery ---- *)

type recovery = {
  snapshot : Snapshot.t;
  open_queries : query_open list;
  replayed : int;
  generation : int;
  last_at : float option;
}

(* Replay strategy: find the last decodable checkpoint in the valid
   prefix, restore it, then fold every later snapshot-mutating record
   on top.  Query open/close records are folded over the whole prefix
   (a checkpoint images the snapshot, not the pending-query set). *)
let recover log =
  let valid = Support.Journal.valid_prefix log in
  let last_ckpt =
    List.fold_left
      (fun acc (e : Support.Journal.entry) ->
        if String.equal e.tag ckpt_tag then
          match Snapshot.of_bytes e.payload with
          | Ok snap -> Some (e.seq, snap)
          | Error _ -> acc
        else acc)
      None valid
  in
  let snapshot, from_seq =
    match last_ckpt with
    | Some (seq, snap) -> (snap, seq)
    | None -> (Snapshot.create (), -1)
  in
  let open_tbl : (string, query_open) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let replayed = ref 0 in
  let generation = ref 1 in
  List.iter
    (fun (e : Support.Journal.entry) ->
      generation := max !generation e.gen;
      match decode_entry e with
      | Error _ -> () (* an undecodable-but-checksummed record is skipped *)
      | Ok record -> (
        match record with
        | Query_opened q ->
          Hashtbl.replace open_tbl q.q_nonce q;
          order := q.q_nonce :: !order
        | Query_closed { nonce } -> Hashtbl.remove open_tbl nonce
        | Observation { sw; event } ->
          if e.seq > from_seq then begin
            Snapshot.apply_event snapshot ~sw ~now:e.at event;
            incr replayed
          end
        | Flows_polled { sw; flows } ->
          if e.seq > from_seq then begin
            Snapshot.replace_flows snapshot ~sw ~now:e.at flows;
            incr replayed
          end
        | Meters_polled { sw; meters } ->
          if e.seq > from_seq then begin
            Snapshot.replace_meters snapshot ~sw meters;
            incr replayed
          end
        | Checkpoint _ | Heartbeat | Takeover _ | Claim _ -> ()))
    valid;
  let open_queries =
    List.rev !order
    |> List.filter_map (fun nonce ->
           match Hashtbl.find_opt open_tbl nonce with
           | Some q ->
             Hashtbl.remove open_tbl nonce (* emit each nonce once *)
             |> fun () -> Some q
           | None -> None)
  in
  {
    snapshot;
    open_queries;
    replayed = !replayed;
    generation = !generation;
    last_at = Support.Journal.last_at log;
  }

(* ---- compaction ---- *)

(* Equivalence-preserving by construction: recover the journal's own
   view of the world, re-append every still-open query (in original
   order — recovery folds opens over the whole prefix, so they must
   survive the cut), image the recovered snapshot, and only then drop
   everything before the re-appended block.  [recover (compact j)]
   therefore returns the same snapshot, digest vector and open-query
   list as [recover j]. *)
let compact t ~at =
  let log = t.log in
  if Support.Journal.length log > 0 then begin
    let r = recover log in
    let cut = Support.Journal.last_seq log + 1 in
    (* Roll segmented backends first: the re-appended block then lands
       in a fresh active segment whose base is exactly the cut, so the
       subsequent [compact] drops whole sealed segments without
       rewriting a single retained byte. *)
    Support.Journal.roll log;
    List.iter (fun q -> append_record t ~at (Query_opened q)) r.open_queries;
    append_checkpoint t ~at ~image:(Snapshot.to_bytes r.snapshot);
    Support.Journal.compact log ~upto_seq:cut
  end

(* With [auto_compact], the journal self-bounds: as soon as it holds
   two checkpoint cadences' worth of entries it folds down to the
   open-query block + one fresh image. *)
let maybe_compact t ~at =
  if t.auto_compact && Support.Journal.length t.log >= 2 * t.checkpoint_every then
    compact t ~at

(* State-changing records count toward the checkpoint cadence; after
   [checkpoint_every] of them the caller-supplied snapshot is imaged
   into the log, bounding replay length (and the damage of a torn
   tail) without the cost of imaging on every event. *)
let append t ~at ~snapshot record =
  append_record t ~at record;
  (match record with
  | Observation _ | Flows_polled _ | Meters_polled _ ->
    t.since_checkpoint <- t.since_checkpoint + 1
  | Checkpoint _ ->
    t.since_checkpoint <- 0;
    Support.Journal.sync t.log
  | Query_opened _ | Query_closed _ | Heartbeat | Takeover _ | Claim _ -> ());
  if t.since_checkpoint >= t.checkpoint_every then
    append_checkpoint t ~at ~image:(Snapshot.to_bytes snapshot);
  maybe_compact t ~at

let checkpoint t ~at ~snapshot =
  append_checkpoint t ~at ~image:(Snapshot.to_bytes snapshot)

let heartbeat t ~at =
  append_record t ~at Heartbeat;
  maybe_compact t ~at

let claim t ~at ~sid = append_record t ~at (Claim { sid })
