type entry = {
  gen : int;
  seq : int;
  at : float;
  tag : string;
  payload : string;
  checksum : int64;
}

(* The durable store ([Segment_store]) mirrors the in-memory log onto
   disk; replica tails ([Replica]) are sinks too, so several can be
   attached at once.  [on_append] sees every new entry, [on_sync] must
   not return until prior appends are durable, [on_roll] marks a
   segment boundary (the store seals its active segment; replicas
   ignore it), [on_compact] is told the chain base moved forward and
   drops whatever now lies wholly below it. *)
type sink = {
  on_append : entry -> unit;
  on_sync : unit -> unit;
  on_roll : unit -> unit;
  on_compact : unit -> unit;
}

type t = {
  mutable rev_entries : entry list;
  mutable count : int;
  mutable gen : int;
  mutable next_seq : int;
  mutable tail_checksum : int64; (* checksum of the last entry (chain state) *)
  (* Compaction base: the chain root under the oldest retained entry.
     A fresh journal has base_seq 0 / base_gen 1 / base_checksum
     fnv_offset; [compact] moves the base forward to the newest
     dropped entry so the retained suffix verifies unchanged. *)
  mutable base_seq : int;
  mutable base_gen : int;
  mutable base_checksum : int64;
  mutable sinks : sink list; (* notification order: oldest attach first *)
}

(* FNV-1a, 64 bit.  Self-contained: [support] sits below [cryptosim]
   in the dependency order, so the journal carries its own hash.  The
   chain makes each checksum depend on every prior entry, so torn
   writes, reordering and in-place tampering all surface as a break at
   the first bad entry. *)
let fnv_offset = 0xcbf29ce484222325L

let fnv_prime = 0x100000001b3L

let fnv_byte h b = Int64.mul (Int64.logxor h (Int64.of_int b)) fnv_prime

let fnv_string h s =
  let h = ref h in
  String.iter (fun c -> h := fnv_byte !h (Char.code c)) s;
  !h

let fnv_int64 h v =
  let h = ref h in
  for i = 0 to 7 do
    h := fnv_byte !h (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL))
  done;
  !h

let fnv_int h v = fnv_int64 h (Int64.of_int v)

let entry_checksum ~prev ~gen ~seq ~at ~tag ~payload =
  let h = fnv_int64 fnv_offset prev in
  let h = fnv_int h gen in
  let h = fnv_int h seq in
  let h = fnv_int64 h (Int64.bits_of_float at) in
  let h = fnv_string h tag in
  let h = fnv_int h (String.length payload) in
  fnv_string h payload

let create () =
  {
    rev_entries = [];
    count = 0;
    gen = 1;
    next_seq = 0;
    tail_checksum = fnv_offset;
    base_seq = 0;
    base_gen = 1;
    base_checksum = fnv_offset;
    sinks = [];
  }

let generation t = t.gen

let length t = t.count

let base_seq t = t.base_seq

let base_gen t = t.base_gen

let base_checksum t = t.base_checksum

let last_seq t = t.next_seq - 1

let last_at t = match t.rev_entries with [] -> None | e :: _ -> Some e.at

let attach t sink = t.sinks <- t.sinks @ [ sink ]

let detach_sink t sink = t.sinks <- List.filter (fun s -> s != sink) t.sinks

let sync t = List.iter (fun s -> s.on_sync ()) t.sinks

let roll t = List.iter (fun s -> s.on_roll ()) t.sinks

let append t ~at ~tag ~payload =
  let seq = t.next_seq in
  let checksum =
    entry_checksum ~prev:t.tail_checksum ~gen:t.gen ~seq ~at ~tag ~payload
  in
  let e = { gen = t.gen; seq; at; tag; payload; checksum } in
  t.next_seq <- seq + 1;
  t.tail_checksum <- checksum;
  t.rev_entries <- e :: t.rev_entries;
  t.count <- t.count + 1;
  List.iter (fun s -> s.on_append e) t.sinks;
  e

(* Replicate a primary-stamped entry verbatim into a follower log: the
   entry keeps its generation, sequence number and chained checksum.
   The chain must stay continuous — a gap means the follower lost
   frames and has to resync from the primary wholesale. *)
let ingest t (e : entry) =
  if e.seq <> t.next_seq then invalid_arg "Journal.ingest: sequence gap";
  t.gen <- max t.gen e.gen;
  t.next_seq <- e.seq + 1;
  t.tail_checksum <- e.checksum;
  t.rev_entries <- e :: t.rev_entries;
  t.count <- t.count + 1;
  List.iter (fun s -> s.on_append e) t.sinks

let generation_tag = "generation"

(* A generation bump is itself journalled so the log records every
   controller incarnation (audit trail for the takeover protocol). *)
let begin_generation t ~at =
  t.gen <- t.gen + 1;
  ignore (append t ~at ~tag:generation_tag ~payload:"");
  t.gen

let entries t = List.rev t.rev_entries

(* Newest matching entry, or None.  Scans newest-first so standbys can
   cheaply ask e.g. for the freshest non-claim record. *)
let find_newest t ~f = List.find_opt f t.rev_entries

(* Walk the log oldest-first, re-deriving the checksum chain from the
   compaction base; stop at the first entry whose checksum, sequence
   number or generation does not fit.  This gives torn-write
   semantics: a crash mid-append (or a tampered suffix) invalidates
   exactly the suffix, never the prefix. *)
let valid_prefix t =
  let rec go acc prev expected_seq min_gen = function
    | [] -> List.rev acc
    | (e : entry) :: rest ->
      let expect =
        entry_checksum ~prev ~gen:e.gen ~seq:e.seq ~at:e.at ~tag:e.tag ~payload:e.payload
      in
      if e.seq <> expected_seq || e.gen < min_gen || not (Int64.equal expect e.checksum)
      then List.rev acc
      else go (e :: acc) e.checksum (expected_seq + 1) e.gen rest
  in
  go [] t.base_checksum t.base_seq t.base_gen (entries t)

(* Drop every entry with [seq < upto_seq].  Only a prefix can go — the
   checksum chain is sequential — so the base moves to the newest
   dropped entry and the retained suffix (whose first link hashes over
   that entry's checksum) verifies unchanged.  Generation numbers and
   the audit trail of the retained entries are untouched.  Attached
   sinks are told through [on_compact]. *)
let compact t ~upto_seq =
  if upto_seq > t.base_seq then begin
    let kept, dropped =
      List.partition (fun (e : entry) -> e.seq >= upto_seq) t.rev_entries
    in
    match dropped with
    | [] -> ()
    | newest_dropped :: _ ->
      t.rev_entries <- kept;
      t.count <- List.length kept;
      t.base_seq <- newest_dropped.seq + 1;
      t.base_gen <- newest_dropped.gen;
      t.base_checksum <- newest_dropped.checksum;
      List.iter (fun s -> s.on_compact ()) t.sinks
  end

let verify t =
  let valid = valid_prefix t in
  List.length valid = t.count

(* ---- binary persistence ---- *)

let magic = "RVJL1"

(* Little-endian primitives shared by every on-disk format in
   [support]: the RVJL1 image here, segment headers and frames in
   [Segment_store]. *)
module Binary = struct
  exception Truncated

  let w_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

  let w_i64 b v =
    for i = 0 to 7 do
      w_u8 b (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL))
    done

  let w_int b v = w_i64 b (Int64.of_int v)

  let w_float b v = w_i64 b (Int64.bits_of_float v)

  let w_string b s =
    w_int b (String.length s);
    Buffer.add_string b s

  let r_u8 s pos =
    if !pos >= String.length s then raise Truncated;
    let v = Char.code s.[!pos] in
    incr pos;
    v

  let r_i64 s pos =
    let v = ref 0L in
    for i = 0 to 7 do
      v := Int64.logor !v (Int64.shift_left (Int64.of_int (r_u8 s pos)) (8 * i))
    done;
    !v

  let r_int s pos = Int64.to_int (r_i64 s pos)

  let r_float s pos = Int64.float_of_bits (r_i64 s pos)

  (* Compare against the bytes left, not [!pos + n]: a length near
     [max_int] would wrap that sum negative and pass. *)
  let r_string s pos =
    let n = r_int s pos in
    if n < 0 || n > String.length s - !pos then raise Truncated;
    let v = String.sub s !pos n in
    pos := !pos + n;
    v
end

open Binary

let w_entry b (e : entry) =
  w_int b e.gen;
  w_int b e.seq;
  w_float b e.at;
  w_string b e.tag;
  w_string b e.payload;
  w_i64 b e.checksum

let encode_entry e =
  let b = Buffer.create 64 in
  w_entry b e;
  Buffer.contents b

(* The header count is an upper bound for the decoder, not a promise:
   the segmented store writes [open_count] into active segments, whose
   frames are appended after the header was laid down (the loop just
   runs until the bytes run out). *)
let open_count = max_int

let encode t =
  let b = Buffer.create 1024 in
  Buffer.add_string b magic;
  w_int b t.base_seq;
  w_int b t.base_gen;
  w_i64 b t.base_checksum;
  w_int b t.count;
  List.iter (w_entry b) (entries t);
  Buffer.contents b

(* Decode keeps the checksum-valid prefix and silently drops any
   corrupt or truncated tail — the durable-log recovery contract. *)
let decode s =
  let n = String.length magic in
  if String.length s < n || not (String.equal (String.sub s 0 n) magic) then
    Error "Journal.decode: bad magic"
  else begin
    let pos = ref n in
    let t = create () in
    (try
       let base_seq = r_int s pos in
       let base_gen = r_int s pos in
       let base_checksum = r_i64 s pos in
       let count = r_int s pos in
       if base_seq < 0 || base_gen < 1 then raise Truncated;
       t.base_seq <- base_seq;
       t.base_gen <- base_gen;
       t.base_checksum <- base_checksum;
       t.next_seq <- base_seq;
       t.gen <- base_gen;
       t.tail_checksum <- base_checksum;
       let stop = ref false in
       let i = ref 0 in
       while (not !stop) && !i < count do
         let gen = r_int s pos in
         let seq = r_int s pos in
         let at = r_float s pos in
         let tag = r_string s pos in
         let payload = r_string s pos in
         let checksum = r_i64 s pos in
         let expect =
           entry_checksum ~prev:t.tail_checksum ~gen ~seq ~at ~tag ~payload
         in
         if seq <> t.next_seq || gen < t.gen || not (Int64.equal expect checksum) then
           stop := true
         else begin
           t.gen <- gen;
           ignore (append t ~at ~tag ~payload);
           incr i
         end
       done
     with Truncated -> ());
    Ok t
  end
