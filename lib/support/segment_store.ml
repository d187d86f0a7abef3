(* Segmented journal store: the journal's on-disk backend, its RVJL1
   frames split into sealed segments plus one active segment.

   Layout: a directory holding [seg-NNNNNN.rvsg] (sealed, immutable)
   and at most one [seg-NNNNNN.act] (active).  Each segment carries
   its own chain base (the checksum root under its first entry), so
   recovery concatenates segments oldest-first and re-derives one
   continuous chain; a torn tail in the active segment costs only the
   torn frame, as in any RVJL1 image.

   Sealing: when the active segment crosses the size threshold (or the
   typed layer rolls it at a compaction boundary), its header is
   finalized — exact frame count, span checksum (the chain state after
   its last entry), sealed flag — fsynced, and the file is renamed to
   its immutable name.  A sealed segment is never written again, which
   is what lets compaction drop whole files: [on_compact] unlinks the
   sealed segments wholly below the new chain base, oldest first, and
   touches no retained byte.

   Encryption-at-rest: with a [crypt] installed, every frame payload
   is wrapped by an authenticated stream cipher (per-segment nonce,
   per-frame MAC) before it reaches disk — the plaintext image never
   does.  Frame boundaries stay recoverable because the length prefix
   delimits the ciphertext and any corruption of prefix or payload is
   caught by the frame MAC: recovery stops at the first unverifiable
   frame, the same torn-tail contract as plaintext.

   Error containment: a write/fsync failure marks the store degraded
   and is swallowed — the in-memory journal stays authoritative, and
   the disk keeps a stale but still-recoverable prefix. *)

type crypt = {
  wrap : nonce:string -> index:int -> string -> string;
  unwrap : nonce:string -> index:int -> string -> string option;
  fresh_nonce : seg:int -> string;
}

type config = {
  segment_bytes : int;
  crypt : crypt option;
}

let default_config = { segment_bytes = 64 * 1024; crypt = None }

open Journal.Binary

let i64_bytes v =
  let b = Buffer.create 8 in
  w_i64 b v;
  Buffer.contents b

let int_bytes v = i64_bytes (Int64.of_int v)

(* ---- segment format ---- *)

let magic = "RVSG1"

let flag_encrypted = 0x01

let flag_sealed = 0x02

let flags_offset = String.length magic

(* Header: magic, flags byte, then seg index / chain base / nonce /
   count / span checksum.  [count] is open-ended while active and
   patched exact at seal; [span] is 0 while active and patched to the
   chain state after the segment's last entry. *)
let encode_header ~encrypted ~index ~base_seq ~base_gen ~base_checksum ~nonce =
  let b = Buffer.create 64 in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr (if encrypted then flag_encrypted else 0));
  w_int b index;
  w_int b base_seq;
  w_int b base_gen;
  w_i64 b base_checksum;
  w_int b (String.length nonce);
  Buffer.add_string b nonce;
  let count_offset = Buffer.length b in
  w_int b Journal.open_count;
  w_i64 b 0L;
  (Buffer.contents b, count_offset)

type header = {
  h_encrypted : bool;
  h_sealed : bool;
  h_index : int;
  h_base_seq : int;
  h_base_gen : int;
  h_base_checksum : int64;
  h_nonce : string;
  h_count : int;
  h_span : int64;
  h_frames_at : int; (* byte offset of the first frame *)
}

let decode_header s =
  let n = String.length magic in
  if String.length s < n || not (String.equal (String.sub s 0 n) magic) then
    Error "Segment_store: bad segment magic"
  else begin
    let pos = ref n in
    try
      let flags = r_u8 s pos in
      let h_index = r_int s pos in
      let h_base_seq = r_int s pos in
      let h_base_gen = r_int s pos in
      let h_base_checksum = r_i64 s pos in
      let h_nonce = r_string s pos in
      let h_count = r_int s pos in
      let h_span = r_i64 s pos in
      if h_base_seq < 0 || h_base_gen < 1 then raise Truncated;
      Ok
        {
          h_encrypted = flags land flag_encrypted <> 0;
          h_sealed = flags land flag_sealed <> 0;
          h_index;
          h_base_seq;
          h_base_gen;
          h_base_checksum;
          h_nonce;
          h_count;
          h_span;
          h_frames_at = !pos;
        }
    with Truncated -> Error "Segment_store: truncated segment header"
  end

(* ---- store state ---- *)

type active = {
  a_index : int;
  a_path : string;
  mutable a_oc : out_channel option;
  a_count_offset : int;
  a_nonce : string;
  mutable a_frames : int; (* frames written to this segment *)
  mutable a_bytes : int; (* bytes written (header + frames) *)
  mutable a_last_seq : int; (* seq of the segment's last frame *)
  mutable a_last_gen : int; (* generation of the segment's last frame *)
  mutable a_last_checksum : int64; (* chain state after the last frame *)
}

type sealed = {
  s_index : int;
  s_path : string;
  s_base_seq : int;
  s_end_seq : int; (* seq of the segment's last entry *)
  s_bytes : int;
}

type t = {
  dir : string;
  log : Journal.t;
  config : config;
  faults : Storefault.t option;
  mutable sealed : sealed list; (* oldest first *)
  mutable active : active option;
  mutable next_index : int;
  mutable written : int; (* bytes across all live files *)
  mutable synced : int;
  mutable dir_syncs : int;
  mutable seals : int;
  mutable sealed_deleted : int;
  mutable stale_temps_removed : int;
  mutable sink_errors : int;
  mutable degraded : bool;
  mutable sink : Journal.sink option;
}

let written_bytes t = t.written

let synced_bytes t = t.synced

let dir_syncs t = t.dir_syncs

let seals t = t.seals

let sealed_count t = List.length t.sealed

let sealed_deleted t = t.sealed_deleted

let stale_temps_removed t = t.stale_temps_removed

let sink_errors t = t.sink_errors

let degraded t = t.degraded

let sealed_name index = Printf.sprintf "seg-%06d.rvsg" index

let active_name index = Printf.sprintf "seg-%06d.act" index

let active_path t =
  match t.active with
  | Some a -> a.a_path
  | None -> invalid_arg "Segment_store: store is closed"

let sealed_paths t = List.map (fun s -> s.s_path) t.sealed

let fsync_channel oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let contain t f =
  if not t.degraded then
    try f ()
    with Sys_error _ | Unix.Unix_error _ ->
      t.sink_errors <- t.sink_errors + 1;
      t.degraded <- true

(* ---- segment lifecycle ---- *)

let encrypted t = t.config.crypt <> None

(* Open a fresh active segment whose chain base is the given point. *)
let start_segment t ~base_seq ~base_gen ~base_checksum =
  let index = t.next_index in
  t.next_index <- index + 1;
  let nonce =
    match t.config.crypt with Some c -> c.fresh_nonce ~seg:index | None -> ""
  in
  let header, a_count_offset =
    encode_header ~encrypted:(encrypted t) ~index ~base_seq ~base_gen
      ~base_checksum ~nonce
  in
  let path = Filename.concat t.dir (active_name index) in
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 path in
  output_string oc header;
  flush oc;
  t.written <- t.written + String.length header;
  t.active <-
    Some
      {
        a_index = index;
        a_path = path;
        a_oc = Some oc;
        a_count_offset;
        a_nonce = nonce;
        a_frames = 0;
        a_bytes = String.length header;
        a_last_seq = base_seq - 1;
        a_last_gen = base_gen;
        a_last_checksum = base_checksum;
      }

(* Finalize the active segment: patch flags/count/span in the header,
   fsync, rename to the immutable name.  After the rename the file is
   never written again.  A crash anywhere in here is recoverable: the
   header patch keeps the frames intact, and the rename is atomic, so
   recovery sees either a (possibly finalized) [.act] or the sealed
   file — never a mix. *)
let seal_active_exn t =
  match t.active with
  | None -> ()
  | Some a when a.a_frames = 0 -> () (* nothing to seal *)
  | Some a ->
    (match a.a_oc with
    | Some oc ->
      flush oc;
      close_out oc;
      a.a_oc <- None
    | None -> ());
    let fd = open_out_gen [ Open_wronly; Open_binary ] 0o644 a.a_path in
    seek_out fd flags_offset;
    output_string fd
      (String.make 1
         (Char.chr (flag_sealed lor if encrypted t then flag_encrypted else 0)));
    seek_out fd a.a_count_offset;
    output_string fd (int_bytes a.a_frames);
    output_string fd (i64_bytes a.a_last_checksum);
    (match t.faults with Some f -> Storefault.on_sync f | None -> ());
    fsync_channel fd;
    close_out fd;
    let sealed_path = Filename.concat t.dir (sealed_name a.a_index) in
    Sys.rename a.a_path sealed_path;
    fsync_dir t.dir;
    t.dir_syncs <- t.dir_syncs + 1;
    t.seals <- t.seals + 1;
    let s =
      {
        s_index = a.a_index;
        s_path = sealed_path;
        s_base_seq = a.a_last_seq - a.a_frames + 1;
        s_end_seq = a.a_last_seq;
        s_bytes = a.a_bytes;
      }
    in
    t.sealed <- t.sealed @ [ s ];
    t.active <- None;
    t.synced <- t.written

(* Seal then immediately start the successor at the sealed segment's
   chain tail (not the journal tail — during attach mirroring the
   journal is already ahead of the frames written so far). *)
let roll_exn t =
  match t.active with
  | None -> ()
  | Some a when a.a_frames = 0 -> () (* still empty: nothing moved *)
  | Some a ->
    let base_seq = a.a_last_seq + 1 in
    let base_gen = a.a_last_gen in
    let base_checksum = a.a_last_checksum in
    seal_active_exn t;
    start_segment t ~base_seq ~base_gen ~base_checksum

let seal_active t = contain t (fun () -> roll_exn t)

(* ---- sink handlers ---- *)

let handle_append t (e : Journal.entry) =
  contain t (fun () ->
      (match t.faults with Some f -> Storefault.on_append f | None -> ());
      let a =
        match t.active with
        | Some a -> a
        | None -> invalid_arg "Segment_store: store is closed"
      in
      let oc =
        match a.a_oc with
        | Some oc -> oc
        | None -> invalid_arg "Segment_store: active segment is closed"
      in
      let plain = Journal.encode_entry e in
      let payload =
        match t.config.crypt with
        | Some c -> c.wrap ~nonce:a.a_nonce ~index:a.a_frames plain
        | None -> plain
      in
      let frame = int_bytes (String.length payload) ^ payload in
      let torn =
        match t.faults with
        | Some f ->
          let b = Storefault.frame_bytes f a.a_frames frame in
          if String.length b < String.length frame then Some b else None
        | None -> None
      in
      (match torn with
      | Some b ->
        (* A short write tears the frame mid-byte: persist the torn
           prefix (recovery drops it), then degrade — nothing after a
           partial frame could be decoded anyway. *)
        output_string oc b;
        flush oc;
        t.written <- t.written + String.length b;
        a.a_bytes <- a.a_bytes + String.length b;
        t.sink_errors <- t.sink_errors + 1;
        t.degraded <- true
      | None ->
        output_string oc frame;
        flush oc;
        t.written <- t.written + String.length frame;
        a.a_bytes <- a.a_bytes + String.length frame;
        a.a_frames <- a.a_frames + 1;
        a.a_last_seq <- e.Journal.seq;
        a.a_last_gen <- e.Journal.gen;
        a.a_last_checksum <- e.Journal.checksum;
        if a.a_bytes >= t.config.segment_bytes then roll_exn t))

let handle_sync t =
  contain t (fun () ->
      (match t.faults with Some f -> Storefault.on_sync f | None -> ());
      (match t.active with
      | Some { a_oc = Some oc; _ } -> fsync_channel oc
      | Some _ | None -> ());
      t.synced <- t.written)

(* Compaction moved the chain base: drop every sealed segment that now
   lies wholly below it, oldest first (deleting oldest-first keeps the
   remaining files a contiguous chain suffix even if we crash between
   unlinks), then pin the directory.  Segments straddling the base are
   retained untouched — recovery replays their extra prefix, which is
   digest-equivalent. *)
let handle_compact t =
  contain t (fun () ->
      let base = Journal.base_seq t.log in
      let drop, keep =
        List.partition (fun s -> s.s_end_seq < base) t.sealed
      in
      if drop <> [] then begin
        List.iter
          (fun s ->
            (try Sys.remove s.s_path with Sys_error _ -> ());
            t.written <- t.written - s.s_bytes;
            t.sealed_deleted <- t.sealed_deleted + 1)
          drop;
        t.sealed <- keep;
        fsync_dir t.dir;
        t.dir_syncs <- t.dir_syncs + 1;
        t.synced <- min t.synced t.written
      end)

(* ---- attach / close ---- *)

let segment_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.length f > 4
         && String.sub f 0 4 = "seg-"
         && (Filename.check_suffix f ".rvsg" || Filename.check_suffix f ".act"))
  |> List.sort compare

let attach ?(config = default_config) ?faults log ~dir =
  if config.segment_bytes < 256 then
    invalid_arg "Segment_store.attach: segment_bytes must be >= 256";
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg "Segment_store.attach: path exists and is not a directory";
  let t =
    {
      dir;
      log;
      config;
      faults;
      sealed = [];
      active = None;
      next_index = 0;
      written = 0;
      synced = 0;
      dir_syncs = 0;
      seals = 0;
      sealed_deleted = 0;
      stale_temps_removed = 0;
      sink_errors = 0;
      degraded = false;
      sink = None;
    }
  in
  (* Attach replaces whatever store was here: stale temp files (left
     by a crashed writer or earlier tooling) are swept and counted;
     old segments are removed so the fresh image is the only truth. *)
  Array.iter
    (fun f ->
      let p = Filename.concat dir f in
      if Filename.check_suffix f ".tmp" then begin
        (try Sys.remove p with Sys_error _ -> ());
        t.stale_temps_removed <- t.stale_temps_removed + 1
      end)
    (Sys.readdir dir);
  List.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (segment_files dir);
  start_segment t ~base_seq:(Journal.base_seq log)
    ~base_gen:(Journal.base_gen log)
    ~base_checksum:(Journal.base_checksum log);
  (* Mirror the journal's current entries into the fresh active
     segment (sealing on threshold as we go), then make it durable. *)
  List.iter (fun e -> handle_append t e) (Journal.entries log);
  (match t.active with
  | Some { a_oc = Some oc; _ } -> (try fsync_channel oc with Sys_error _ | Unix.Unix_error _ -> ())
  | Some _ | None -> ());
  fsync_dir dir;
  t.dir_syncs <- t.dir_syncs + 1;
  t.synced <- t.written;
  let sink =
    {
      Journal.on_append = (fun e -> handle_append t e);
      on_sync = (fun () -> handle_sync t);
      on_roll = (fun () -> contain t (fun () -> roll_exn t));
      on_compact = (fun () -> handle_compact t);
    }
  in
  t.sink <- Some sink;
  Journal.attach log sink;
  t

let sync t = handle_sync t

let close t =
  (match t.sink with
  | Some sink -> Journal.detach_sink t.log sink
  | None -> ());
  t.sink <- None;
  match t.active with
  | Some ({ a_oc = Some oc; _ } as a) ->
    contain t (fun () ->
        fsync_channel oc;
        t.synced <- t.written);
    close_out_noerr oc;
    a.a_oc <- None
  | Some _ | None -> ()

(* ---- recovery ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Decode one segment's frames into plaintext entry frames, stopping
   at the first torn or unverifiable frame.  Returns the frames and
   whether the segment decoded cleanly to its end (a mid-chain stop
   means everything after is unrecoverable). *)
let segment_frames ~crypt (h : header) bytes =
  let buf = Buffer.create (String.length bytes) in
  let pos = ref h.h_frames_at in
  let index = ref 0 in
  let clean = ref true in
  (try
     while !pos < String.length bytes && !index < h.h_count do
       let payload = r_string bytes pos in
       let plain =
         if h.h_encrypted then
           match crypt with
           | None -> None
           | Some c -> c.unwrap ~nonce:h.h_nonce ~index:!index payload
         else Some payload
       in
       match plain with
       | None ->
         (* MAC reject: corrupt or forged frame — never replay it. *)
         clean := false;
         raise Exit
       | Some p ->
         Buffer.add_string buf p;
         incr index
     done
   with Truncated | Exit -> clean := false);
  (* A sealed segment that holds fewer frames than its finalized
     header promises was truncated after the fact. *)
  if h.h_sealed && !index < h.h_count then clean := false;
  (Buffer.contents buf, !index, !clean)

let recover_from_dir ?crypt dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error ("Segment_store: no such store: " ^ dir)
  else begin
    let files = segment_files dir in
    if files = [] then Error ("Segment_store: empty store: " ^ dir)
    else begin
      (* Walk the files strictly in name (= index) order, stopping at
         the first unreadable/undecodable header or chain gap: a later
         segment must never be spliced in over a damaged earlier one —
         that would recover a disjoint suffix, not a verified prefix.
         Only damage to the very first segment is a hard error (there
         is no prefix left to recover). *)
      let rec walk ~first acc expect = function
        | [] -> Ok (List.rev acc, expect)
        | f :: rest -> (
          let path = Filename.concat dir f in
          match read_file path with
          | exception Sys_error msg ->
            if first then Error ("Segment_store: " ^ msg) else Ok (List.rev acc, expect)
          | bytes -> (
            match decode_header bytes with
            | Error e -> if first then Error e else Ok (List.rev acc, expect)
            | Ok h ->
              if (not first) && Some h.h_base_seq <> expect then Ok (List.rev acc, expect)
              else
                walk ~first:false ((h, bytes) :: acc)
                  (Some (h.h_base_seq + h.h_count))
                  rest))
      in
      (* [expect] above uses the header count, which is exact only for
         sealed segments; the active segment is last, so its open count
         never gates a successor. *)
      match walk ~first:true [] None files with
      | Error e -> Error e
      | Ok ([], _) -> Error ("Segment_store: no decodable segment in " ^ dir)
      | Ok (((first, _) :: _ as all), _) ->
        if first.h_encrypted && crypt = None then
          Error "Segment_store: encrypted store and no key"
        else begin
          let frames = Buffer.create 4096 in
          let stop = ref false in
          List.iter
            (fun ((h : header), bytes) ->
              if not !stop then begin
                let fs, _, clean = segment_frames ~crypt h bytes in
                Buffer.add_string frames fs;
                if not clean then stop := true
              end)
            all;
          (* Synthesize one open-ended RVJL1 image and reuse the
             journal decoder — identical torn-tail semantics. *)
          let img = Buffer.create (Buffer.length frames + 64) in
          Buffer.add_string img "RVJL1";
          let b = Buffer.create 32 in
          w_int b first.h_base_seq;
          w_int b first.h_base_gen;
          w_i64 b first.h_base_checksum;
          w_int b Journal.open_count;
          Buffer.add_string img (Buffer.contents b);
          Buffer.add_buffer img frames;
          Journal.decode (Buffer.contents img)
        end
    end
  end
