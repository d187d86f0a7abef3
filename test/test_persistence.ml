(* Durable persistence crash matrix.

   Layers under test: the segmented on-disk store
   ([Support.Segment_store]) against arbitrary truncation/corruption of
   any segment, fsync-boundary kills, crashes inside the seal and
   compaction protocols, injected I/O faults and encryption-at-rest;
   journal compaction ([Support.Journal.compact] /
   [Rvaas.Journal.compact]) for recovery-equivalence and bounded
   growth; and every binary decoder against hostile length prefixes.
   Every on-disk property is checked against the in-memory
   [valid_prefix] oracle: whatever the disk gives back must be a
   verified prefix of what was appended. *)

let check = Alcotest.check

let entry_equal (a : Support.Journal.entry) (b : Support.Journal.entry) =
  a.gen = b.gen && a.seq = b.seq
  && Float.equal a.at b.at
  && String.equal a.tag b.tag
  && String.equal a.payload b.payload
  && Int64.equal a.checksum b.checksum

let is_prefix_of got orig =
  List.length got <= List.length orig
  && List.for_all2 entry_equal got (List.filteri (fun i _ -> i < List.length got) orig)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ---- a random monitored life, as typed journal records ---- *)

type op =
  | Obs of int * int (* switch, ip-dst value *)
  | Open of int (* opens a fresh query *)
  | Close of int (* closes the (k mod opened)-th query, if any *)
  | Hb

let gen_op =
  QCheck2.Gen.(
    frequency
      [
        (6, map2 (fun sw v -> Obs (sw, v)) (int_bound 3) (int_bound 255));
        (1, map (fun k -> Open k) (int_bound 1000));
        (1, map (fun k -> Close k) (int_bound 1000));
        (2, return Hb);
      ])

let gen_ops = QCheck2.Gen.(list_size (int_range 5 120) gen_op)

let sample_spec v =
  Ofproto.Flow_entry.make_spec ~cookie:7 ~priority:(1 + (v mod 100))
    (Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Ip_dst v)
    [ Ofproto.Action.Output 1 ]

let query_open nonce =
  {
    Rvaas.Journal.q_nonce = nonce;
    q_client = 0;
    q_sw = 1;
    q_port = 0;
    q_ip = Some 0xa000001;
    q_query = Rvaas.Query.make Rvaas.Query.Isolation;
  }

(* Apply [ops] to a fresh typed journal (and its live snapshot),
   calling [each] after every op.  Returns (journal, snapshot). *)
let apply_ops ?(checkpoint_every = 4) ?(auto_compact = false)
    ?(each = fun _ -> ()) ops =
  let j = Rvaas.Journal.create ~checkpoint_every ~auto_compact () in
  let snap = Rvaas.Snapshot.create () in
  let at = ref 0.0 in
  let opened = ref 0 in
  List.iter
    (fun op ->
      at := !at +. 0.01;
      (match op with
      | Obs (sw, v) ->
        let ev = Ofproto.Message.Flow_added (sample_spec v) in
        Rvaas.Snapshot.apply_event snap ~sw ~now:!at ev;
        Rvaas.Journal.append j ~at:!at ~snapshot:snap
          (Rvaas.Journal.Observation { sw; event = ev })
      | Open _ ->
        incr opened;
        Rvaas.Journal.append j ~at:!at ~snapshot:snap
          (Rvaas.Journal.Query_opened (query_open (Printf.sprintf "q%d" !opened)))
      | Close k ->
        if !opened > 0 then
          Rvaas.Journal.append j ~at:!at ~snapshot:snap
            (Rvaas.Journal.Query_closed
               { nonce = Printf.sprintf "q%d" (1 + (k mod !opened)) })
      | Hb -> Rvaas.Journal.heartbeat j ~at:!at);
      each j)
    ops;
  (j, snap)

let open_nonces (r : Rvaas.Journal.recovery) =
  List.map (fun q -> q.Rvaas.Journal.q_nonce) r.open_queries

(* One observation on switch 0, applied to [snap] and journalled. *)
let seg_observe j snap i =
  let ev = Ofproto.Message.Flow_added (sample_spec i) in
  Rvaas.Snapshot.apply_event snap ~sw:0 ~now:(0.01 *. float_of_int i) ev;
  Rvaas.Journal.append j ~at:(0.01 *. float_of_int i) ~snapshot:snap
    (Rvaas.Journal.Observation { sw = 0; event = ev })

(* ---- compaction ---- *)

(* recover (compact j) = recover j: same snapshot (full digest
   vector), same open queries in the same order, same generation —
   and the journal still verifies with fewer (or equal) entries. *)
let prop_compaction_equivalence =
  QCheck2.Test.make ~count:60 ~name:"compaction preserves recovery exactly"
    gen_ops
    (fun ops ->
      let j, snap = apply_ops ops in
      let log = Rvaas.Journal.log j in
      let before = Rvaas.Journal.recover log in
      let len_before = Support.Journal.length log in
      Rvaas.Journal.compact j ~at:1000.0;
      let after = Rvaas.Journal.recover log in
      Support.Journal.verify log
      && Support.Journal.length log <= len_before + 1
      && Rvaas.Snapshot.digest_vector before.Rvaas.Journal.snapshot
         = Rvaas.Snapshot.digest_vector after.Rvaas.Journal.snapshot
      && Rvaas.Snapshot.digest_vector snap
         = Rvaas.Snapshot.digest_vector after.Rvaas.Journal.snapshot
      && open_nonces before = open_nonces after
      && before.Rvaas.Journal.generation = after.Rvaas.Journal.generation)

(* With auto-compaction the journal never exceeds 2 x checkpoint_every
   entries, at any point of any workload — except that open queries
   are irreducible (compaction must carry every one of them forward),
   so the bound is [max (2 * ce) (open_queries + 1)]. *)
let prop_bounded_growth =
  QCheck2.Test.make ~count:40
    ~name:"auto-compacted journal stays within 2 x checkpoint_every" gen_ops
    (fun ops ->
      let ce = 4 in
      let ok = ref true in
      let bound j =
        let log = Rvaas.Journal.log j in
        let opens =
          List.length (Rvaas.Journal.recover log).Rvaas.Journal.open_queries
        in
        max (2 * ce) (opens + 1)
      in
      let j, _ =
        apply_ops ~checkpoint_every:ce ~auto_compact:true
          ~each:(fun j ->
            if Support.Journal.length (Rvaas.Journal.log j) > bound j then
              ok := false)
          ops
      in
      let log = Rvaas.Journal.log j in
      !ok
      && Support.Journal.length log <= bound j
      && Support.Journal.verify log)

(* Compacting must not break the generation audit trail: a takeover
   after compaction still recovers and numbers generations correctly. *)
let test_compaction_preserves_generations () =
  let ops =
    QCheck2.Gen.generate1 ~rand:(Random.State.make [| 17 |])
      QCheck2.Gen.(list_repeat 40 gen_op)
  in
  let j, snap = apply_ops ops in
  let log = Rvaas.Journal.log j in
  ignore (Support.Journal.begin_generation log ~at:500.0);
  Rvaas.Journal.checkpoint j ~at:500.1 ~snapshot:snap;
  Rvaas.Journal.compact j ~at:501.0;
  check Alcotest.int "generation survives compaction" 2
    (Support.Journal.generation log);
  let r = Rvaas.Journal.recover log in
  check Alcotest.int "recovery sees generation 2" 2 r.Rvaas.Journal.generation;
  check Alcotest.bool "base sequence advanced" true
    (Support.Journal.base_seq log > 0);
  (* And the compacted journal still round-trips through the codec. *)
  match Support.Journal.decode (Support.Journal.encode log) with
  | Error e -> Alcotest.failf "compacted image: %s" e
  | Ok log' ->
    check Alcotest.int "compacted image round-trips"
      (Support.Journal.length log)
      (Support.Journal.length log');
    check Alcotest.int "decoded generation" 2 (Support.Journal.generation log')

(* ---- segmented store: seals, crash matrix, fault injection ---- *)

let with_tmp_dir f =
  let dir = Filename.temp_file "rvaas_segments" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir && Sys.is_directory dir then begin
        Array.iter
          (fun g -> try Sys.remove (Filename.concat dir g) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      end)
    (fun () -> f dir)

let seg_config ?crypt segment_bytes = { Support.Segment_store.segment_bytes; crypt }

let seg_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         Filename.check_suffix f ".rvsg" || Filename.check_suffix f ".act")
  |> List.sort compare

let atrest_key = Cryptosim.Hmac.key_of_string "test-at-rest-key"

let atrest = Cryptosim.Atrest.crypt ~key:atrest_key

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1)) in
  nn = 0 || go 0

let test_segment_roundtrip () =
  with_tmp_dir (fun dir ->
      let j, snap =
        apply_ops
          (QCheck2.Gen.generate1 ~rand:(Random.State.make [| 23 |])
             QCheck2.Gen.(list_repeat 80 gen_op))
      in
      let log = Rvaas.Journal.log j in
      let store = Support.Segment_store.attach ~config:(seg_config 512) log ~dir in
      check Alcotest.bool "threshold sealing kicked in" true
        (Support.Segment_store.sealed_count store >= 2);
      Rvaas.Journal.heartbeat j ~at:99.0;
      Rvaas.Journal.checkpoint j ~at:99.1 ~snapshot:snap;
      check Alcotest.int "checkpoint fsynced everything"
        (Support.Segment_store.written_bytes store)
        (Support.Segment_store.synced_bytes store);
      Support.Segment_store.close store;
      match Support.Segment_store.recover_from_dir dir with
      | Error e -> Alcotest.failf "recover_from_dir: %s" e
      | Ok log' ->
        check Alcotest.int "store recovers every entry"
          (List.length (Support.Journal.entries log))
          (List.length (Support.Journal.entries log'));
        List.iter2
          (fun a b -> check Alcotest.bool "entry preserved" true (entry_equal a b))
          (Support.Journal.entries log)
          (Support.Journal.entries log');
        let r = Rvaas.Journal.recover log' in
        check Alcotest.bool "digest parity through the segments" true
          (Rvaas.Snapshot.digest_vector snap
          = Rvaas.Snapshot.digest_vector r.Rvaas.Journal.snapshot))

(* A crashed rewrite (or any earlier tooling) can leave [*.tmp] litter
   and dead segments in the directory; attach must sweep both — and
   count the temps so operators can see the crash happened. *)
let test_attach_sweeps_stale_state () =
  with_tmp_dir (fun dir ->
      write_file (Filename.concat dir "journal.rvjl.tmp") "half-written temp";
      write_file (Filename.concat dir "seg-000099.rvsg") "segment from a previous life";
      let j, _ =
        apply_ops
          (QCheck2.Gen.generate1 ~rand:(Random.State.make [| 29 |]) gen_ops)
      in
      let log = Rvaas.Journal.log j in
      let store = Support.Segment_store.attach log ~dir in
      check Alcotest.int "stale temp swept and counted" 1
        (Support.Segment_store.stale_temps_removed store);
      check Alcotest.bool "stale segments replaced" false
        (Sys.file_exists (Filename.concat dir "seg-000099.rvsg"));
      Support.Segment_store.close store;
      match Support.Segment_store.recover_from_dir dir with
      | Error e -> Alcotest.failf "fresh store: %s" e
      | Ok log' ->
        check Alcotest.int "fresh store recovers in full"
          (Support.Journal.length log)
          (Support.Journal.length log'))

(* Damage one arbitrary segment file — sealed or active, any position:
   recovery must return a verified prefix of the in-memory oracle.
   Only damage to the first segment (no prefix left to salvage) may
   hard-error; damage anywhere else must degrade gracefully, and in
   particular must never splice later segments over the gap. *)
let mk_damage_prop ~name ~crypt damage =
  QCheck2.Test.make ~count:40 ~name
    QCheck2.Gen.(triple gen_ops (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (ops, pick_raw, pos_raw) ->
      with_tmp_dir (fun dir ->
          let j, _ = apply_ops ops in
          let log = Rvaas.Journal.log j in
          let store =
            Support.Segment_store.attach ~config:(seg_config ?crypt 512) log ~dir
          in
          Support.Segment_store.close store;
          let files = seg_files dir in
          let victim = pick_raw mod List.length files in
          damage (Filename.concat dir (List.nth files victim)) pos_raw;
          let oracle = Support.Journal.valid_prefix log in
          match Support.Segment_store.recover_from_dir ?crypt dir with
          | Error _ -> victim = 0
          | Ok log' ->
            Support.Journal.verify log'
            && is_prefix_of (Support.Journal.entries log') oracle))

let truncate_file path pos_raw =
  let img = read_file path in
  write_file path (String.sub img 0 (pos_raw mod (String.length img + 1)))

let bitflip_file path pos_raw =
  let img = Bytes.of_string (read_file path) in
  let pos = pos_raw mod Bytes.length img in
  Bytes.set img pos
    (Char.chr (Char.code (Bytes.get img pos) lxor (1 lsl (pos_raw mod 8))));
  write_file path (Bytes.to_string img)

let prop_segment_truncation =
  mk_damage_prop ~crypt:None
    ~name:"any segment truncated at any offset recovers a verified prefix"
    truncate_file

let prop_segment_bitflip =
  mk_damage_prop ~crypt:None
    ~name:"any segment with any bit flipped recovers a verified prefix"
    bitflip_file

(* The seal protocol has three crash points: after the header patch
   but before the rename, mid-patch (sealed flag never landed), and a
   torn frame tail on top of either.  None may lose a verified
   entry — the first two lose nothing at all. *)
let test_crash_mid_seal () =
  with_tmp_dir (fun dir ->
      let j, snap =
        apply_ops
          (QCheck2.Gen.generate1 ~rand:(Random.State.make [| 31 |])
             QCheck2.Gen.(list_repeat 60 gen_op))
      in
      let log = Rvaas.Journal.log j in
      let store = Support.Segment_store.attach ~config:(seg_config 512) log ~dir in
      Support.Segment_store.seal_active store;
      Support.Segment_store.close store;
      let full = Support.Journal.length log in
      (* Crash point 1: header finalized and fsynced, rename never ran
         — the newest sealed segment still carries its active name and
         the empty successor was never created. *)
      List.iter
        (fun f ->
          if Filename.check_suffix f ".act" then Sys.remove (Filename.concat dir f))
        (seg_files dir);
      let last_sealed =
        match List.rev (seg_files dir) with
        | f :: _ -> f
        | [] -> Alcotest.fail "no sealed segment"
      in
      let act_name = Filename.chop_suffix last_sealed ".rvsg" ^ ".act" in
      Sys.rename (Filename.concat dir last_sealed) (Filename.concat dir act_name);
      (match Support.Segment_store.recover_from_dir dir with
      | Error e -> Alcotest.failf "finalized-but-unrenamed: %s" e
      | Ok log' ->
        check Alcotest.int "crash after finalize loses nothing" full
          (Support.Journal.length log');
        let r = Rvaas.Journal.recover log' in
        check Alcotest.bool "digest parity at the seal point" true
          (Rvaas.Snapshot.digest_vector snap
          = Rvaas.Snapshot.digest_vector r.Rvaas.Journal.snapshot));
      (* Crash point 2: the flags byte never landed — the segment still
         reads as active, and its frames must all survive. *)
      let path = Filename.concat dir act_name in
      let img = Bytes.of_string (read_file path) in
      Bytes.set img 5 '\000';
      write_file path (Bytes.to_string img);
      (match Support.Segment_store.recover_from_dir dir with
      | Error e -> Alcotest.failf "unpatched flags: %s" e
      | Ok log' ->
        check Alcotest.int "crash mid-patch loses nothing" full
          (Support.Journal.length log'));
      (* Crash point 3: same segment with a torn frame tail — recovery
         drops the torn frame and keeps the verified prefix. *)
      write_file path (Bytes.sub_string img 0 (Bytes.length img - 7));
      match Support.Segment_store.recover_from_dir dir with
      | Error e -> Alcotest.failf "torn seal tail: %s" e
      | Ok log' ->
        let got = Support.Journal.entries log' in
        check Alcotest.bool "torn tail keeps a strictly shorter prefix" true
          (List.length got < full
          && is_prefix_of got (Support.Journal.valid_prefix log)))

(* Compaction unlinks dead sealed segments oldest-first, so a crash
   between unlinks leaves the deleted list's suffix on disk — every
   such state must recover to exactly the post-compaction state, and
   retained sealed segments must not have a single byte rewritten. *)
let is_suffix_of got full =
  let n = List.length got and m = List.length full in
  n <= m && List.for_all2 entry_equal got (List.filteri (fun i _ -> i >= m - n) full)

let test_crash_mid_compaction_unlink () =
  with_tmp_dir (fun dir ->
      let ops = List.init 70 (fun i -> Obs (i mod 4, i * 7 mod 256)) in
      let j, _ = apply_ops ~checkpoint_every:16 ops in
      let log = Rvaas.Journal.log j in
      let store = Support.Segment_store.attach ~config:(seg_config 512) log ~dir in
      let backup =
        List.map (fun f -> (f, read_file (Filename.concat dir f))) (seg_files dir)
      in
      let full = Support.Journal.entries log in
      let digest0 =
        Rvaas.Snapshot.digest_vector (Rvaas.Journal.recover log).Rvaas.Journal.snapshot
      in
      (* Rebase the chain mid-store — the primitive the typed layer's
         compaction drives — so segments below the cut die and the
         ones above must survive byte-identical. *)
      Support.Journal.compact log ~upto_seq:(Support.Journal.last_seq log - 20);
      let after_files = seg_files dir in
      let deleted = List.filter (fun (f, _) -> not (List.mem f after_files)) backup in
      let retained =
        List.filter (fun f -> List.mem_assoc f backup) after_files
      in
      check Alcotest.bool "compaction deleted whole sealed files" true
        (List.length deleted >= 2 && Support.Segment_store.sealed_deleted store >= 2);
      check Alcotest.bool "segments above the cut retained" true
        (List.exists (fun f -> Filename.check_suffix f ".rvsg") retained);
      List.iter
        (fun f ->
          check Alcotest.bool "retained segment bytes untouched" true
            (String.equal (read_file (Filename.concat dir f)) (List.assoc f backup)))
        retained;
      Support.Segment_store.close store;
      (* Every partial-unlink crash state: oldest-first deletion means a
         crash between unlinks leaves a suffix of the deleted list on
         disk.  Each state must recover a chain-contiguous suffix of
         the original journal and replay to the same digest vector. *)
      let check_state msg =
        match Support.Segment_store.recover_from_dir dir with
        | Error e -> Alcotest.failf "%s: %s" msg e
        | Ok log' ->
          let got = Support.Journal.entries log' in
          check Alcotest.bool (msg ^ ": contiguous suffix of the chain") true
            (got <> [] && is_suffix_of got full);
          check Alcotest.bool (msg ^ ": length covers the retained tail" ) true
            (List.length got >= 21);
          let r = Rvaas.Journal.recover log' in
          check Alcotest.bool (msg ^ ": digest parity") true
            (Rvaas.Snapshot.digest_vector r.Rvaas.Journal.snapshot = digest0)
      in
      check_state "all unlinks done";
      List.iteri
        (fun i (f, bytes) ->
          write_file (Filename.concat dir f) bytes;
          check_state (Printf.sprintf "unlink crash point %d (%s back)" i f))
        (List.rev deleted))

(* Kill between append and checkpoint: every cut of the active
   segment from the fsync boundary to its end must recover at least
   the synced prefix (the checkpoint included); the unsynced tail may
   tear anywhere. *)
let test_fsync_boundary () =
  with_tmp_dir (fun dir ->
      let j = Rvaas.Journal.create ~checkpoint_every:4 () in
      let log = Rvaas.Journal.log j in
      let store = Support.Segment_store.attach ~config:(seg_config 65536) log ~dir in
      let snap = Rvaas.Snapshot.create () in
      (* 4 observations trigger the cadence checkpoint, which fsyncs. *)
      for i = 1 to 4 do
        seg_observe j snap i
      done;
      let synced = Support.Segment_store.synced_bytes store in
      let count_at_sync = Support.Journal.length log in
      check Alcotest.int "cadence checkpoint landed" 5 count_at_sync;
      (* Unsynced tail: two more observations, no checkpoint. *)
      seg_observe j snap 5;
      seg_observe j snap 6;
      check Alcotest.bool "tail is written but not fsynced" true
        (Support.Segment_store.written_bytes store > synced);
      check Alcotest.int "one active segment holds the whole log" 0
        (Support.Segment_store.sealed_count store);
      let path = Support.Segment_store.active_path store in
      let img = read_file path in
      check Alcotest.int "the segment holds every written byte"
        (Support.Segment_store.written_bytes store)
        (String.length img);
      (* Simulate the kill: every surviving length from the fsync
         boundary up to the full segment must recover the synced
         prefix (checkpoint included) — possibly more, never less. *)
      for cut = synced to String.length img do
        write_file path (String.sub img 0 cut);
        match Support.Segment_store.recover_from_dir dir with
        | Error e -> Alcotest.failf "cut at %d failed: %s" cut e
        | Ok log' ->
          if Support.Journal.length log' < count_at_sync then
            Alcotest.failf "cut at %d lost fsynced entries: %d < %d" cut
              (Support.Journal.length log') count_at_sync;
          if not (Support.Journal.verify log') then
            Alcotest.failf "cut at %d recovered an unverified log" cut
      done;
      (* At exactly the fsync boundary the last record is the
         checkpoint image itself. *)
      write_file path (String.sub img 0 synced);
      (match Support.Segment_store.recover_from_dir dir with
      | Error e -> Alcotest.failf "boundary cut: %s" e
      | Ok log' -> (
        let entries = Support.Journal.entries log' in
        check Alcotest.int "synced prefix exactly" count_at_sync
          (List.length entries);
        match Rvaas.Journal.decode_entry (List.nth entries (count_at_sync - 1)) with
        | Ok (Rvaas.Journal.Checkpoint _) -> ()
        | _ -> Alcotest.fail "fsync boundary is not a checkpoint record"));
      Support.Segment_store.close store)

(* Fsyncing a file persists its contents, not the directory entry
   naming it: a power cut after a seal's rename or a compaction's
   unlinks could otherwise resurrect the old names.  The store fsyncs
   the directory at attach, at every seal and after every deletion
   batch — and never on a plain append. *)
let test_dir_fsyncs () =
  with_tmp_dir (fun dir ->
      let j, _ =
        apply_ops
          (QCheck2.Gen.generate1 ~rand:(Random.State.make [| 17 |])
             QCheck2.Gen.(list_repeat 40 gen_op))
      in
      let log = Rvaas.Journal.log j in
      (* Large segments: nothing seals unless the test asks for it. *)
      let store = Support.Segment_store.attach ~config:(seg_config 65536) log ~dir in
      let syncs () = Support.Segment_store.dir_syncs store in
      check Alcotest.int "attach fsynced the directory" 1 (syncs ());
      Rvaas.Journal.heartbeat j ~at:500.0;
      check Alcotest.int "plain appends do not touch the directory" 1 (syncs ());
      Support.Segment_store.seal_active store;
      check Alcotest.int "a seal fsynced the directory" 2 (syncs ());
      (* Compaction rolls the non-empty active segment (a seal), then
         unlinks both sealed segments in one batch. *)
      Rvaas.Journal.heartbeat j ~at:600.0;
      Rvaas.Journal.compact j ~at:1000.0;
      check Alcotest.int "compaction sealed once" 2 (Support.Segment_store.seals store);
      check Alcotest.int "compaction unlinked both sealed segments" 2
        (Support.Segment_store.sealed_deleted store);
      check Alcotest.int "the seal and the deletion batch fsynced the directory" 4
        (syncs ());
      Support.Segment_store.close store;
      (match Support.Segment_store.recover_from_dir dir with
      | Error e -> Alcotest.failf "store after directory fsyncs: %s" e
      | Ok log' ->
        check Alcotest.int "store still recovers fully"
          (Support.Journal.length log)
          (Support.Journal.length log'));
      (* Small segments: the seals taken while attach mirrors the log
         fsync the directory too. *)
      let store = Support.Segment_store.attach ~config:(seg_config 512) log ~dir in
      check Alcotest.bool "attach mirrored across several seals" true
        (Support.Segment_store.seals store >= 2);
      check Alcotest.int "one directory fsync per seal, plus attach's own"
        (1 + Support.Segment_store.seals store)
        (Support.Segment_store.dir_syncs store);
      Support.Segment_store.close store)

(* ---- injected faults: ENOSPC, short writes, failed fsyncs ---- *)

let test_enospc_containment () =
  with_tmp_dir (fun dir ->
      let j = Rvaas.Journal.create ~checkpoint_every:100 () in
      let log = Rvaas.Journal.log j in
      let snap = Rvaas.Snapshot.create () in
      let faults = Support.Storefault.create () in
      faults.Support.Storefault.fail_append_at <- Some 6;
      let store =
        Support.Segment_store.attach ~config:(seg_config 65536) ~faults log ~dir
      in
      for i = 1 to 12 do
        seg_observe j snap i
      done;
      check Alcotest.bool "store degraded" true (Support.Segment_store.degraded store);
      check Alcotest.int "one sink error" 1 (Support.Segment_store.sink_errors store);
      check Alcotest.int "the injected failure fired" 1
        faults.Support.Storefault.failed_appends;
      check Alcotest.int "in-memory journal took every append" 12
        (Support.Journal.length log);
      check Alcotest.bool "in-memory journal still verifies" true
        (Support.Journal.verify log);
      Support.Segment_store.close store;
      match Support.Segment_store.recover_from_dir dir with
      | Error e -> Alcotest.failf "degraded store: %s" e
      | Ok log' ->
        check Alcotest.int "disk holds the pre-fault prefix" 6
          (Support.Journal.length log');
        check Alcotest.bool "prefix verified" true
          (is_prefix_of
             (Support.Journal.entries log')
             (Support.Journal.valid_prefix log)))

let test_short_write_tears_one_frame () =
  with_tmp_dir (fun dir ->
      let j = Rvaas.Journal.create ~checkpoint_every:100 () in
      let log = Rvaas.Journal.log j in
      let snap = Rvaas.Snapshot.create () in
      let faults = Support.Storefault.create () in
      faults.Support.Storefault.short_write_at <- Some 5;
      let store =
        Support.Segment_store.attach ~config:(seg_config 65536) ~faults log ~dir
      in
      for i = 1 to 10 do
        seg_observe j snap i
      done;
      check Alcotest.int "the short write fired" 1
        faults.Support.Storefault.short_writes;
      check Alcotest.bool "torn frame degraded the store" true
        (Support.Segment_store.degraded store);
      Support.Segment_store.close store;
      match Support.Segment_store.recover_from_dir dir with
      | Error e -> Alcotest.failf "torn store: %s" e
      | Ok log' ->
        check Alcotest.int "recovery drops the torn frame and the dark tail" 5
          (Support.Journal.length log');
        check Alcotest.bool "prefix verified" true
          (is_prefix_of
             (Support.Journal.entries log')
             (Support.Journal.valid_prefix log)))

let test_failed_fsync_degrades () =
  with_tmp_dir (fun dir ->
      let j = Rvaas.Journal.create ~checkpoint_every:4 () in
      let log = Rvaas.Journal.log j in
      let snap = Rvaas.Snapshot.create () in
      let faults = Support.Storefault.create () in
      faults.Support.Storefault.fail_sync_at <- Some 0;
      let store =
        Support.Segment_store.attach ~config:(seg_config 65536) ~faults log ~dir
      in
      (* the 4th observation triggers the cadence checkpoint, whose
         fsync is the injected failure *)
      for i = 1 to 4 do
        seg_observe j snap i
      done;
      check Alcotest.int "the fsync failure fired" 1
        faults.Support.Storefault.failed_syncs;
      check Alcotest.bool "failed fsync degraded the store" true
        (Support.Segment_store.degraded store);
      for i = 5 to 8 do
        seg_observe j snap i
      done;
      check Alcotest.int "degraded store stopped mirroring" 10
        (Support.Journal.length log);
      Support.Segment_store.close store;
      match Support.Segment_store.recover_from_dir dir with
      | Error e -> Alcotest.failf "degraded store: %s" e
      | Ok log' ->
        check Alcotest.int "disk holds the pre-fault prefix" 5
          (Support.Journal.length log');
        check Alcotest.bool "prefix verified" true
          (is_prefix_of
             (Support.Journal.entries log')
             (Support.Journal.valid_prefix log)))

(* ---- encryption-at-rest ---- *)

let test_encrypted_roundtrip () =
  let canary = "plaintext-canary-3f9c51" in
  let run_store ?crypt dir =
    let j, snap =
      apply_ops
        (QCheck2.Gen.generate1 ~rand:(Random.State.make [| 37 |])
           QCheck2.Gen.(list_repeat 50 gen_op))
    in
    let log = Rvaas.Journal.log j in
    let store = Support.Segment_store.attach ~config:(seg_config ?crypt 512) log ~dir in
    Rvaas.Journal.append j ~at:99.0 ~snapshot:snap
      (Rvaas.Journal.Query_opened (query_open canary));
    Rvaas.Journal.checkpoint j ~at:99.1 ~snapshot:snap;
    Support.Segment_store.close store;
    (log, snap)
  in
  with_tmp_dir (fun enc_dir ->
      with_tmp_dir (fun plain_dir ->
          let log, snap = run_store ~crypt:atrest enc_dir in
          let _ = run_store plain_dir in
          let dir_has_canary dir =
            List.exists
              (fun f -> contains (read_file (Filename.concat dir f)) canary)
              (seg_files dir)
          in
          check Alcotest.bool "canary methodology works (plaintext store)" true
            (dir_has_canary plain_dir);
          check Alcotest.bool "plaintext never reaches the encrypted store" false
            (dir_has_canary enc_dir);
          (match Support.Segment_store.recover_from_dir ~crypt:atrest enc_dir with
          | Error e -> Alcotest.failf "keyed recovery: %s" e
          | Ok log' ->
            check Alcotest.int "ciphertext recovers every entry"
              (Support.Journal.length log)
              (Support.Journal.length log');
            let r = Rvaas.Journal.recover log' in
            check Alcotest.bool "digest parity through the ciphertext" true
              (Rvaas.Snapshot.digest_vector snap
              = Rvaas.Snapshot.digest_vector r.Rvaas.Journal.snapshot);
            check Alcotest.bool "open query survives encrypted recovery" true
              (List.mem canary (open_nonces r)));
          (match Support.Segment_store.recover_from_dir enc_dir with
          | Error e ->
            check Alcotest.bool "refusal names the missing key" true
              (contains e "no key")
          | Ok _ -> Alcotest.fail "recovered ciphertext without a key");
          match
            Support.Segment_store.recover_from_dir
              ~crypt:(Cryptosim.Atrest.crypt ~key:(Cryptosim.Hmac.key_of_string "wrong"))
              enc_dir
          with
          | Error _ -> ()
          | Ok log' ->
            check Alcotest.int "wrong key yields nothing, never plaintext" 0
              (Support.Journal.length log')))

let prop_encrypted_truncation =
  mk_damage_prop ~crypt:(Some atrest)
    ~name:"encrypted segment truncated anywhere recovers a verified prefix"
    truncate_file

let prop_encrypted_bitflip =
  mk_damage_prop ~crypt:(Some atrest)
    ~name:"bit-flipped encrypted frame is rejected by its MAC"
    bitflip_file

(* ---- end to end: a live HA deployment journaling to disk ---- *)

let test_scenario_store_recovery () =
  with_tmp_dir (fun dir ->
      let topo = Workload.Topogen.linear Workload.Topogen.default_params 4 in
      let s =
        Workload.Scenario.build
          {
            (Workload.Scenario.default_spec topo) with
            polling = Rvaas.Monitor.Periodic 0.02;
            ha =
              Some
                {
                  Rvaas.Failover.default_config with
                  checkpoint_every = 16;
                  auto_compact = true;
                };
            persist =
              Some { Workload.Scenario.p_dir = dir; p_segment_bytes = 2048; p_encrypt = false };
          }
      in
      let log = Rvaas.Journal.log (Rvaas.Failover.journal (Workload.Scenario.controller s)) in
      Workload.Scenario.run s ~until:0.6;
      let store = Workload.Scenario.store s in
      check Alcotest.bool "auto-compaction bounded the live journal" true
        (Support.Journal.length log <= 32);
      check Alcotest.bool "compaction unlinked sealed segments" true
        (Support.Segment_store.sealed_deleted store > 0);
      let live = Rvaas.Monitor.snapshot (Workload.Scenario.monitor s) in
      (match Support.Segment_store.recover_from_dir dir with
      | Error e -> Alcotest.failf "live store recovery: %s" e
      | Ok log' ->
        let r = Rvaas.Journal.recover log' in
        check Alcotest.bool "recovered digest vector equals the live one" true
          (Rvaas.Snapshot.digest_vector live
          = Rvaas.Snapshot.digest_vector r.Rvaas.Journal.snapshot));
      Support.Segment_store.close store)

(* ---- hostile length prefixes ----

   Every binary decoder reads a length, then that many bytes.  A
   length near [max_int] must not wrap the bounds check: each decoder
   must come back with an [Error] or a verified prefix, never an
   exception.  [hostile ~at] is the value set for a length field whose
   8 bytes sit at offset [at]: the reader's position after the field
   is [at + 8], so [max_int - (at + 7)] is the smallest value whose
   end offset overflows, and [max_int - (at + 8)] the largest that
   does not. *)

let hostile ~at = [ max_int; max_int - 1; max_int - (at + 7); max_int - (at + 8); -1; min_int ]

let patch_int s ~at n =
  let b = Bytes.of_string s in
  Bytes.set_int64_le b at (Int64.of_int n);
  Bytes.to_string b

let no_raise what f =
  match f () with
  | ok -> ok
  | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)

let test_hostile_journal_image () =
  let log = Support.Journal.create () in
  ignore (Support.Journal.append log ~at:0.1 ~tag:"obs" ~payload:"first");
  ignore (Support.Journal.append log ~at:0.2 ~tag:"obs" ~payload:"second");
  let img = Support.Journal.encode log in
  let oracle = Support.Journal.entries log in
  (* The header is magic + 4 words, the last one the entry count; a
     frame is 3 words, then the length-prefixed tag ("obs") and
     payload.  Each field comes with the entries that must survive it
     (the count only bounds the loop, so any prefix will do there). *)
  let header = 5 + (4 * 8) in
  let e2 = header + String.length (Support.Journal.encode_entry (List.hd oracle)) in
  let fields =
    [
      ("entry count", header - 8, None);
      ("entry 1 tag length", header + 24, Some 0);
      ("entry 1 payload length", header + 35, Some 0);
      ("entry 2 tag length", e2 + 24, Some 1);
      ("entry 2 payload length", e2 + 35, Some 1);
    ]
  in
  List.iter
    (fun (name, at, kept) ->
      List.iter
        (fun n ->
          let what = Printf.sprintf "RVJL1 %s = %d" name n in
          match no_raise what (fun () -> Support.Journal.decode (patch_int img ~at n)) with
          | Error e -> Alcotest.failf "%s: %s" what e
          | Ok log' ->
            let got = Support.Journal.entries log' in
            check Alcotest.bool (what ^ ": verified prefix") true
              (Support.Journal.verify log' && is_prefix_of got oracle);
            Option.iter
              (fun kept ->
                check Alcotest.int (what ^ ": entries before the field survive") kept
                  (List.length got))
              kept)
        (hostile ~at))
    fields

let test_hostile_segment_lengths () =
  let run_case ?crypt () =
    with_tmp_dir (fun dir ->
        let j, _ =
          apply_ops
            (QCheck2.Gen.generate1 ~rand:(Random.State.make [| 41 |])
               QCheck2.Gen.(list_repeat 40 gen_op))
        in
        let log = Rvaas.Journal.log j in
        let store = Support.Segment_store.attach ~config:(seg_config ?crypt 512) log ~dir in
        Support.Segment_store.close store;
        let oracle = Support.Journal.valid_prefix log in
        let files = seg_files dir in
        check Alcotest.bool "several segments" true (List.length files >= 3);
        let pristine = List.map (fun f -> (f, read_file (Filename.concat dir f))) files in
        (* header: magic, flags, index, chain base (3 words), nonce
           length at 38, nonce, count, span, then the first frame's
           length prefix *)
        let fields bytes =
          let nonce = Int64.to_int (String.get_int64_le bytes 38) in
          [ ("nonce length", 38); ("frame count", 46 + nonce); ("frame length", 62 + nonce) ]
        in
        List.iteri
          (fun victim (f, bytes) ->
            List.iter
              (fun (name, at) ->
                List.iter
                  (fun n ->
                    let what = Printf.sprintf "segment %d %s = %d" victim name n in
                    List.iter (fun (g, b) -> write_file (Filename.concat dir g) b) pristine;
                    write_file (Filename.concat dir f) (patch_int bytes ~at n);
                    match
                      no_raise what (fun () -> Support.Segment_store.recover_from_dir ?crypt dir)
                    with
                    | Error _ ->
                      check Alcotest.int (what ^ ": only the first segment may hard-fail") 0
                        victim
                    | Ok log' ->
                      check Alcotest.bool (what ^ ": verified prefix") true
                        (Support.Journal.verify log'
                        && is_prefix_of (Support.Journal.entries log') oracle))
                  (hostile ~at))
              (fields bytes))
          pristine)
  in
  run_case ();
  run_case ~crypt:atrest ()

let test_hostile_typed_payloads () =
  let open Rvaas.Codec.Bin in
  let mk f =
    let b = Buffer.create 64 in
    f b;
    Buffer.contents b
  in
  let spec = sample_spec 9 in
  (* priority, cookie, no meter, no timeout, no in_port: the match's
     field list starts 3 + 2 words into the spec *)
  let spec_head b =
    w_int b 1;
    w_int b 7;
    w_opt w_int b None;
    w_opt w_float b None;
    w_opt w_int b None
  in
  (* (tag, field, offset of the length, payload with length [n]) *)
  let payloads =
    [
      ( "qopen", "nonce length", 0,
        fun n ->
          mk (fun b ->
              w_int b n;
              Buffer.add_string b "q1";
              w_int b 0) );
      ( "qopen", "query length", 8 + 2 + 24 + 1,
        fun n ->
          mk (fun b ->
              w_string b "q1";
              w_int b 0;
              w_int b 1;
              w_int b 0;
              w_opt w_int b None;
              w_int b n;
              Buffer.add_string b "isolation") );
      ( "poll", "flow count", 8,
        fun n ->
          mk (fun b ->
              w_int b 0;
              w_int b n;
              w_spec b spec) );
      ( "meters", "meter count", 8,
        fun n ->
          mk (fun b ->
              w_int b 0;
              w_int b n;
              w_int b 1;
              w_int b 1000) );
      ( "obs", "match field count", 8 + 1 + 16 + 3,
        fun n ->
          mk (fun b ->
              w_int b 0;
              w_u8 b 0;
              spec_head b;
              w_int b n;
              w_int b 0) );
      ( "obs", "action count", 8 + 1 + 16 + 3 + 8,
        fun n ->
          mk (fun b ->
              w_int b 0;
              w_u8 b 0;
              spec_head b;
              w_int b 0;
              w_int b n;
              w_u8 b 0;
              w_int b 1) );
    ]
  in
  List.iter
    (fun (tag, name, at, payload) ->
      List.iter
        (fun n ->
          let what = Printf.sprintf "%s %s = %d" tag name n in
          (* checksum-valid: the chain is unkeyed, so a hostile store
             can carry any payload under a correct link *)
          let log = Support.Journal.create () in
          let j = Rvaas.Journal.of_log log in
          Rvaas.Journal.append j ~at:0.1 ~snapshot:(Rvaas.Snapshot.create ())
            (Rvaas.Journal.Query_opened (query_open "before"));
          let e = Support.Journal.append log ~at:0.2 ~tag ~payload:(payload n) in
          Rvaas.Journal.append j ~at:0.3 ~snapshot:(Rvaas.Snapshot.create ())
            (Rvaas.Journal.Query_opened (query_open "after"));
          (match no_raise what (fun () -> Rvaas.Journal.decode_entry e) with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "%s: decoded a hostile payload" what);
          let r = no_raise (what ^ " (recover)") (fun () -> Rvaas.Journal.recover log) in
          check
            (Alcotest.list Alcotest.string)
            (what ^ ": recovery skips only the hostile record")
            [ "before"; "after" ] (open_nonces r))
        (hostile ~at))
    payloads

let () =
  Alcotest.run "persistence"
    [
      ( "compaction",
        [
          QCheck_alcotest.to_alcotest prop_compaction_equivalence;
          QCheck_alcotest.to_alcotest prop_bounded_growth;
          Alcotest.test_case "generation audit trail preserved" `Quick
            test_compaction_preserves_generations;
        ] );
      ( "segment-store",
        [
          Alcotest.test_case "attach, seal, recover round-trip" `Quick
            test_segment_roundtrip;
          Alcotest.test_case "attach sweeps stale temps and segments" `Quick
            test_attach_sweeps_stale_state;
          QCheck_alcotest.to_alcotest prop_segment_truncation;
          QCheck_alcotest.to_alcotest prop_segment_bitflip;
          Alcotest.test_case "crash points inside the seal protocol" `Quick
            test_crash_mid_seal;
          Alcotest.test_case "crash between compaction unlinks" `Quick
            test_crash_mid_compaction_unlink;
          Alcotest.test_case "fsync boundary survives the kill" `Quick
            test_fsync_boundary;
          Alcotest.test_case "attach, seal and unlink fsync the directory" `Quick
            test_dir_fsyncs;
        ] );
      ( "injected-faults",
        [
          Alcotest.test_case "ENOSPC is contained, memory stays authoritative"
            `Quick test_enospc_containment;
          Alcotest.test_case "short write tears exactly one frame" `Quick
            test_short_write_tears_one_frame;
          Alcotest.test_case "failed fsync degrades the sink" `Quick
            test_failed_fsync_degrades;
        ] );
      ( "encrypted-store",
        [
          Alcotest.test_case "ciphertext round-trip, canary, key gating" `Quick
            test_encrypted_roundtrip;
          QCheck_alcotest.to_alcotest prop_encrypted_truncation;
          QCheck_alcotest.to_alcotest prop_encrypted_bitflip;
        ] );
      ( "hostile-lengths",
        [
          Alcotest.test_case "journal image length prefixes" `Quick
            test_hostile_journal_image;
          Alcotest.test_case "segment header and frame lengths" `Quick
            test_hostile_segment_lengths;
          Alcotest.test_case "typed record payload lengths" `Quick
            test_hostile_typed_payloads;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "live deployment journal recovers from disk" `Quick
            test_scenario_store_recovery;
        ] );
    ]
