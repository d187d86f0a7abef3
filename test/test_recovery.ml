(* Crash recovery: durable journal, snapshot images, controller
   failover.

   Layers under test, bottom up: the checksummed generation-numbered
   log ([Support.Journal]), binary snapshot images ([Rvaas.Snapshot]),
   the typed record layer with checkpoints and replay
   ([Rvaas.Journal]), and the full kill-the-controller /
   partition-heal / restart protocols ([Rvaas.Failover]). *)

let check = Alcotest.check

(* ---- Support.Journal: chained checksums, generations ---- *)

let test_journal_chain () =
  let log = Support.Journal.create () in
  for i = 0 to 4 do
    ignore
      (Support.Journal.append log ~at:(float_of_int i) ~tag:"obs"
         ~payload:(Printf.sprintf "payload-%d" i))
  done;
  check Alcotest.int "length" 5 (Support.Journal.length log);
  check Alcotest.int "last_seq" 4 (Support.Journal.last_seq log);
  check Alcotest.bool "verify" true (Support.Journal.verify log);
  check Alcotest.int "valid prefix is everything" 5
    (List.length (Support.Journal.valid_prefix log));
  check (Alcotest.option Alcotest.(float 1e-9)) "last_at" (Some 4.0)
    (Support.Journal.last_at log);
  check Alcotest.int "generation starts at 1" 1 (Support.Journal.generation log);
  let g = Support.Journal.begin_generation log ~at:5.0 in
  check Alcotest.int "generation bumped" 2 g;
  check Alcotest.int "generation entry appended" 6 (Support.Journal.length log);
  let e = List.nth (Support.Journal.entries log) 5 in
  check Alcotest.string "generation tag" Support.Journal.generation_tag
    e.Support.Journal.tag;
  check Alcotest.int "new entries carry the new generation" 2 e.Support.Journal.gen;
  check Alcotest.bool "still verifies" true (Support.Journal.verify log)

let entry_equal (a : Support.Journal.entry) (b : Support.Journal.entry) =
  a.gen = b.gen && a.seq = b.seq
  && Float.equal a.at b.at
  && String.equal a.tag b.tag
  && String.equal a.payload b.payload
  && Int64.equal a.checksum b.checksum

let populated_log () =
  let log = Support.Journal.create () in
  (* Payloads exercise binary bytes, NULs and newlines. *)
  let payloads = [ "plain"; ""; "line\nbreak"; "nul\000byte"; String.make 300 '\xff' ] in
  List.iteri
    (fun i p ->
      ignore (Support.Journal.append log ~at:(0.1 *. float_of_int i) ~tag:"t" ~payload:p);
      if i = 2 then ignore (Support.Journal.begin_generation log ~at:0.25))
    payloads;
  log

let test_journal_codec_roundtrip () =
  let log = populated_log () in
  match Support.Journal.decode (Support.Journal.encode log) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok log' ->
    check Alcotest.int "length preserved" (Support.Journal.length log)
      (Support.Journal.length log');
    check Alcotest.int "generation preserved" (Support.Journal.generation log)
      (Support.Journal.generation log');
    check Alcotest.bool "decoded verifies" true (Support.Journal.verify log');
    List.iter2
      (fun a b -> check Alcotest.bool "entry preserved" true (entry_equal a b))
      (Support.Journal.entries log)
      (Support.Journal.entries log')

let test_journal_torn_write () =
  let log = populated_log () in
  let image = Support.Journal.encode log in
  (* A torn tail (partial final write) must decode to the valid
     prefix, not an error. *)
  (match Support.Journal.decode (String.sub image 0 (String.length image - 7)) with
  | Error e -> Alcotest.failf "torn tail rejected: %s" e
  | Ok log' ->
    check Alcotest.bool "some prefix survives" true (Support.Journal.length log' >= 1);
    check Alcotest.bool "shorter than the original" true
      (Support.Journal.length log' < Support.Journal.length log);
    check Alcotest.bool "prefix verifies" true (Support.Journal.verify log'));
  (* Corruption in the middle cuts the prefix at the damaged entry: the
     chained checksums refuse everything after it. *)
  let pos = String.length image / 2 in
  let corrupt = Bytes.of_string image in
  Bytes.set corrupt pos (Char.chr (Char.code (Bytes.get corrupt pos) lxor 0xff));
  match Support.Journal.decode (Bytes.to_string corrupt) with
  | Error _ -> () (* corrupting a length header may kill the whole parse *)
  | Ok log' ->
    check Alcotest.bool "corrupt middle shortens the log" true
      (Support.Journal.length log' < Support.Journal.length log);
    check Alcotest.bool "surviving prefix verifies" true (Support.Journal.verify log')

let prop_journal_any_cut =
  QCheck2.Test.make ~name:"decode of any truncation is a verified prefix" ~count:100
    QCheck2.Gen.(int_bound 2000)
    (fun cut ->
      let log = populated_log () in
      let image = Support.Journal.encode log in
      let cut = min cut (String.length image) in
      match Support.Journal.decode (String.sub image 0 cut) with
      | Error _ -> true (* a cut inside the header is allowed to fail *)
      | Ok log' ->
        let orig = Support.Journal.entries log in
        let got = Support.Journal.entries log' in
        Support.Journal.verify log'
        && List.length got <= List.length orig
        && List.for_all2 entry_equal got
             (List.filteri (fun i _ -> i < List.length got) orig))

(* ---- Snapshot: binary image round-trip ---- *)

let gen_action =
  QCheck2.Gen.(
    oneof
      [
        map (fun p -> Ofproto.Action.Output p) (int_bound 7);
        return Ofproto.Action.In_port;
        return Ofproto.Action.Flood;
        return Ofproto.Action.To_controller;
        map (fun v -> Ofproto.Action.Set_field (Hspace.Field.Ip_dst, v)) (int_bound 255);
        map (fun q -> Ofproto.Action.Set_queue q) (int_bound 3);
      ])

let gen_match =
  QCheck2.Gen.(
    let* in_port = opt (int_bound 7) in
    let* dst = opt (int_bound 255) in
    let* src = opt (int_bound 255) in
    let m = Ofproto.Match_.any in
    let m = match in_port with Some p -> Ofproto.Match_.with_in_port m p | None -> m in
    let m =
      match dst with
      | Some v -> Ofproto.Match_.with_exact m Hspace.Field.Ip_dst v
      | None -> m
    in
    let m =
      match src with
      | Some v -> Ofproto.Match_.with_field m Hspace.Field.Ip_src ~value:v ~mask:0xf0
      | None -> m
    in
    return m)

let gen_spec =
  QCheck2.Gen.(
    let* priority = int_range 1 100 in
    let* cookie = int_bound 10_000 in
    let* meter = opt (int_range 1 5) in
    let* hard_timeout = opt (map (fun t -> float_of_int t /. 10.0) (int_range 1 50)) in
    let* m = gen_match in
    let* actions = list_size (int_bound 3) gen_action in
    return (Ofproto.Flow_entry.make_spec ~cookie ?meter ?hard_timeout ~priority m actions))

let gen_event =
  QCheck2.Gen.(
    let* spec = gen_spec in
    oneof
      [
        return (Ofproto.Message.Flow_added spec);
        return (Ofproto.Message.Flow_deleted spec);
        return (Ofproto.Message.Flow_modified spec);
      ])

(* A random monitored life: events over 4 switches plus meter tables. *)
let gen_snapshot_script =
  QCheck2.Gen.(
    let* events = list_size (int_range 1 40) (pair (int_bound 3) gen_event) in
    let* meters =
      small_list (pair (int_bound 3) (small_list (pair (int_range 1 4) (int_range 100 9999))))
    in
    return (events, meters))

let build_snapshot (events, meters) =
  let snap = Rvaas.Snapshot.create () in
  List.iteri
    (fun i (sw, ev) ->
      Rvaas.Snapshot.apply_event snap ~sw ~now:(0.01 *. float_of_int i) ev)
    events;
  List.iter
    (fun (sw, bands) ->
      Rvaas.Snapshot.replace_meters snap ~sw
        (List.map (fun (id, rate) -> (id, { Ofproto.Meter.rate_kbps = rate })) bands))
    meters;
  snap

let specs_equal a b =
  List.length a = List.length b && List.for_all2 Ofproto.Flow_entry.spec_equal a b

let prop_snapshot_roundtrip =
  QCheck2.Test.make ~name:"snapshot image preserves digests, flows and meters"
    ~count:100 gen_snapshot_script (fun script ->
      let snap = build_snapshot script in
      match Rvaas.Snapshot.of_bytes (Rvaas.Snapshot.to_bytes snap) with
      | Error e -> QCheck2.Test.fail_reportf "of_bytes failed: %s" e
      | Ok snap' ->
        Int64.equal (Rvaas.Snapshot.digest snap) (Rvaas.Snapshot.digest snap')
        && Rvaas.Snapshot.digest_vector snap = Rvaas.Snapshot.digest_vector snap'
        && List.for_all
             (fun sw ->
               specs_equal
                 (Rvaas.Snapshot.flows snap ~sw)
                 (Rvaas.Snapshot.flows snap' ~sw)
               && Rvaas.Snapshot.meters snap ~sw = Rvaas.Snapshot.meters snap' ~sw
               && Float.equal
                    (Rvaas.Snapshot.last_refresh snap ~sw)
                    (Rvaas.Snapshot.last_refresh snap' ~sw))
             (Rvaas.Snapshot.switches snap))

let test_snapshot_image_rejects_garbage () =
  (match Rvaas.Snapshot.of_bytes "not a snapshot" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Rvaas.Snapshot.of_bytes "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty string accepted"

(* ---- Rvaas.Journal: typed records, checkpoints, recovery ---- *)

let sample_spec pri =
  Ofproto.Flow_entry.make_spec ~cookie:7 ~priority:pri
    (Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Ip_dst pri)
    [ Ofproto.Action.Output 1 ]

let test_typed_journal_recovery () =
  let j = Rvaas.Journal.create ~checkpoint_every:4 () in
  let snap = Rvaas.Snapshot.create () in
  let at = ref 0.0 in
  let observe sw ev =
    at := !at +. 0.01;
    Rvaas.Snapshot.apply_event snap ~sw ~now:!at ev;
    Rvaas.Journal.append j ~at:!at ~snapshot:snap (Rvaas.Journal.Observation { sw; event = ev })
  in
  for i = 1 to 10 do
    observe (i mod 3) (Ofproto.Message.Flow_added (sample_spec i))
  done;
  observe 0 (Ofproto.Message.Flow_deleted (sample_spec 3));
  (* Two queries open, one closes: recovery must surface exactly the
     one still in flight. *)
  let q nonce =
    {
      Rvaas.Journal.q_nonce = nonce;
      q_client = 0;
      q_sw = 1;
      q_port = 0;
      q_ip = Some 0xa000001;
      q_query = Rvaas.Query.make Rvaas.Query.Isolation;
    }
  in
  Rvaas.Journal.append j ~at:!at ~snapshot:snap (Rvaas.Journal.Query_opened (q "aaa"));
  Rvaas.Journal.append j ~at:!at ~snapshot:snap (Rvaas.Journal.Query_opened (q "bbb"));
  Rvaas.Journal.append j ~at:!at ~snapshot:snap (Rvaas.Journal.Query_closed { nonce = "aaa" });
  Rvaas.Journal.heartbeat j ~at:!at;
  let r = Rvaas.Journal.recover (Rvaas.Journal.log j) in
  check Alcotest.bool "replayed some mutations past the checkpoint" true (r.replayed >= 0);
  check Alcotest.int "one query still open" 1 (List.length r.open_queries);
  check Alcotest.string "the unclosed one" "bbb"
    (List.hd r.open_queries).Rvaas.Journal.q_nonce;
  check Alcotest.int "generation" 1 r.generation;
  check Alcotest.bool "recovered digest matches the live snapshot" true
    (Int64.equal (Rvaas.Snapshot.digest snap) (Rvaas.Snapshot.digest r.snapshot));
  check Alcotest.bool "digest vector matches" true
    (Rvaas.Snapshot.digest_vector snap = Rvaas.Snapshot.digest_vector r.snapshot);
  (* The whole thing survives serialisation — a restarted process
     recovers the same state from the decoded image. *)
  match Support.Journal.decode (Support.Journal.encode (Rvaas.Journal.log j)) with
  | Error e -> Alcotest.failf "journal image: %s" e
  | Ok log' ->
    let r' = Rvaas.Journal.recover log' in
    check Alcotest.bool "post-image digest identical" true
      (Int64.equal (Rvaas.Snapshot.digest snap) (Rvaas.Snapshot.digest r'.snapshot));
    check Alcotest.int "post-image open queries" 1 (List.length r'.open_queries)

(* ---- Failover: kill the controller, heal partitions, restart ---- *)

let ha_config =
  {
    Rvaas.Failover.heartbeat_period = 0.01;
    takeover_timeout = 0.05;
    check_period = 0.01;
    checkpoint_every = 32;
    standbys = 1;
    auto_compact = false;
    replica_lag = 8;
    replica_delay = 0.0;
  }

let ha_scenario ?(seed = 42) ?(config = ha_config) () =
  let topo = Workload.Topogen.linear Workload.Topogen.default_params 4 in
  Workload.Scenario.build
    {
      (Workload.Scenario.default_spec topo) with
      seed;
      polling = Rvaas.Monitor.Periodic 0.02;
      agent_resend = Some 0.12;
      ha = Some config;
    }

(* Drive one isolation query from host 0 to completion, crashing the
   primary [crash_offset] seconds after the query goes out when
   requested.  Returns (scenario, verdict) where the verdict is the
   (endpoints, sorted alarms) pair the detector extracts. *)
let drive_query ?crash_offset s =
  let now () = Netsim.Sim.now (Netsim.Net.sim s.Workload.Scenario.net) in
  let agent = Workload.Scenario.agent s ~host:0 in
  let result = ref None in
  Rvaas.Client_agent.set_answer_callback agent (fun o -> result := Some o);
  let nonce =
    Rvaas.Client_agent.send_query agent (Rvaas.Query.make Rvaas.Query.Isolation)
  in
  (match crash_offset with
  | Some dt ->
    Workload.Scenario.run s ~until:(now () +. dt);
    Rvaas.Failover.crash (Workload.Scenario.controller s);
    Rvaas.Failover.enable_standby (Workload.Scenario.controller s)
  | None -> ());
  let matched (o : Rvaas.Client_agent.outcome) =
    String.equal o.Rvaas.Client_agent.answer.Rvaas.Query.nonce nonce
  in
  let deadline = now () +. 1.5 in
  while
    (match !result with Some o -> not (matched o) | None -> true) && now () < deadline
  do
    Workload.Scenario.run s ~until:(now () +. 0.01)
  done;
  match !result with
  | Some o when matched o ->
    let answer = o.Rvaas.Client_agent.answer in
    let alarms =
      Rvaas.Detector.check_answer (Workload.Scenario.policy_for s ~host:0) answer
    in
    Some
      ( List.length answer.Rvaas.Query.endpoints,
        List.sort String.compare (List.map Rvaas.Detector.describe alarms) )
  | Some _ | None -> None

let launch_join s =
  Sdnctl.Attack.launch s.Workload.Scenario.net s.Workload.Scenario.addressing
    ~conn:(Sdnctl.Provider.conn s.Workload.Scenario.provider)
    (Sdnctl.Attack.Join { victim_client = 0; attacker_host = 1 })

let test_kill_the_controller () =
  (* Fault-free twin first: same seed, same timeline, no crash. *)
  let s0 = ha_scenario () in
  Workload.Scenario.run s0 ~until:0.3;
  launch_join s0;
  Workload.Scenario.run s0 ~until:0.4;
  let expected = drive_query s0 in
  check Alcotest.bool "fault-free run answers" true (expected <> None);
  (* Crash run: kill the primary 2 ms after the query goes out. *)
  let s = ha_scenario () in
  Workload.Scenario.run s ~until:0.3;
  launch_join s;
  Workload.Scenario.run s ~until:0.4;
  let got = drive_query ~crash_offset:0.002 s in
  let ctrl = Workload.Scenario.controller s in
  (match Rvaas.Failover.last_takeover ctrl with
  | None -> Alcotest.fail "standby never took over"
  | Some r ->
    check Alcotest.int "new generation" 2 r.Rvaas.Failover.generation;
    check Alcotest.bool "takeover bounded" true
      (r.Rvaas.Failover.detected_at -. r.Rvaas.Failover.crashed_at
      <= ha_config.takeover_timeout +. (2.0 *. ha_config.check_period)
         +. ha_config.heartbeat_period));
  check Alcotest.int "generation accessor" 2 (Rvaas.Failover.generation ctrl);
  check Alcotest.bool "crashed run answers" true (got <> None);
  check
    (Alcotest.pair Alcotest.int (Alcotest.list Alcotest.string))
    "verdict parity with the fault-free run" (Option.get expected) (Option.get got);
  (* The attack must actually be visible in both verdicts. *)
  check Alcotest.bool "join attack flagged" true (snd (Option.get got) <> [])

let test_partition_heals () =
  let s = ha_scenario () in
  Workload.Scenario.run s ~until:0.3;
  let ctrl = Workload.Scenario.controller s in
  let conn = Rvaas.Monitor.conn (Workload.Scenario.monitor s) in
  let sessions0 = Netsim.Net.conn_sessions conn in
  Rvaas.Failover.partition ctrl;
  check Alcotest.bool "session down" false (Netsim.Net.conn_up conn);
  Workload.Scenario.run s ~until:0.4;
  check Alcotest.bool "session healed" true (Netsim.Net.conn_up conn);
  check Alcotest.bool "guard counted the resync" true (Rvaas.Failover.resyncs ctrl >= 1);
  check Alcotest.bool "session re-established" true
    (Netsim.Net.conn_sessions conn > sessions0);
  check Alcotest.int "same incarnation" 1 (Rvaas.Failover.generation ctrl);
  (* The healed session serves queries. *)
  check Alcotest.bool "query works after heal" true (drive_query s <> None)

let test_restart_replay () =
  let s = ha_scenario () in
  Workload.Scenario.run s ~until:0.3;
  let ctrl = Workload.Scenario.controller s in
  let digest_before =
    Rvaas.Snapshot.digest (Rvaas.Monitor.snapshot (Workload.Scenario.monitor s))
  in
  Rvaas.Failover.crash ctrl;
  Workload.Scenario.run s ~until:0.35;
  let r = Rvaas.Failover.restart ctrl in
  check Alcotest.int "restart is generation 2" 2 r.Rvaas.Failover.generation;
  (* The replayed snapshot already matches the pre-crash state before
     any new poll lands. *)
  check Alcotest.bool "replayed digest matches pre-crash state" true
    (Int64.equal digest_before
       (Rvaas.Snapshot.digest (Rvaas.Monitor.snapshot (Workload.Scenario.monitor s))));
  Workload.Scenario.run s ~until:0.5;
  check Alcotest.bool "restarted controller serves queries" true (drive_query s <> None)

let test_live_journal_image_recovers () =
  (* End-to-end durability: image the journal of a running deployment,
     decode it, recover — the digest must equal the live snapshot's. *)
  let s = ha_scenario () in
  Workload.Scenario.run s ~until:0.5;
  let log = Rvaas.Journal.log (Rvaas.Failover.journal (Workload.Scenario.controller s)) in
  match Support.Journal.decode (Support.Journal.encode log) with
  | Error e -> Alcotest.failf "image decode: %s" e
  | Ok log' ->
    let r = Rvaas.Journal.recover log' in
    let live = Rvaas.Monitor.snapshot (Workload.Scenario.monitor s) in
    check Alcotest.bool "digest parity" true
      (Int64.equal (Rvaas.Snapshot.digest live) (Rvaas.Snapshot.digest r.snapshot));
    check Alcotest.bool "digest vector parity" true
      (Rvaas.Snapshot.digest_vector live = Rvaas.Snapshot.digest_vector r.snapshot);
    check Alcotest.int "no queries in flight" 0 (List.length r.open_queries)

(* ---- quorum election: N standbys, one winner ---- *)

(* Arm [count] standbys with seed-dependent phases so the order in
   which they observe the staleness differs run to run. *)
let arm_phased ctrl ~seed ~count =
  let phase sid = float_of_int (((seed * 7) + (sid * 13)) mod 29) *. 0.0007 in
  Rvaas.Failover.enable_standbys ~phase ctrl ~count

let run_sim s ~until = Workload.Scenario.run s ~until

let sim_now s = Netsim.Sim.now (Netsim.Net.sim s.Workload.Scenario.net)

let test_quorum_single_winner () =
  (* >= 20 RNG seeds; each: 3 standbys with randomized observation
     order, crash, exactly one takeover; then crash the winner —
     generations strictly increase and again exactly one wins. *)
  for seed = 1 to 24 do
    let s = ha_scenario ~seed ~config:{ ha_config with standbys = 0 } () in
    run_sim s ~until:0.3;
    let ctrl = Workload.Scenario.controller s in
    arm_phased ctrl ~seed ~count:3;
    check Alcotest.int "three standbys armed" 3 (Rvaas.Failover.standby_count ctrl);
    run_sim s ~until:0.35;
    Rvaas.Failover.crash ctrl;
    run_sim s ~until:0.8;
    let tks = Rvaas.Failover.takeovers ctrl in
    check Alcotest.int
      (Printf.sprintf "seed %d: exactly one takeover" seed)
      1 (List.length tks);
    let r = List.hd tks in
    check Alcotest.int "first takeover is generation 2" 2 r.Rvaas.Failover.generation;
    check Alcotest.bool "winner is an armed standby" true
      (r.Rvaas.Failover.winner >= 0 && r.Rvaas.Failover.winner < 3);
    check Alcotest.bool "service live under the new generation" true
      (Rvaas.Service.live (Workload.Scenario.service s));
    (* Kill the new incarnation: the standbys stayed armed, elect
       again, and the generation strictly increases. *)
    Rvaas.Failover.crash ctrl;
    run_sim s ~until:(sim_now s +. 0.45);
    let tks = Rvaas.Failover.takeovers ctrl in
    check Alcotest.int
      (Printf.sprintf "seed %d: second crash, second takeover" seed)
      2 (List.length tks);
    let gens = List.map (fun r -> r.Rvaas.Failover.generation) tks in
    check (Alcotest.list Alcotest.int) "generations strictly increase" [ 2; 3 ] gens
  done

let has_claim_by log ~sid =
  List.exists
    (fun (e : Support.Journal.entry) ->
      String.equal e.Support.Journal.tag Rvaas.Journal.claim_tag
      &&
      match Rvaas.Journal.decode_entry e with
      | Ok (Rvaas.Journal.Claim { sid = s }) -> s = sid
      | Ok _ | Error _ -> false)
    (Support.Journal.entries log)

let test_quorum_partitioned_loser_heals () =
  (* Standby 0 observes the staleness first and journals its claim —
     then partitions before it can decide.  Its claim must expire, a
     healthy standby must win instead, and the healed standby 0 must
     rejoin as a standby of the new generation (no second takeover =
     no split brain) — yet still guard against the next crash. *)
  for seed = 1 to 6 do
    let s = ha_scenario ~seed ~config:{ ha_config with standbys = 0 } () in
    run_sim s ~until:0.3;
    let ctrl = Workload.Scenario.controller s in
    (* standby 0 ticks ~4 ms ahead of standbys 1 and 2 *)
    Rvaas.Failover.enable_standbys
      ~phase:(fun sid -> if sid = 0 then 0.0 else 0.004)
      ctrl ~count:3;
    run_sim s ~until:0.32;
    Rvaas.Failover.crash ctrl;
    let log = Rvaas.Journal.log (Rvaas.Failover.journal ctrl) in
    let deadline = sim_now s +. 0.3 in
    while (not (has_claim_by log ~sid:0)) && sim_now s < deadline do
      run_sim s ~until:(sim_now s +. 0.002)
    done;
    check Alcotest.bool "standby 0 claimed first" true (has_claim_by log ~sid:0);
    check Alcotest.int "no takeover yet (claim window open)" 0
      (List.length (Rvaas.Failover.takeovers ctrl));
    Rvaas.Failover.partition_standby ctrl ~sid:0;
    run_sim s ~until:(sim_now s +. 0.3);
    (let tks = Rvaas.Failover.takeovers ctrl in
     check Alcotest.int
       (Printf.sprintf "seed %d: healthy standby took over" seed)
       1 (List.length tks);
     let r = List.hd tks in
     check Alcotest.bool "partitioned claimant did not win" true
       (r.Rvaas.Failover.winner <> 0);
     check Alcotest.int "generation 2" 2 r.Rvaas.Failover.generation);
    Rvaas.Failover.heal_standby ctrl ~sid:0;
    run_sim s ~until:(sim_now s +. 0.3);
    check Alcotest.int "healed loser rejoined as standby (no split brain)" 1
      (List.length (Rvaas.Failover.takeovers ctrl));
    check Alcotest.int "generation still 2" 2 (Rvaas.Failover.generation ctrl);
    (* The healed standby is live again: next crash elects among all
       three, and standby 0 (lowest id, connected) wins this one. *)
    Rvaas.Failover.crash ctrl;
    run_sim s ~until:(sim_now s +. 0.45);
    let tks = Rvaas.Failover.takeovers ctrl in
    check Alcotest.int "second crash recovered" 2 (List.length tks);
    let r2 = List.nth tks 1 in
    check Alcotest.int "generation 3" 3 r2.Rvaas.Failover.generation;
    check Alcotest.int "healed standby 0 wins the next election" 0
      r2.Rvaas.Failover.winner
  done

(* ---- replica lag: elections over lag-bounded replica tails ---- *)

let lag_config = { ha_config with standbys = 0; replica_lag = 64; replica_delay = 0.02 }

(* The reconcile mechanics in isolation: a delayed tail is genuinely
   behind its source, and catch-up — what an election winner runs
   before takeover — applies the backlog until the view reaches the
   source exactly. *)
let test_replica_catch_up_mechanics () =
  let j = Rvaas.Journal.create ~checkpoint_every:100 () in
  let log = Rvaas.Journal.log j in
  let replica = Support.Replica.create ~max_lag:64 ~delay:0.02 log in
  for i = 1 to 10 do
    Rvaas.Journal.heartbeat j ~at:(0.01 *. float_of_int i)
  done;
  Support.Replica.pump replica ~now:0.105;
  check Alcotest.bool "tail lags the source" true (Support.Replica.queued replica > 0);
  check Alcotest.bool "view is behind" true
    (Support.Journal.length (Support.Replica.view replica) < Support.Journal.length log);
  let applied = Support.Replica.catch_up replica in
  check Alcotest.bool "catch-up applied the backlog" true (applied > 0);
  check Alcotest.int "view reaches the source"
    (Support.Journal.length log)
    (Support.Journal.length (Support.Replica.view replica));
  check Alcotest.bool "caught-up view verifies" true
    (Support.Journal.verify (Support.Replica.view replica))

let test_lagging_quorum_elections () =
  (* 24 seeds; each: replicas demonstrably behind the primary, crash,
     exactly one winner despite every election read going through a
     lagging view.  The takeover report shows the winners reconciling
     in-transit frames whenever rival claims were still in flight. *)
  let reconciling = ref 0 in
  for seed = 1 to 24 do
    let s = ha_scenario ~seed ~config:lag_config () in
    run_sim s ~until:0.3;
    let ctrl = Workload.Scenario.controller s in
    arm_phased ctrl ~seed ~count:3;
    run_sim s ~until:0.35;
    check Alcotest.bool
      (Printf.sprintf "seed %d: some replica tail is behind" seed)
      true
      (List.exists
         (fun sid ->
           Support.Replica.queued (Rvaas.Failover.standby_replica ctrl ~sid) > 0)
         [ 0; 1; 2 ]);
    Rvaas.Failover.crash ctrl;
    run_sim s ~until:0.9;
    let tks = Rvaas.Failover.takeovers ctrl in
    check Alcotest.int
      (Printf.sprintf "seed %d: exactly one takeover" seed)
      1 (List.length tks);
    let r = List.hd tks in
    check Alcotest.bool "winner is an armed standby" true
      (r.Rvaas.Failover.winner >= 0 && r.Rvaas.Failover.winner < 3);
    check Alcotest.int "generation 2" 2 r.Rvaas.Failover.generation;
    check Alcotest.bool "service live under the new generation" true
      (Rvaas.Service.live (Workload.Scenario.service s));
    if r.Rvaas.Failover.reconciled_records > 0 then incr reconciling
  done;
  check Alcotest.bool "lagging winners reconciled in-transit frames" true
    (!reconciling >= 6)

let test_lagging_winner_verdict_parity () =
  (* The non-crashed oracle and the crash-during-query run must extract
     the same verdict even when the election ran over lagging
     replicas. *)
  for seed = 1 to 3 do
    let s0 = ha_scenario ~seed ~config:lag_config () in
    run_sim s0 ~until:0.3;
    launch_join s0;
    run_sim s0 ~until:0.4;
    let expected = drive_query s0 in
    check Alcotest.bool "oracle run answers" true (expected <> None);
    let s = ha_scenario ~seed ~config:lag_config () in
    run_sim s ~until:0.3;
    let ctrl = Workload.Scenario.controller s in
    arm_phased ctrl ~seed ~count:3;
    launch_join s;
    run_sim s ~until:0.4;
    let got = drive_query ~crash_offset:0.002 s in
    (match Rvaas.Failover.last_takeover ctrl with
    | None -> Alcotest.fail "no takeover under replica lag"
    | Some r -> check Alcotest.int "generation 2" 2 r.Rvaas.Failover.generation);
    check Alcotest.bool "crashed run answers" true (got <> None);
    check
      (Alcotest.pair Alcotest.int (Alcotest.list Alcotest.string))
      (Printf.sprintf "seed %d: verdict parity under replica lag" seed)
      (Option.get expected) (Option.get got);
    check Alcotest.bool "join attack flagged" true (snd (Option.get got) <> [])
  done

let test_lagging_partitioned_cannot_win () =
  (* A partitioned replica receives nothing and is excluded from the
     claim merge: even as first claimant it must never win, and its
     heal goes through a wholesale resync. *)
  for seed = 1 to 6 do
    let s = ha_scenario ~seed ~config:lag_config () in
    run_sim s ~until:0.3;
    let ctrl = Workload.Scenario.controller s in
    Rvaas.Failover.enable_standbys
      ~phase:(fun sid -> if sid = 0 then 0.0 else 0.004)
      ctrl ~count:3;
    run_sim s ~until:0.32;
    Rvaas.Failover.crash ctrl;
    let log = Rvaas.Journal.log (Rvaas.Failover.journal ctrl) in
    let deadline = sim_now s +. 0.3 in
    while (not (has_claim_by log ~sid:0)) && sim_now s < deadline do
      run_sim s ~until:(sim_now s +. 0.002)
    done;
    check Alcotest.bool "standby 0 claimed" true (has_claim_by log ~sid:0);
    Rvaas.Failover.partition_standby ctrl ~sid:0;
    check Alcotest.bool "replica tail cut" true
      (Support.Replica.partitioned (Rvaas.Failover.standby_replica ctrl ~sid:0));
    run_sim s ~until:(sim_now s +. 0.4);
    let tks = Rvaas.Failover.takeovers ctrl in
    check Alcotest.int
      (Printf.sprintf "seed %d: healthy standby took over" seed)
      1 (List.length tks);
    check Alcotest.bool "partitioned lagging claimant did not win" true
      ((List.hd tks).Rvaas.Failover.winner <> 0);
    Rvaas.Failover.heal_standby ctrl ~sid:0;
    run_sim s ~until:(sim_now s +. 0.2);
    check Alcotest.bool "healed replica resynced wholesale" true
      (Support.Replica.resyncs (Rvaas.Failover.standby_replica ctrl ~sid:0) >= 1);
    check Alcotest.int "no split brain after the heal" 1
      (List.length (Rvaas.Failover.takeovers ctrl))
  done

let () =
  Alcotest.run "recovery"
    [
      ( "journal",
        [
          Alcotest.test_case "chained checksums and generations" `Quick
            test_journal_chain;
          Alcotest.test_case "codec round-trip" `Quick test_journal_codec_roundtrip;
          Alcotest.test_case "torn writes keep the valid prefix" `Quick
            test_journal_torn_write;
          QCheck_alcotest.to_alcotest prop_journal_any_cut;
        ] );
      ( "snapshot-image",
        [
          QCheck_alcotest.to_alcotest prop_snapshot_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_snapshot_image_rejects_garbage;
        ] );
      ( "typed-journal",
        [ Alcotest.test_case "checkpoint + replay recovery" `Quick test_typed_journal_recovery ] );
      ( "failover",
        [
          Alcotest.test_case "kill the controller" `Quick test_kill_the_controller;
          Alcotest.test_case "partition heals in place" `Quick test_partition_heals;
          Alcotest.test_case "restart replays the journal" `Quick test_restart_replay;
          Alcotest.test_case "live journal image recovers" `Quick
            test_live_journal_image_recovers;
        ] );
      ( "quorum",
        [
          Alcotest.test_case "single winner over 24 seeds" `Quick
            test_quorum_single_winner;
          Alcotest.test_case "partitioned loser heals and rejoins" `Quick
            test_quorum_partitioned_loser_heals;
        ] );
      ( "replica-lag",
        [
          Alcotest.test_case "delayed tail catch-up mechanics" `Quick
            test_replica_catch_up_mechanics;
          Alcotest.test_case "lagging quorum elections over 24 seeds" `Quick
            test_lagging_quorum_elections;
          Alcotest.test_case "lagging winner verdict parity" `Quick
            test_lagging_winner_verdict_parity;
          Alcotest.test_case "partitioned lagging claimant cannot win" `Quick
            test_lagging_partitioned_cannot_win;
        ] );
    ]
