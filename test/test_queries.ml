(* End-to-end coverage of every query kind through the full in-band
   protocol, plus adversarial message-level tests (spoofed auth
   replies, replayed challenges, wrong ingress ports). *)

let check = Alcotest.check

let build ?(clients = 2) ?(switches = 4) ?(isolation = true) () =
  let topo = Workload.Topogen.linear Workload.Topogen.default_params switches in
  Workload.Scenario.build
    { (Workload.Scenario.default_spec topo) with clients; isolation }

let ask s ~host query =
  match Workload.Scenario.query_and_wait s ~host query ~timeout:2.0 with
  | Some outcome -> outcome.Rvaas.Client_agent.answer
  | None -> Alcotest.fail "query timed out"

(* ---- Path_length ---- *)

let test_path_query_benign () =
  let s = build ~clients:1 ~switches:4 () in
  let dst = Option.get (Sdnctl.Addressing.host s.addressing ~host:3) in
  let answer = ask s ~host:0 (Rvaas.Query.make (Rvaas.Query.Path_length { dst_ip = dst.ip })) in
  (* Linear 0..3: the shortest (and only) path spans all 4 switches. *)
  check Alcotest.bool "path reported" true (answer.path_hops = Some (4, 4));
  let policy = Workload.Scenario.policy_for s ~host:0 in
  check Alcotest.int "no stretch alarm" 0
    (List.length (Rvaas.Detector.check_answer policy answer))

let test_path_query_detects_divert () =
  (* Ring gives the attacker a longer alternative. *)
  let topo = Workload.Topogen.ring Workload.Topogen.default_params 6 in
  let s =
    Workload.Scenario.build
      { (Workload.Scenario.default_spec topo) with clients = 1 }
  in
  Sdnctl.Attack.launch s.net s.addressing
    ~conn:(Sdnctl.Provider.conn s.provider)
    (Sdnctl.Attack.Divert { src_host = 0; dst_host = 2; via_sw = 4 });
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.2);
  let dst = Option.get (Sdnctl.Addressing.host s.addressing ~host:2) in
  let answer = ask s ~host:0 (Rvaas.Query.make (Rvaas.Query.Path_length { dst_ip = dst.ip })) in
  (match answer.path_hops with
  | Some (observed, optimal) ->
    check Alcotest.bool "diverted path longer than optimal" true (observed > optimal)
  | None -> Alcotest.fail "no path info");
  let policy = Workload.Scenario.policy_for s ~host:0 in
  check Alcotest.bool "stretch alarm raised" true
    (List.exists
       (function Rvaas.Detector.Path_stretch _ -> true | _ -> false)
       (Rvaas.Detector.check_answer policy answer))

(* ---- Fairness ---- *)

let test_fairness_query () =
  let s = build ~clients:1 ~switches:3 () in
  let benign = ask s ~host:0 (Rvaas.Query.make Rvaas.Query.Fairness) in
  check Alcotest.int "no meters on a benign network" 0 (List.length benign.meters);
  Sdnctl.Attack.launch s.net s.addressing
    ~conn:(Sdnctl.Provider.conn s.provider)
    (Sdnctl.Attack.Meter_squeeze { victim_host = 2; rate_kbps = 64 });
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.2);
  let attacked = ask s ~host:0 (Rvaas.Query.make Rvaas.Query.Fairness) in
  check Alcotest.bool "meter surfaces in answer" true
    (List.exists (fun (_, rate) -> rate = 64) attacked.meters);
  let policy =
    { (Workload.Scenario.policy_for s ~host:0) with Rvaas.Detector.min_rate_kbps = Some 1000 }
  in
  check Alcotest.bool "throttled alarm" true
    (List.exists
       (function Rvaas.Detector.Throttled _ -> true | _ -> false)
       (Rvaas.Detector.check_answer policy attacked))

(* ---- Geo scoping ---- *)

let test_geo_query_respects_scope () =
  let s = build ~clients:1 ~switches:4 () in
  (* Mark the last switch with a unique jurisdiction. *)
  Geo.Registry.set_switch s.geo_truth ~sw:3
    (Geo.Location.make ~lat:1.0 ~lon:1.0 ~jurisdiction:"ZZ");
  let h1 = Option.get (Sdnctl.Addressing.host s.addressing ~host:1) in
  (* Scoped to traffic for the adjacent host 1, switch 3 is never
     visited. *)
  let scoped =
    ask s ~host:0 (Rvaas.Query.make ~scope:(Rvaas.Verifier.dst_ip_hs h1.ip) Rvaas.Query.Geo)
  in
  check Alcotest.bool "ZZ not traversed for scoped flow" false
    (List.mem "ZZ" scoped.jurisdictions);
  (* Unscoped, traffic to host 3 passes switch 3. *)
  let unscoped = ask s ~host:0 (Rvaas.Query.make Rvaas.Query.Geo) in
  check Alcotest.bool "ZZ traversed for unscoped traffic" true
    (List.mem "ZZ" unscoped.jurisdictions)

(* ---- Transfer summary ---- *)

let test_transfer_summary_end_to_end () =
  let s = build ~clients:2 ~switches:4 () in
  let answer = ask s ~host:0 (Rvaas.Query.make Rvaas.Query.Transfer_summary) in
  (* Client 0 (hosts 0, 2): its traffic can reach host 2's access
     point; every transfer cell carries a non-empty header space. *)
  check Alcotest.bool "transfer cells present" true (answer.transfer <> []);
  List.iter
    (fun (_sw, _port, hs) ->
      check Alcotest.bool "non-empty arriving space" false (Hspace.Hs.is_empty hs))
    answer.transfer;
  (* The reported arriving spaces agree with a direct verifier run on
     the same snapshot. *)
  let topo = Netsim.Net.topology s.net in
  let att = Option.get (Netsim.Topology.host_attachment topo 0) in
  let sw =
    match att.Netsim.Topology.node with
    | Netsim.Topology.Switch sw -> sw
    | _ -> assert false
  in
  let flows_of sw = Rvaas.Snapshot.flows (Rvaas.Monitor.snapshot s.monitor) ~sw in
  let direct =
    Rvaas.Verifier.reach ~flows_of topo ~src_sw:sw ~src_port:att.Netsim.Topology.port
      ~hs:(Rvaas.Verifier.ip_traffic_hs ())
  in
  List.iter
    (fun (tsw, tport, ths) ->
      match
        List.find_opt
          (fun ((ep : Rvaas.Verifier.endpoint), _) -> ep.sw = tsw && ep.port = tport)
          direct.endpoints
      with
      | Some (_, dhs) ->
        check Alcotest.bool "transfer matches verifier" true (Hspace.Hs.equal ths dhs)
      | None -> Alcotest.fail "transfer cell for unknown endpoint")
    answer.transfer

(* E18's rolling drop filter (exact Eth_type, Ip_src and Tp_dst at
   priority 150, above the /32 routes) splits every arrival space into
   dozens of cubes, and a transfer answer prints each space's cubes in
   the order normalisation leaves them.  The digest of the rendered
   cells was recorded before the builder's sweep skipped its
   equal-count tests, so it pins that order byte for byte. *)
let transfer_split_digest = "c1aef25f2a2023132e7a15679800f13e"

let test_transfer_split_bytes () =
  let s = build ~clients:2 ~switches:4 () in
  let conn = Sdnctl.Provider.conn s.provider in
  List.iter
    (fun (sw, i) ->
      let m =
        Ofproto.Match_.with_exact
          (Ofproto.Match_.with_exact
             (Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Eth_type 0x800)
             Hspace.Field.Ip_src (0xa000000 + i))
          Hspace.Field.Tp_dst (5000 + (i mod 50))
      in
      Netsim.Net.send s.net conn ~sw
        (Ofproto.Message.Flow_mod
           (Ofproto.Message.Add_flow (Ofproto.Flow_entry.make_spec ~cookie:77 ~priority:150 m []))))
    [ (0, 1); (1, 2); (1, 3); (2, 4) ];
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.2);
  let answer = ask s ~host:0 (Rvaas.Query.make Rvaas.Query.Transfer_summary) in
  check Alcotest.bool "some space split past the hash-dedup size" true
    (List.exists (fun (_, _, hs) -> Hspace.Hs.cube_count hs > 12) answer.transfer);
  let b = Buffer.create 4096 in
  List.iter
    (fun (sw, port, hs) ->
      List.iter
        (fun cube ->
          Buffer.add_string b (Printf.sprintf "%d,%d,%s\n" sw port (Hspace.Tern.to_string cube)))
        (Hspace.Hs.cubes hs))
    answer.transfer;
  check Alcotest.string "rendered cells" transfer_split_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ---- Sources_reaching_me with scope ---- *)

let test_sources_scoped () =
  let s = build ~clients:1 ~switches:3 () in
  (* Scope to TCP only: sources still reach (routing is
     protocol-agnostic). *)
  let w = Hspace.Field.total_width in
  let tcp =
    Hspace.Hs.of_cube
      (Hspace.Field.set_exact
         (Hspace.Field.set_exact (Hspace.Tern.all_x w) Hspace.Field.Eth_type
            Hspace.Header.eth_type_ip)
         Hspace.Field.Ip_proto Hspace.Header.proto_tcp)
  in
  let answer = ask s ~host:0 (Rvaas.Query.make ~scope:tcp Rvaas.Query.Sources_reaching_me) in
  check Alcotest.bool "own points reported" true (answer.endpoints <> [])

(* ---- all-source answers against the reference verifier ---- *)

let endpoint_id (ep : Rvaas.Verifier.endpoint) =
  Printf.sprintf "%d/%d/%d" ep.host ep.sw ep.port

(* The probe list an all-source query must produce, derived from the
   access points, the addressing plan and [Verifier_ref] over the
   monitored view: the client's own points, then every other point
   from which some traffic in [hs] arrives at one of them. *)
let oracle_probes s ~client ~hs =
  let topo = Netsim.Net.topology s.Workload.Scenario.net in
  let snapshot = Rvaas.Monitor.snapshot s.monitor in
  let flows_of sw = Rvaas.Snapshot.flows snapshot ~sw in
  let points = Rvaas.Verifier.access_points topo in
  let own_hosts =
    List.map
      (fun (h : Sdnctl.Addressing.host_info) -> h.host)
      (Sdnctl.Addressing.hosts_of_client s.addressing ~client)
  in
  let own, others =
    List.partition
      (fun (ep : Rvaas.Verifier.endpoint) -> List.mem ep.host own_hosts)
      points
  in
  let reaches_own (src : Rvaas.Verifier.endpoint) =
    let r =
      Rvaas.Verifier_ref.reach ~flows_of topo ~src_sw:src.sw ~src_port:src.port ~hs
    in
    List.exists (fun (ep, _) -> List.mem ep own) r.Rvaas.Verifier.endpoints
  in
  List.map endpoint_id (own @ List.filter reaches_own others)

let test_all_source_oracle topo () =
  let s = Workload.Scenario.build (Workload.Scenario.default_spec topo) in
  let settle () =
    Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.3)
  in
  settle ();
  let client = 0 in
  let att = Option.get (Netsim.Topology.host_attachment topo 0) in
  let sw =
    match att.Netsim.Topology.node with
    | Netsim.Topology.Switch sw -> sw
    | Netsim.Topology.Host _ -> assert false
  in
  let ip = Rvaas.Verifier.ip_traffic_hs () in
  (* The join attack only diverts traffic addressed to the victim, so
     a scope of traffic to the other client's subnet must keep the
     attacker out of the answer. *)
  let elsewhere =
    let value, prefix_len = Sdnctl.Addressing.subnet s.addressing ~client:1 in
    Rvaas.Verifier.dst_prefix_hs ~value ~prefix_len
  in
  (* (label, query, the oracle's scope): Isolation always asks about
     all IP traffic, whatever scope the client sent; Sources_reaching_me
     about its effective scope. *)
  let questions =
    [
      ("isolation", Rvaas.Query.make Rvaas.Query.Isolation, ip);
      ("isolation, scoped", Rvaas.Query.make ~scope:elsewhere Rvaas.Query.Isolation, ip);
      ("sources", Rvaas.Query.make Rvaas.Query.Sources_reaching_me, ip);
      ( "sources, scoped",
        Rvaas.Query.make ~scope:elsewhere Rvaas.Query.Sources_reaching_me,
        Hspace.Hs.inter elsewhere ip );
    ]
  in
  let answers phase =
    List.map
      (fun (label, query, hs) ->
        let expected = oracle_probes s ~client ~hs in
        let _, probes =
          Rvaas.Service.evaluate s.service ~client ~sw
            ~port:att.Netsim.Topology.port query
        in
        check
          Alcotest.(list string)
          (Printf.sprintf "%s, %s" label phase)
          expected (List.map endpoint_id probes);
        expected)
      questions
  in
  let before = answers "before the attack" in
  (* Two attackers, so the order of the sources is checked too. *)
  List.iter
    (fun attacker_host ->
      Sdnctl.Attack.launch s.net s.addressing
        ~conn:(Sdnctl.Provider.conn s.provider)
        (Sdnctl.Attack.Join { victim_client = client; attacker_host }))
    [ 1; 3 ];
  settle ();
  let after = answers "after a join attack" in
  check Alcotest.bool "the attack changed the isolation answer" true
    (List.nth before 0 <> List.nth after 0);
  check Alcotest.bool "the scope kept the attacker out" true
    (List.nth after 2 <> List.nth after 3)

(* ---- service statistics across a query ---- *)

let test_service_stats_progress () =
  let s = build ~clients:1 ~switches:3 () in
  let before = Rvaas.Service.stats s.service in
  let received0 = before.queries_received and answers0 = before.answers_sent in
  ignore (ask s ~host:0 (Rvaas.Query.make Rvaas.Query.Isolation));
  let after = Rvaas.Service.stats s.service in
  check Alcotest.int "one query received" (received0 + 1) after.queries_received;
  check Alcotest.int "one answer sent" (answers0 + 1) after.answers_sent;
  check Alcotest.int "nothing rejected" 0 after.queries_rejected

(* ---- adversarial auth replies ---- *)

let inject s ~host payload ~dst_port =
  let info = Option.get (Sdnctl.Addressing.host s.Workload.Scenario.addressing ~host) in
  let header =
    Hspace.Header.udp ~src_ip:info.ip ~dst_ip:Rvaas.Wire.service_ip ~src_port:0 ~dst_port
  in
  Netsim.Net.host_send s.net ~host (Netsim.Packet.make ~header payload)

let test_spoofed_auth_reply_rejected () =
  (* An attacker (client 1) answers with a guessed challenge: the reply
     must be rejected, not credited to any probe. *)
  let s = build ~clients:2 ~switches:4 () in
  let key = Option.get (Rvaas.Directory.key s.directory ~client:1) in
  let spoof = Rvaas.Codec.encode_auth_reply ~client:1 ~challenge:"guessed" ~key in
  let rejected0 = (Rvaas.Service.stats s.service).auth_replies_rejected in
  inject s ~host:1 spoof ~dst_port:Rvaas.Wire.auth_reply_port;
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.1);
  check Alcotest.int "spoofed reply rejected" (rejected0 + 1)
    (Rvaas.Service.stats s.service).auth_replies_rejected

let test_wrong_port_auth_reply_rejected () =
  (* A valid challenge echoed from the WRONG access point must not
     authenticate the probed endpoint: the service only accepts replies
     arriving on the probed port (the Packet-In ingress is
     authoritative). *)
  let s = build ~clients:1 ~switches:3 () in
  (* Intercept host 2's auth request by muting its agent and capturing
     the challenge through a custom receiver. *)
  let challenge = ref None in
  Netsim.Net.set_host_receiver s.net ~host:2 (fun packet ->
      let dst = Hspace.Header.get packet.Netsim.Packet.header Hspace.Field.Tp_dst in
      if dst = Rvaas.Wire.auth_request_port then
        match
          Rvaas.Codec.decode_auth_request packet.Netsim.Packet.payload
            ~service_public:(Rvaas.Service.public s.service)
        with
        | Ok c -> challenge := Some c
        | Error _ -> ());
  (* Client 0's host 0 queries isolation; probes go to hosts 0,1,2. *)
  let agent = Workload.Scenario.agent s ~host:0 in
  ignore (Rvaas.Client_agent.send_query agent (Rvaas.Query.make Rvaas.Query.Isolation));
  (* Give the probes time to arrive but replay before the collection
     window closes. *)
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.012);
  (match !challenge with
  | None -> Alcotest.fail "no auth request captured"
  | Some c ->
    (* Replay host 2's challenge from host 1 (wrong access point). *)
    let key = Option.get (Rvaas.Directory.key s.directory ~client:0) in
    let replay = Rvaas.Codec.encode_auth_reply ~client:0 ~challenge:c ~key in
    inject s ~host:1 replay ~dst_port:Rvaas.Wire.auth_reply_port);
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 1.0);
  (* The answer must show host 2's endpoint unauthenticated. *)
  match Rvaas.Client_agent.outcomes agent with
  | [ outcome ] ->
    let answer = outcome.Rvaas.Client_agent.answer in
    let ep2 =
      List.find_opt
        (fun (e : Rvaas.Query.endpoint_report) -> e.sw = 2)
        answer.endpoints
    in
    (match ep2 with
    | Some e -> check Alcotest.bool "replayed endpoint not authenticated" false e.authenticated
    | None -> Alcotest.fail "host 2's endpoint missing from answer")
  | _ -> Alcotest.fail "expected exactly one outcome"

(* A keyed client's malformed scope is refused at the codec: the
   simulation keeps running and another tenant's concurrent query is
   still answered. *)
let test_bad_scope_rejected_end_to_end () =
  let s = build ~clients:2 ~switches:4 () in
  let rejected0 = (Rvaas.Service.stats s.service).queries_rejected in
  let send host scope =
    let agent = Workload.Scenario.agent s ~host in
    ignore (Rvaas.Client_agent.send_query agent (Rvaas.Query.make ~scope Rvaas.Query.Reachable_endpoints));
    agent
  in
  let hostile = send 0 (Hspace.Hs.of_cube (Hspace.Tern.of_string "01x01")) in
  let honest = send 1 (Rvaas.Verifier.ip_traffic_hs ()) in
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 1.0);
  check Alcotest.int "malformed scope counted as rejected" (rejected0 + 1)
    (Rvaas.Service.stats s.service).queries_rejected;
  check Alcotest.int "hostile query unanswered" 0 (List.length (Rvaas.Client_agent.outcomes hostile));
  match Rvaas.Client_agent.outcomes honest with
  | [ outcome ] -> check Alcotest.bool "honest answer signed" true outcome.Rvaas.Client_agent.signature_ok
  | _ -> Alcotest.fail "the honest tenant's query was not answered"

(* ---- agent behaviour ---- *)

let test_agent_counts_auth_requests () =
  let s = build ~clients:1 ~switches:3 () in
  let agent1 = Workload.Scenario.agent s ~host:1 in
  let before = Rvaas.Client_agent.auth_requests_answered agent1 in
  ignore (ask s ~host:0 (Rvaas.Query.make Rvaas.Query.Isolation));
  check Alcotest.int "agent answered one auth request" (before + 1)
    (Rvaas.Client_agent.auth_requests_answered agent1)

let test_agent_ignores_foreign_answers () =
  let s = build ~clients:2 ~switches:3 () in
  let agent = Workload.Scenario.agent s ~host:0 in
  (* An answer with an unknown nonce (e.g. for another client) is not
     recorded as an outcome. *)
  ignore agent;
  ignore (ask s ~host:1 (Rvaas.Query.make Rvaas.Query.Isolation));
  check Alcotest.int "no outcome for host 0" 0
    (List.length (Rvaas.Client_agent.outcomes agent))

let () =
  let p = Workload.Topogen.default_params in
  Alcotest.run "queries"
    [
      ( "kinds",
        [
          Alcotest.test_case "path benign" `Quick test_path_query_benign;
          Alcotest.test_case "path detects divert" `Quick test_path_query_detects_divert;
          Alcotest.test_case "fairness" `Quick test_fairness_query;
          Alcotest.test_case "geo scope" `Quick test_geo_query_respects_scope;
          Alcotest.test_case "transfer end-to-end" `Quick test_transfer_summary_end_to_end;
          Alcotest.test_case "split transfer bytes" `Quick test_transfer_split_bytes;
          Alcotest.test_case "sources scoped" `Quick test_sources_scoped;
        ] );
      ( "all-source",
        List.map
          (fun (name, topo) ->
            Alcotest.test_case
              (Printf.sprintf "oracle %s sweep" name)
              `Quick (test_all_source_oracle topo))
          [
            ("grid-3x3", Workload.Topogen.grid p ~rows:3 ~cols:3);
            ("fat-tree-k4", Workload.Topogen.fat_tree p ~k:4);
          ] );
      ( "protocol",
        [
          Alcotest.test_case "service stats" `Quick test_service_stats_progress;
          Alcotest.test_case "spoofed auth reply" `Quick test_spoofed_auth_reply_rejected;
          Alcotest.test_case "wrong-port replay" `Quick test_wrong_port_auth_reply_rejected;
          Alcotest.test_case "malformed scope rejected" `Quick
            test_bad_scope_rejected_end_to_end;
          Alcotest.test_case "agent auth counter" `Quick test_agent_counts_auth_requests;
          Alcotest.test_case "agent ignores foreign answers" `Quick
            test_agent_ignores_foreign_answers;
        ] );
    ]
