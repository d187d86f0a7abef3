(* End-to-end integration tests: full RVaaS deployments on generated
   topologies, benign and under attack.  These are the executable
   versions of the paper's Figures 1 and 2 and its case studies. *)

let check = Alcotest.check

let ip_hs () = Rvaas.Verifier.ip_traffic_hs ()

let build_linear ?(clients = 2) ?(switches = 4) ?(seed = 42) () =
  let topo = Workload.Topogen.linear Workload.Topogen.default_params switches in
  let spec = { (Workload.Scenario.default_spec topo) with clients; seed } in
  Workload.Scenario.build spec

(* ---- benign network: queries answer and raise no alarms ---- *)

let test_benign_isolation () =
  let s = build_linear () in
  match
    Workload.Scenario.query_and_wait s ~host:0
      (Rvaas.Query.make Rvaas.Query.Isolation)
      ~timeout:1.0
  with
  | None -> Alcotest.fail "no answer to isolation query"
  | Some outcome ->
    let answer = outcome.Rvaas.Client_agent.answer in
    check Alcotest.bool "signature verified" true outcome.signature_ok;
    (* Host 0 belongs to client 0; with isolation ACLs only client 0's
       own points can reach it. *)
    let policy = Workload.Scenario.policy_for s ~host:0 in
    let alarms = Rvaas.Detector.check_answer policy answer in
    check Alcotest.int "no alarms on benign network" 0 (List.length alarms);
    check Alcotest.bool "counting defence satisfied" true
      (answer.auth_replies = answer.total_auth_requests)

let test_benign_reachability_matches_clients () =
  let s = build_linear ~clients:2 ~switches:4 () in
  (* Host 0 (client 0) can reach exactly client 0's other hosts. *)
  match
    Workload.Scenario.query_and_wait s ~host:0
      (Rvaas.Query.make Rvaas.Query.Reachable_endpoints)
      ~timeout:1.0
  with
  | None -> Alcotest.fail "no answer"
  | Some outcome ->
    let answer = outcome.Rvaas.Client_agent.answer in
    let topo = Netsim.Net.topology s.net in
    let own = Sdnctl.Addressing.access_points s.addressing topo ~client:0 in
    List.iter
      (fun (e : Rvaas.Query.endpoint_report) ->
        check Alcotest.bool "reached endpoint belongs to client 0" true
          (List.mem (e.sw, e.port) own))
      answer.endpoints;
    check Alcotest.bool "reaches at least one peer" true (answer.endpoints <> [])

(* ---- Fig. 1 + 2 under attack: join attack detected ---- *)

let test_join_attack_detected () =
  let s = build_linear ~clients:2 ~switches:4 () in
  (* Host 1 belongs to client 1 and attacks client 0. *)
  Sdnctl.Attack.launch s.net s.addressing
    ~conn:(Sdnctl.Provider.conn s.provider)
    (Sdnctl.Attack.Join { victim_client = 0; attacker_host = 1 });
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.2);
  match
    Workload.Scenario.query_and_wait s ~host:0
      (Rvaas.Query.make Rvaas.Query.Isolation)
      ~timeout:1.0
  with
  | None -> Alcotest.fail "no answer under attack"
  | Some outcome ->
    let answer = outcome.Rvaas.Client_agent.answer in
    let policy = Workload.Scenario.policy_for s ~host:0 in
    let alarms = Rvaas.Detector.check_answer policy answer in
    let unknown_point =
      List.exists
        (function Rvaas.Detector.Unknown_access_point _ -> true | _ -> false)
        alarms
    in
    check Alcotest.bool "join attack raises unknown-access-point alarm" true unknown_point

let test_benign_then_attack_differs () =
  let benign = build_linear () in
  let attacked = build_linear () in
  Sdnctl.Attack.launch attacked.net attacked.addressing
    ~conn:(Sdnctl.Provider.conn attacked.provider)
    (Sdnctl.Attack.Join { victim_client = 0; attacker_host = 1 });
  Workload.Scenario.run attacked
    ~until:(Netsim.Sim.now (Netsim.Net.sim attacked.net) +. 0.2);
  let count s =
    match
      Workload.Scenario.query_and_wait s ~host:0
        (Rvaas.Query.make Rvaas.Query.Isolation)
        ~timeout:1.0
    with
    | None -> -1
    | Some o -> List.length o.Rvaas.Client_agent.answer.Rvaas.Query.endpoints
  in
  let b = count benign and a = count attacked in
  check Alcotest.bool "attack adds at least one endpoint" true (a > b && b >= 0)

(* ---- exfiltration detected by the sender's reachability query ---- *)

let test_exfiltration_detected () =
  let s = build_linear ~clients:2 ~switches:4 () in
  (* Client 0 owns hosts 0 and 2; attacker host 1 (client 1).
     Traffic to host 2 is duplicated to host 1. *)
  Sdnctl.Attack.launch s.net s.addressing
    ~conn:(Sdnctl.Provider.conn s.provider)
    (Sdnctl.Attack.Exfiltrate { victim_host = 2; attacker_host = 1 });
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.2);
  match
    Workload.Scenario.query_and_wait s ~host:0
      (Rvaas.Query.make Rvaas.Query.Reachable_endpoints)
      ~timeout:1.0
  with
  | None -> Alcotest.fail "no answer"
  | Some outcome ->
    let answer = outcome.Rvaas.Client_agent.answer in
    let policy = Workload.Scenario.policy_for s ~host:0 in
    let alarms = Rvaas.Detector.check_answer policy answer in
    check Alcotest.bool "exfiltration raises an alarm" true (alarms <> [])

(* ---- a blackholed own peer goes missing from the reachability answer ---- *)

let test_blackhole_detected () =
  let s = build_linear ~clients:2 ~switches:4 () in
  (* Client 0 owns hosts 0 and 2; traffic to host 2 is dropped. *)
  Sdnctl.Attack.launch s.net s.addressing
    ~conn:(Sdnctl.Provider.conn s.provider)
    (Sdnctl.Attack.Blackhole { victim_host = 2 });
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.2);
  match
    Workload.Scenario.query_and_wait s ~host:0
      (Rvaas.Query.make Rvaas.Query.Reachable_endpoints)
      ~timeout:1.0
  with
  | None -> Alcotest.fail "no answer"
  | Some outcome ->
    let alarms =
      Rvaas.Detector.check_answer
        (Workload.Scenario.policy_for s ~host:0)
        outcome.Rvaas.Client_agent.answer
    in
    check Alcotest.bool "blackhole raises unreachable-expected" true
      (List.exists
         (function Rvaas.Detector.Unreachable_expected _ -> true | _ -> false)
         alarms)

(* ---- logical/physical agreement: HSA result = simulated delivery ---- *)

let deliveries_by_simulation s ~src_host =
  (* Send a concrete packet to every registered host IP and record which
     hosts actually receive it. *)
  let received = ref [] in
  List.iter
    (fun (host, _agent) ->
      Netsim.Net.set_host_receiver s.Workload.Scenario.net ~host (fun packet ->
          let dst = Hspace.Header.get packet.Netsim.Packet.header Hspace.Field.Ip_dst in
          received := (host, dst) :: !received))
    s.Workload.Scenario.agents;
  let src = Option.get (Sdnctl.Addressing.host s.addressing ~host:src_host) in
  List.iter
    (fun (info : Sdnctl.Addressing.host_info) ->
      if info.host <> src_host then begin
        let header =
          Hspace.Header.udp ~src_ip:src.ip ~dst_ip:info.ip ~src_port:1234 ~dst_port:80
        in
        Netsim.Net.host_send s.net ~host:src_host (Netsim.Packet.make ~header "probe")
      end)
    (Sdnctl.Addressing.all_hosts s.addressing);
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 1.0);
  List.sort_uniq compare !received

let test_hsa_agrees_with_simulation () =
  let s = build_linear ~clients:3 ~switches:5 () in
  let topo = Netsim.Net.topology s.net in
  let src_host = 0 in
  let attachment = Option.get (Netsim.Topology.host_attachment topo src_host) in
  let sw =
    match attachment.Netsim.Topology.node with
    | Netsim.Topology.Switch sw -> sw
    | _ -> Alcotest.fail "host attached to non-switch"
  in
  (* Logical: reachable endpoints per the *actual* switch tables. *)
  let result =
    Rvaas.Verifier.reach
      ~flows_of:(Workload.Scenario.actual_flows s)
      topo ~src_sw:sw ~src_port:attachment.Netsim.Topology.port ~hs:(ip_hs ())
  in
  let logical_hosts =
    List.sort_uniq compare
      (List.map (fun ((ep : Rvaas.Verifier.endpoint), _) -> ep.host) result.endpoints)
  in
  (* Physical: actually deliver probes. *)
  let delivered = deliveries_by_simulation s ~src_host in
  let physical_hosts = List.sort_uniq compare (List.map fst delivered) in
  (* Every physically reached host must be logically predicted.  (The
     logical result may be a superset: the probe only samples one
     concrete header per destination.) *)
  List.iter
    (fun host ->
      check Alcotest.bool
        (Printf.sprintf "host %d delivery predicted by HSA" host)
        true (List.mem host logical_hosts))
    physical_hosts;
  check Alcotest.bool "some probe delivered" true (physical_hosts <> [])

(* ---- counting defence: muted client detected ---- *)

let test_counting_defence () =
  let s = build_linear ~clients:1 ~switches:3 () in
  (* All hosts belong to client 0; mute host 1's agent. *)
  Rvaas.Client_agent.set_mute (Workload.Scenario.agent s ~host:1) true;
  match
    Workload.Scenario.query_and_wait s ~host:0
      (Rvaas.Query.make Rvaas.Query.Isolation)
      ~timeout:1.0
  with
  | None -> Alcotest.fail "no answer"
  | Some outcome ->
    let answer = outcome.Rvaas.Client_agent.answer in
    check Alcotest.bool "fewer replies than requests" true
      (answer.auth_replies < answer.total_auth_requests);
    let policy = Workload.Scenario.policy_for s ~host:0 in
    let alarms = Rvaas.Detector.check_answer policy answer in
    check Alcotest.bool "missing-replies alarm raised" true
      (List.exists
         (function Rvaas.Detector.Missing_replies _ -> true | _ -> false)
         alarms)

(* ---- transient attack caught by history even after retraction ---- *)

let test_transient_attack_in_history () =
  let s = build_linear ~clients:2 ~switches:4 () in
  let baseline = Workload.Scenario.baseline s in
  let now = Netsim.Sim.now (Netsim.Net.sim s.net) in
  Sdnctl.Attack.launch s.net s.addressing
    ~conn:(Sdnctl.Provider.conn s.provider)
    (Sdnctl.Attack.Transient
       {
         attack = Sdnctl.Attack.Blackhole { victim_host = 0 };
         start = now +. 0.05;
         duration = 0.05;
       });
  (* Run well past the retraction. *)
  Workload.Scenario.run s ~until:(now +. 0.5);
  (* The rule is gone from the data plane... *)
  let attacker_rules sw =
    List.filter
      (fun (spec : Ofproto.Flow_entry.spec) -> spec.cookie = Sdnctl.Attack.cookie)
      (Workload.Scenario.actual_flows s sw)
  in
  let live =
    List.concat_map attacker_rules (Netsim.Topology.switches (Netsim.Net.topology s.net))
  in
  check Alcotest.int "attack rule retracted from data plane" 0 (List.length live);
  (* ...but the monitoring history still convicts it. *)
  let alarms = Rvaas.Detector.check_history baseline (Rvaas.Monitor.history s.monitor) in
  check Alcotest.bool "history shows config drift" true
    (List.exists (function Rvaas.Detector.Config_drift _ -> true | _ -> false) alarms)

(* ---- benign history: polls that confirm the baseline are quiet ---- *)

let test_benign_polls_no_drift () =
  let topo = Workload.Topogen.linear Workload.Topogen.default_params 3 in
  let s =
    Workload.Scenario.build
      { (Workload.Scenario.default_spec topo) with polling = Rvaas.Monitor.Periodic 0.1 }
  in
  let baseline = Workload.Scenario.baseline s in
  let now = Netsim.Sim.now (Netsim.Net.sim s.net) in
  Workload.Scenario.run s ~until:(now +. 1.5);
  let history = Rvaas.Monitor.history s.monitor in
  let polls =
    List.filter (fun (e : Rvaas.Monitor.history_entry) ->
        match e.what with Rvaas.Monitor.Poll _ -> true | _ -> false)
      history
  in
  check Alcotest.bool "polls recorded" true (List.length polls >= 30);
  check Alcotest.int "no drift on a benign history" 0
    (List.length (Rvaas.Detector.check_history baseline history))

(* ---- exact agreement: for random configurations and concrete
   headers, the set of hosts the verifier predicts equals the set of
   hosts the simulator delivers to ---- *)

let random_topo rng =
  let p = Workload.Topogen.default_params in
  match Support.Rng.int rng 3 with
  | 0 -> Workload.Topogen.linear p (Support.Rng.int_range rng 2 5)
  | 1 -> Workload.Topogen.ring p (Support.Rng.int_range rng 3 6)
  | _ ->
    Workload.Topogen.grid p ~rows:(Support.Rng.int_range rng 2 3)
      ~cols:(Support.Rng.int_range rng 2 3)

let random_attack rng s =
  let hosts = Netsim.Topology.hosts (Netsim.Net.topology s.Workload.Scenario.net) in
  let pick_host () = Support.Rng.pick rng hosts in
  match Support.Rng.int rng 4 with
  | 0 -> None
  | 1 ->
    let info =
      Option.get (Sdnctl.Addressing.host s.addressing ~host:(pick_host ()))
    in
    Some
      (Sdnctl.Attack.Join
         { victim_client = info.client; attacker_host = pick_host () })
  | 2 -> Some (Sdnctl.Attack.Blackhole { victim_host = pick_host () })
  | _ ->
    let victim = pick_host () in
    let attacker = pick_host () in
    if victim = attacker then None
    else Some (Sdnctl.Attack.Exfiltrate { victim_host = victim; attacker_host = attacker })

let random_header rng s =
  let hosts = Sdnctl.Addressing.all_hosts s.Workload.Scenario.addressing in
  let ip () =
    if Support.Rng.bernoulli rng 0.8 then
      (Support.Rng.pick rng hosts).Sdnctl.Addressing.ip
    else Support.Rng.int rng 0xFFFFFFF
  in
  let h =
    Hspace.Header.udp ~src_ip:(ip ()) ~dst_ip:(ip ())
      ~src_port:(Support.Rng.int rng 65536)
      ~dst_port:
        (if Support.Rng.bernoulli rng 0.1 then Rvaas.Wire.request_port
         else Support.Rng.int rng 65536)
  in
  if Support.Rng.bernoulli rng 0.2 then
    Hspace.Header.set h Hspace.Field.Ip_proto Hspace.Header.proto_tcp
  else h

let test_exact_agreement () =
  let rng = Support.Rng.create 2024 in
  for trial = 1 to 8 do
    let topo = random_topo rng in
    let spec =
      {
        (Workload.Scenario.default_spec topo) with
        clients = Support.Rng.int_range rng 1 3;
        seed = 1000 + trial;
        isolation = Support.Rng.bool rng;
      }
    in
    let s = Workload.Scenario.build spec in
    (match random_attack rng s with
    | None -> ()
    | Some attack ->
      Sdnctl.Attack.launch s.net s.addressing
        ~conn:(Sdnctl.Provider.conn s.provider)
        attack);
    Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.3);
    (* Replace the agents with delivery recorders. *)
    let delivered : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (host, _agent) ->
        Netsim.Net.set_host_receiver s.net ~host (fun _ ->
            Hashtbl.replace delivered host ()))
      s.agents;
    let ctx =
      Rvaas.Verifier.context ~flows_of:(Workload.Scenario.actual_flows s)
        (Netsim.Net.topology s.net)
    in
    for _ = 1 to 6 do
      let header = random_header rng s in
      let src_host = Support.Rng.pick rng (Netsim.Topology.hosts topo) in
      let att = Option.get (Netsim.Topology.host_attachment topo src_host) in
      let src_sw =
        match att.Netsim.Topology.node with
        | Netsim.Topology.Switch sw -> sw
        | _ -> Alcotest.fail "host on non-switch"
      in
      (* Logical prediction for this one concrete header. *)
      let singleton = Hspace.Hs.of_cube (Hspace.Header.to_tern header) in
      let r =
        Rvaas.Verifier.reach_in ctx ~src_sw ~src_port:att.Netsim.Topology.port
          ~hs:singleton
      in
      let predicted =
        List.sort_uniq compare
          (List.map (fun ((ep : Rvaas.Verifier.endpoint), _) -> ep.host) r.endpoints)
      in
      (* Physical delivery. *)
      Hashtbl.reset delivered;
      Netsim.Net.host_send s.net ~host:src_host (Netsim.Packet.make ~header "agree");
      Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.5);
      let actual =
        Hashtbl.fold (fun h () acc -> h :: acc) delivered [] |> List.sort_uniq compare
      in
      check (Alcotest.list Alcotest.int)
        (Printf.sprintf "trial %d: predicted = delivered" trial)
        predicted actual
    done
  done

(* ---- geo query reports traversed jurisdictions ---- *)

let test_geo_query () =
  let s = build_linear ~clients:1 ~switches:4 () in
  match
    Workload.Scenario.query_and_wait s ~host:0
      (Rvaas.Query.make Rvaas.Query.Geo)
      ~timeout:1.0
  with
  | None -> Alcotest.fail "no answer"
  | Some outcome ->
    let answer = outcome.Rvaas.Client_agent.answer in
    check Alcotest.bool "geo answer nonempty" true (answer.jurisdictions <> []);
    List.iter
      (fun j ->
        check Alcotest.bool "jurisdiction from ground-truth pool" true
          (List.mem j s.spec.jurisdictions))
      answer.jurisdictions

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "benign isolation query (Fig 1+2)" `Quick test_benign_isolation;
          Alcotest.test_case "benign reachability respects isolation" `Quick
            test_benign_reachability_matches_clients;
          Alcotest.test_case "join attack detected" `Quick test_join_attack_detected;
          Alcotest.test_case "attack changes endpoint count" `Quick
            test_benign_then_attack_differs;
          Alcotest.test_case "exfiltration detected" `Quick test_exfiltration_detected;
          Alcotest.test_case "blackhole detected" `Quick test_blackhole_detected;
          Alcotest.test_case "HSA agrees with simulation" `Quick
            test_hsa_agrees_with_simulation;
          Alcotest.test_case "exact agreement on random configs" `Quick
            test_exact_agreement;
          Alcotest.test_case "counting defence" `Quick test_counting_defence;
          Alcotest.test_case "transient attack in history" `Quick
            test_transient_attack_in_history;
          Alcotest.test_case "benign polls raise no drift" `Quick test_benign_polls_no_drift;
          Alcotest.test_case "geo query" `Quick test_geo_query;
        ] );
    ]
