(* Tests for the multi-provider extensions: verifier boundaries,
   federated queries (§IV-C.a) and history traceback (§IV-C.b). *)

let check = Alcotest.check

(* Internetwork: domain A = switches {0,1}, domain B = {2,3}, peering
   link 1 <-> 2; one host per switch; global destination routing. *)
let internetwork () =
  let topo = Workload.Topogen.linear Workload.Topogen.default_params 4 in
  let s =
    Workload.Scenario.build
      { (Workload.Scenario.default_spec topo) with clients = 1; isolation = false }
  in
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.3);
  s

let rng = Support.Rng.create 77

let make_domains s =
  let geo_a = Geo.Registry.create () and geo_b = Geo.Registry.create () in
  Geo.Registry.set_switch geo_a ~sw:0 (Geo.Location.make ~lat:50.0 ~lon:8.0 ~jurisdiction:"EU");
  Geo.Registry.set_switch geo_a ~sw:1 (Geo.Location.make ~lat:50.5 ~lon:8.5 ~jurisdiction:"EU");
  Geo.Registry.set_switch geo_b ~sw:2 (Geo.Location.make ~lat:40.0 ~lon:(-74.0) ~jurisdiction:"US");
  Geo.Registry.set_switch geo_b ~sw:3 (Geo.Location.make ~lat:41.0 ~lon:(-73.0) ~jurisdiction:"US");
  let flows sw = Workload.Scenario.actual_flows s sw in
  [
    {
      Rvaas.Federation.name = "provider-A";
      member = (fun sw -> sw <= 1);
      flows_of = flows;
      geo = geo_a;
      keypair = Cryptosim.Keys.generate rng ~owner:"provider-A";
    };
    {
      Rvaas.Federation.name = "provider-B";
      member = (fun sw -> sw >= 2);
      flows_of = flows;
      geo = geo_b;
      keypair = Cryptosim.Keys.generate rng ~owner:"provider-B";
    };
  ]

let test_boundary_handoffs () =
  let s = internetwork () in
  let topo = Netsim.Net.topology s.net in
  let ctx = Rvaas.Verifier.context ~flows_of:(Workload.Scenario.actual_flows s) topo in
  let r =
    Rvaas.Verifier.reach_in
      ~boundary:(fun sw -> sw <= 1)
      ctx ~src_sw:0 ~src_port:0
      ~hs:(Rvaas.Verifier.ip_traffic_hs ())
  in
  (* Only domain-A hosts are endpoints; traffic to B appears as a
     handoff at switch 2's peering port. *)
  List.iter
    (fun ((ep : Rvaas.Verifier.endpoint), _) ->
      check Alcotest.bool "endpoint inside boundary" true (ep.sw <= 1))
    r.endpoints;
  (match r.handoffs with
  | [ (sw, _port, hs) ] ->
    check Alcotest.int "handoff at sw2" 2 sw;
    check Alcotest.bool "handoff space nonempty" false (Hspace.Hs.is_empty hs)
  | hs -> Alcotest.fail (Printf.sprintf "expected 1 handoff, got %d" (List.length hs)));
  List.iter
    (fun sw -> check Alcotest.bool "traversal stays in A" true (sw <= 1))
    r.traversed

let test_no_boundary_no_handoffs () =
  let s = internetwork () in
  let topo = Netsim.Net.topology s.net in
  let r =
    Rvaas.Verifier.reach
      ~flows_of:(Workload.Scenario.actual_flows s)
      topo ~src_sw:0 ~src_port:0
      ~hs:(Rvaas.Verifier.ip_traffic_hs ())
  in
  check Alcotest.int "no handoffs without boundary" 0 (List.length r.handoffs)

let test_federated_reach_crosses_domains () =
  let s = internetwork () in
  let topo = Netsim.Net.topology s.net in
  let fed = Rvaas.Federation.create topo (make_domains s) in
  let r =
    Rvaas.Federation.reach fed ~start_domain:"provider-A" ~src_sw:0 ~src_port:0
      ~hs:(Rvaas.Verifier.ip_traffic_hs ())
  in
  let hosts =
    List.map (fun ((ep : Rvaas.Verifier.endpoint), _) -> ep.host) r.endpoints
  in
  (* All three other hosts reachable, including h2 and h3 in domain B. *)
  check (Alcotest.list Alcotest.int) "endpoints across domains" [ 1; 2; 3 ]
    (List.sort compare hosts);
  check (Alcotest.list Alcotest.string) "both domains traversed"
    [ "provider-A"; "provider-B" ] r.domains_traversed;
  check (Alcotest.list Alcotest.string) "jurisdictions merged" [ "EU"; "US" ]
    r.jurisdictions;
  check Alcotest.bool "at least one sub-query" true (r.sub_queries >= 1);
  check Alcotest.int "all sub-answers trusted" 0 (List.length r.untrusted_domains)

let test_federated_reach_respects_distrust () =
  let s = internetwork () in
  let topo = Netsim.Net.topology s.net in
  let fed = Rvaas.Federation.create topo (make_domains s) in
  Rvaas.Federation.distrust fed ~of_domain:"provider-A" ~peer:"provider-B";
  let r =
    Rvaas.Federation.reach fed ~start_domain:"provider-A" ~src_sw:0 ~src_port:0
      ~hs:(Rvaas.Verifier.ip_traffic_hs ())
  in
  let hosts =
    List.map (fun ((ep : Rvaas.Verifier.endpoint), _) -> ep.host) r.endpoints
  in
  check (Alcotest.list Alcotest.int) "only home-domain endpoints" [ 1 ]
    (List.sort compare hosts);
  check (Alcotest.list Alcotest.string) "B reported untrusted" [ "provider-B" ]
    r.untrusted_domains;
  (* Re-trusting restores the full answer. *)
  let domains = make_domains s in
  let b = List.nth domains 1 in
  Rvaas.Federation.trust fed ~of_domain:"provider-A" ~peer:"provider-B"
    ~public:(Cryptosim.Keys.public b.Rvaas.Federation.keypair);
  ignore b

let test_federation_validation () =
  let s = internetwork () in
  let topo = Netsim.Net.topology s.net in
  let domains = make_domains s in
  (* Overlapping membership is rejected. *)
  let overlapping =
    List.map (fun d -> { d with Rvaas.Federation.member = (fun _ -> true) }) domains
  in
  (try
     ignore (Rvaas.Federation.create topo overlapping);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  (* Uncovered switch is rejected. *)
  let partial = [ List.hd domains ] in
  (try
     ignore (Rvaas.Federation.create topo partial);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  let fed = Rvaas.Federation.create topo domains in
  check Alcotest.bool "domain_of" true
    (Rvaas.Federation.domain_of fed ~sw:3 = Some "provider-B");
  (try
     ignore
       (Rvaas.Federation.reach fed ~start_domain:"provider-A" ~src_sw:3 ~src_port:0
          ~hs:(Rvaas.Verifier.ip_traffic_hs ()));
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* A federation kept across a configuration change answers from the
   domains' current rules, like a fresh one and the uncached sweep. *)
let test_federation_sees_changed_rules () =
  let s = internetwork () in
  let topo = Netsim.Net.topology s.net in
  let hs = Rvaas.Verifier.ip_traffic_hs () in
  let hosts eps = List.sort compare (List.map (fun ((ep : Rvaas.Verifier.endpoint), _) -> ep.host) eps) in
  let ask fed =
    hosts (Rvaas.Federation.reach fed ~start_domain:"provider-A" ~src_sw:0 ~src_port:0 ~hs).endpoints
  in
  let long_lived = Rvaas.Federation.create topo (make_domains s) in
  check (Alcotest.list Alcotest.int) "before the change" [ 1; 2; 3 ] (ask long_lived);
  Sdnctl.Attack.launch s.net s.addressing ~conn:(Sdnctl.Provider.conn s.provider)
    (Sdnctl.Attack.Blackhole { victim_host = 3 });
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.3);
  let sweep = Rvaas.Verifier.reach ~flows_of:(Workload.Scenario.actual_flows s) topo ~src_sw:0 ~src_port:0 ~hs in
  check (Alcotest.list Alcotest.int) "the sweep drops h3" [ 1; 2 ] (hosts sweep.endpoints);
  check (Alcotest.list Alcotest.int) "a fresh federation agrees" [ 1; 2 ]
    (ask (Rvaas.Federation.create topo (make_domains s)));
  check (Alcotest.list Alcotest.int) "the long-lived federation agrees" [ 1; 2 ] (ask long_lived)

(* ---- traceback ---- *)

let traceback_scenario () =
  let topo = Workload.Topogen.linear Workload.Topogen.default_params 4 in
  let s =
    Workload.Scenario.build { (Workload.Scenario.default_spec topo) with clients = 2 }
  in
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.3);
  s

let baseline_flows s =
  let snapshot = Rvaas.Monitor.snapshot s.Workload.Scenario.monitor in
  List.map
    (fun sw -> (sw, Rvaas.Snapshot.flows snapshot ~sw))
    (Rvaas.Snapshot.switches snapshot)

let test_traceback_transient_join () =
  let s = traceback_scenario () in
  let baseline = baseline_flows s in
  let t0 = Netsim.Sim.now (Netsim.Net.sim s.net) in
  (* Transient join attack: attacker host 1 (client 1) against client 0;
     installed at t0+0.05, retracted at t0+0.15. *)
  Sdnctl.Attack.launch s.net s.addressing
    ~conn:(Sdnctl.Provider.conn s.provider)
    (Sdnctl.Attack.Transient
       {
         attack = Sdnctl.Attack.Join { victim_client = 0; attacker_host = 1 };
         start = t0 +. 0.05;
         duration = 0.1;
       });
  Workload.Scenario.run s ~until:(t0 +. 0.5);
  let topo = Netsim.Net.topology s.net in
  (* Victim: host 0's access point. *)
  let victim =
    List.find
      (fun (e : Rvaas.Verifier.endpoint) -> e.host = 0)
      (Rvaas.Verifier.access_points topo)
  in
  let incidents =
    Rvaas.Traceback.investigate ~baseline_flows:baseline
      ~history:(Rvaas.Monitor.history s.monitor) topo ~victim
  in
  let relevant = List.filter (fun (i : Rvaas.Traceback.incident) -> i.reaches_victim) incidents in
  check Alcotest.bool "at least one relevant incident" true (relevant <> []);
  let incident = List.hd relevant in
  check Alcotest.bool "window recorded" true
    (incident.first_seen >= t0 +. 0.05 && incident.retracted <> None);
  (* The attack entered through host 1's access point. *)
  let suspects =
    List.map (fun (e : Rvaas.Verifier.endpoint) -> e.host) incident.suspect_sources
  in
  check (Alcotest.list Alcotest.int) "attacker ingress identified" [ 1 ] suspects

let test_traceback_benign_history_empty () =
  let s = traceback_scenario () in
  let baseline = baseline_flows s in
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.3);
  let topo = Netsim.Net.topology s.net in
  let victim = List.hd (Rvaas.Verifier.access_points topo) in
  let incidents =
    Rvaas.Traceback.investigate ~baseline_flows:baseline
      ~history:(Rvaas.Monitor.history s.monitor) topo ~victim
  in
  check Alcotest.int "no incidents on a benign network" 0 (List.length incidents)

let test_traceback_live_rule () =
  let s = traceback_scenario () in
  let baseline = baseline_flows s in
  Sdnctl.Attack.launch s.net s.addressing
    ~conn:(Sdnctl.Provider.conn s.provider)
    (Sdnctl.Attack.Join { victim_client = 0; attacker_host = 1 });
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.2);
  let topo = Netsim.Net.topology s.net in
  let victim =
    List.find
      (fun (e : Rvaas.Verifier.endpoint) -> e.host = 0)
      (Rvaas.Verifier.access_points topo)
  in
  let incidents =
    Rvaas.Traceback.investigate ~baseline_flows:baseline
      ~history:(Rvaas.Monitor.history s.monitor) topo ~victim
  in
  let live =
    List.filter (fun (i : Rvaas.Traceback.incident) -> i.retracted = None) incidents
  in
  check Alcotest.bool "live incident reported as unretracted" true (live <> [])

let () =
  Alcotest.run "federation"
    [
      ( "boundary",
        [
          Alcotest.test_case "handoffs at the border" `Quick test_boundary_handoffs;
          Alcotest.test_case "no boundary, no handoffs" `Quick test_no_boundary_no_handoffs;
        ] );
      ( "federation",
        [
          Alcotest.test_case "cross-domain reach" `Quick test_federated_reach_crosses_domains;
          Alcotest.test_case "distrust" `Quick test_federated_reach_respects_distrust;
          Alcotest.test_case "validation" `Quick test_federation_validation;
          Alcotest.test_case "long-lived federation sees changed rules" `Quick
            test_federation_sees_changed_rules;
        ] );
      ( "traceback",
        [
          Alcotest.test_case "transient join attributed" `Quick test_traceback_transient_join;
          Alcotest.test_case "benign history" `Quick test_traceback_benign_history_empty;
          Alcotest.test_case "live rule" `Quick test_traceback_live_rule;
        ] );
    ]
