(* Benchmark harness: regenerates the experiment tables E1-E8 indexed
   in DESIGN.md / EXPERIMENTS.md, plus Bechamel micro-benchmarks of the
   core kernels.

   The paper (DSN 2016) contains no quantitative tables; E1-E2 are the
   executable form of its Figures 1-2 and E3-E8 quantify the design
   claims made in its prose.  See EXPERIMENTS.md for the mapping.

     dune exec bench/main.exe            # all experiments + micro
     dune exec bench/main.exe -- e3      # one experiment
     dune exec bench/main.exe -- micro   # micro-benchmarks only *)

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '-')

(* Monotonic wall clock.  [Sys.time ()] is process CPU time: it
   overcounts when several domains run (summing their cycles) and
   undercounts blocking — useless for latency columns.  All E-series
   timings below are wall-clock. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let wall f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* Nearest-rank percentile over a sample list, [q] in [0, 1] — the one
   latency summary every table below (E13, E19, E20) reads tails
   through.  0.0 on an empty sample set. *)
let percentile q samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  if Array.length a = 0 then 0.0
  else a.(int_of_float (q *. float_of_int (Array.length a - 1)))

(* ---------------------------------------------------------------- *)
(* Shared scenario helpers                                          *)
(* ---------------------------------------------------------------- *)

let build_scenario ?(clients = 2) ?(seed = 42) ?(polling = Rvaas.Monitor.Randomized 0.05)
    ?(loss = 0.0) topo =
  Workload.Scenario.build
    {
      (Workload.Scenario.default_spec topo) with
      clients;
      seed;
      polling;
      rvaas_loss = loss;
    }

let isolation_outcome scenario ~host =
  Workload.Scenario.query_and_wait scenario ~host
    (Rvaas.Query.make Rvaas.Query.Isolation)
    ~timeout:2.0

(* ---------------------------------------------------------------- *)
(* E1: Fig. 1+2 — protocol message counts and end-to-end latency     *)
(* ---------------------------------------------------------------- *)

let e1 () =
  section "E1: integrity-request protocol (Fig. 1+2) — cost per query";
  Printf.printf "%-14s %4s %5s | %9s %8s %8s %8s | %10s\n" "topology" "sw" "hosts"
    "packet_in" "auth_req" "auth_rep" "answers" "e2e (ms)";
  let p = Workload.Topogen.default_params in
  let cases =
    [
      ("linear-4", Workload.Topogen.linear p 4);
      ("linear-8", Workload.Topogen.linear p 8);
      ("ring-8", Workload.Topogen.ring p 8);
      ("grid-3x3", Workload.Topogen.grid p ~rows:3 ~cols:3);
      ("fat-tree-k4", Workload.Topogen.fat_tree p ~k:4);
    ]
  in
  List.iter
    (fun (name, topo) ->
      let s = build_scenario topo in
      let packet_ins0 = (Netsim.Net.stats s.net).packet_ins in
      let svc0 = Rvaas.Service.stats s.service in
      let auth0 = svc0.auth_requests_sent
      and rep0 = svc0.auth_replies_accepted
      and ans0 = svc0.answers_sent in
      match isolation_outcome s ~host:0 with
      | None -> Printf.printf "%-14s: no answer\n" name
      | Some outcome ->
        let svc = Rvaas.Service.stats s.service in
        Printf.printf "%-14s %4d %5d | %9d %8d %8d %8d | %10.3f\n" name
          (Workload.Topogen.switch_count topo)
          (Workload.Topogen.host_count topo)
          ((Netsim.Net.stats s.net).packet_ins - packet_ins0)
          (svc.auth_requests_sent - auth0)
          (svc.auth_replies_accepted - rep0)
          (svc.answers_sent - ans0)
          (1000.0 *. (outcome.answered_at -. outcome.issued_at)))
    cases

(* ---------------------------------------------------------------- *)
(* E2: Fig. 1+2 under a join attack — the counting defence at work   *)
(* ---------------------------------------------------------------- *)

let e2 () =
  section "E2: isolation query, benign vs. join attack (fat-tree k=4)";
  Printf.printf "%-12s | %9s %9s %9s | %s\n" "condition" "endpoints" "auth_req"
    "auth_rep" "alarms";
  let run ~attack =
    let topo = Workload.Topogen.fat_tree Workload.Topogen.default_params ~k:4 in
    let s = build_scenario topo in
    if attack then begin
      Sdnctl.Attack.launch s.net s.addressing
        ~conn:(Sdnctl.Provider.conn s.provider)
        (Sdnctl.Attack.Join { victim_client = 0; attacker_host = 1 });
      Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.1)
    end;
    match isolation_outcome s ~host:0 with
    | None ->
      Printf.printf "%-12s | no answer\n" (if attack then "join attack" else "benign")
    | Some outcome ->
      let answer = outcome.Rvaas.Client_agent.answer in
      let policy = Workload.Scenario.policy_for s ~client:0 in
      let alarms = Rvaas.Detector.check_answer policy answer in
      Printf.printf "%-12s | %9d %9d %9d | %s\n"
        (if attack then "join attack" else "benign")
        (List.length answer.endpoints)
        answer.total_auth_requests answer.auth_replies
        (if alarms = [] then "none"
         else String.concat "; " (List.map Rvaas.Detector.describe alarms))
  in
  run ~attack:false;
  run ~attack:true

(* ---------------------------------------------------------------- *)
(* E3: transient attacks vs. polling strategy                        *)
(* ---------------------------------------------------------------- *)

let e3_trials = 20

let e3_detected ~polling ~seed ~duration =
  let poll_period = 0.1 in
  let topo = Workload.Topogen.linear Workload.Topogen.default_params 3 in
  let s = build_scenario ~seed ~polling ~loss:0.8 topo in
  let commission = 5.0 *. poll_period in
  Workload.Scenario.run s ~until:commission;
  let baseline = Workload.Scenario.baseline s in
  (* Phase-aligned attacker: strikes right after a periodic poll. *)
  let start = (8.0 *. poll_period) +. 0.005 in
  Sdnctl.Attack.launch s.net s.addressing
    ~conn:(Sdnctl.Provider.conn s.provider)
    (Sdnctl.Attack.Transient
       { attack = Sdnctl.Attack.Blackhole { victim_host = 0 }; start; duration });
  Workload.Scenario.run s ~until:(start +. (4.0 *. poll_period));
  let entries =
    List.filter
      (fun (e : Rvaas.Monitor.history_entry) -> e.at > commission)
      (Rvaas.Monitor.history s.monitor)
  in
  List.exists
    (function Rvaas.Detector.Config_drift _ -> true | _ -> false)
    (Rvaas.Detector.check_history baseline entries)

let e3 () =
  section
    "E3: transient reconfiguration attacks — detection probability\n\
     (phase-aligned attacker, 80% monitor-event loss, poll period / mean 100 ms)";
  Printf.printf "%-14s | %10s %12s %12s\n" "duration (ms)" "no polling" "periodic"
    "randomized";
  let strategies =
    [
      Rvaas.Monitor.No_polling;
      Rvaas.Monitor.Periodic 0.1;
      Rvaas.Monitor.Randomized 0.1;
    ]
  in
  List.iter
    (fun duration ->
      let rates =
        List.map
          (fun polling ->
            let hits = ref 0 in
            for seed = 1 to e3_trials do
              if e3_detected ~polling ~seed ~duration then incr hits
            done;
            100.0 *. float_of_int !hits /. float_of_int e3_trials)
          strategies
      in
      match rates with
      | [ none; periodic; randomized ] ->
        Printf.printf "%-14.0f | %9.0f%% %11.0f%% %11.0f%%\n" (duration *. 1000.0) none
          periodic randomized
      | _ -> ())
    [ 0.01; 0.025; 0.05; 0.1; 0.2 ]

(* ---------------------------------------------------------------- *)
(* E4: verification latency vs. network size                         *)
(* ---------------------------------------------------------------- *)

let e4 () =
  section "E4: logical verification latency vs. network size";
  Printf.printf "%-14s %4s %5s %6s | %12s %11s | %12s\n" "topology" "sw" "hosts" "rules"
    "reach (ms)" "rule visits" "isolate (ms)";
  let p = Workload.Topogen.default_params in
  let rng = Support.Rng.create 7 in
  let cases =
    [
      ("fat-tree-k4", Workload.Topogen.fat_tree p ~k:4);
      ("fat-tree-k6", Workload.Topogen.fat_tree p ~k:6);
      ("waxman-20", Workload.Topogen.waxman p rng ~n:20 ~alpha:0.4 ~beta:0.4);
      ("waxman-40", Workload.Topogen.waxman p rng ~n:40 ~alpha:0.4 ~beta:0.4);
      ("waxman-80", Workload.Topogen.waxman p rng ~n:80 ~alpha:0.3 ~beta:0.3);
    ]
  in
  List.iter
    (fun (name, topo) ->
      let s = build_scenario ~clients:4 topo in
      Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.2);
      let flows_of sw = Rvaas.Snapshot.flows (Rvaas.Monitor.snapshot s.monitor) ~sw in
      let rules =
        List.fold_left
          (fun acc sw -> acc + List.length (flows_of sw))
          0
          (Netsim.Topology.switches topo)
      in
      let att = Option.get (Netsim.Topology.host_attachment topo 0) in
      let src_sw =
        match att.Netsim.Topology.node with
        | Netsim.Topology.Switch sw -> sw
        | _ -> assert false
      in
      let result, reach_s =
        wall (fun () ->
            Rvaas.Verifier.reach ~flows_of topo ~src_sw
              ~src_port:att.Netsim.Topology.port
              ~hs:(Rvaas.Verifier.ip_traffic_hs ()))
      in
      let _, isolate_s =
        wall (fun () ->
            Rvaas.Service.evaluate s.service ~client:0 ~sw:src_sw
              ~port:att.Netsim.Topology.port
              (Rvaas.Query.make Rvaas.Query.Isolation))
      in
      Printf.printf "%-14s %4d %5d %6d | %12.3f %11d | %12.2f\n%!" name
        (Workload.Topogen.switch_count topo)
        (Workload.Topogen.host_count topo)
        rules (1000.0 *. reach_s) result.Rvaas.Verifier.rule_visits
        (1000.0 *. isolate_s))
    cases

(* ---------------------------------------------------------------- *)
(* E5: verification cost vs. rule-table size / cube growth           *)
(* ---------------------------------------------------------------- *)

let e5 () =
  section "E5: verification cost vs. extra filter rules per switch (linear-3)";
  Printf.printf "%-12s %6s | %12s %11s\n" "extra rules" "rules" "reach (ms)" "rule visits";
  List.iter
    (fun extra ->
      let topo = Workload.Topogen.linear Workload.Topogen.default_params 3 in
      let s = build_scenario ~clients:1 topo in
      (* Inject [extra] drop filters per switch at priority 150 with
         varied src-prefix x dst-port matches — the pattern that makes
         rule guards multiply into many cubes. *)
      let conn = Sdnctl.Provider.conn s.provider in
      List.iter
        (fun sw ->
          for i = 0 to extra - 1 do
            let m =
              Ofproto.Match_.any
              |> fun m ->
              Ofproto.Match_.with_exact m Hspace.Field.Eth_type Hspace.Header.eth_type_ip
              |> fun m ->
              Ofproto.Match_.with_prefix m Hspace.Field.Ip_src
                ~value:((10 lsl 24) lor (i lsl 8))
                ~prefix_len:24
              |> fun m -> Ofproto.Match_.with_exact m Hspace.Field.Tp_dst (5000 + i)
            in
            let spec = Ofproto.Flow_entry.make_spec ~cookie:77 ~priority:150 m [] in
            Netsim.Net.send s.net conn ~sw
              (Ofproto.Message.Flow_mod (Ofproto.Message.Add_flow spec))
          done)
        (Netsim.Topology.switches topo);
      Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.3);
      let flows_of sw = Rvaas.Snapshot.flows (Rvaas.Monitor.snapshot s.monitor) ~sw in
      let rules =
        List.fold_left
          (fun acc sw -> acc + List.length (flows_of sw))
          0
          (Netsim.Topology.switches topo)
      in
      let att = Option.get (Netsim.Topology.host_attachment topo 0) in
      let src_sw =
        match att.Netsim.Topology.node with
        | Netsim.Topology.Switch sw -> sw
        | _ -> assert false
      in
      let result, reach_s =
        wall (fun () ->
            Rvaas.Verifier.reach ~flows_of topo ~src_sw
              ~src_port:att.Netsim.Topology.port
              ~hs:(Rvaas.Verifier.ip_traffic_hs ()))
      in
      Printf.printf "%-12d %6d | %12.3f %11d\n%!" extra rules (1000.0 *. reach_s)
        result.Rvaas.Verifier.rule_visits)
    [ 0; 10; 20; 40; 80 ]

(* ---------------------------------------------------------------- *)
(* E6: monitoring overhead — passive events vs. active polling       *)
(* ---------------------------------------------------------------- *)

let e6 () =
  section "E6: monitoring overhead under configuration churn (linear-4, 2 s window)";
  Printf.printf "%-12s %-18s | %8s %8s %8s | %10s %9s\n" "churn (/s)" "polling" "rx"
    "events" "polls" "divergent" "age (ms)";
  let strategies =
    [
      ("none", Rvaas.Monitor.No_polling);
      ("periodic-100ms", Rvaas.Monitor.Periodic 0.1);
      ("random-100ms", Rvaas.Monitor.Randomized 0.1);
    ]
  in
  List.iter
    (fun churn ->
      List.iter
        (fun (pname, polling) ->
          let topo = Workload.Topogen.linear Workload.Topogen.default_params 4 in
          let s = build_scenario ~clients:1 ~polling topo in
          let conn = Sdnctl.Provider.conn s.provider in
          let sim = Netsim.Net.sim s.net in
          let t0 = Netsim.Sim.now sim in
          (* Churn: add/remove a dummy rule alternately at [churn] ops/s. *)
          let gap = 1.0 /. float_of_int churn in
          let count = int_of_float (2.0 /. gap) in
          for i = 0 to count - 1 do
            let m =
              Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Tp_src 7777
            in
            let msg =
              if i mod 2 = 0 then
                Ofproto.Message.Flow_mod
                  (Ofproto.Message.Add_flow
                     (Ofproto.Flow_entry.make_spec ~cookie:5 ~priority:60 m []))
              else
                Ofproto.Message.Flow_mod
                  (Ofproto.Message.Delete_flow { match_ = m; priority = Some 60 })
            in
            Netsim.Sim.schedule_at sim ~time:(t0 +. (float_of_int i *. gap)) (fun () ->
                Netsim.Net.send s.net conn ~sw:0 msg)
          done;
          Workload.Scenario.run s ~until:(t0 +. 2.0);
          let snapshot = Rvaas.Monitor.snapshot s.monitor in
          let divergent =
            Rvaas.Snapshot.divergence snapshot ~actual:(Workload.Scenario.actual_flows s)
          in
          Printf.printf "%-12d %-18s | %8d %8d %8d | %10d %9.1f\n" churn pname
            (Netsim.Net.conn_rx (Rvaas.Monitor.conn s.monitor))
            (Rvaas.Monitor.events_seen s.monitor)
            (Rvaas.Monitor.polls_sent s.monitor)
            divergent
            (1000.0 *. Rvaas.Snapshot.age snapshot ~now:(Netsim.Sim.now sim)))
        strategies)
    [ 10; 100; 500 ]

(* ---------------------------------------------------------------- *)
(* E7: detection coverage across the attack taxonomy                 *)
(* ---------------------------------------------------------------- *)

type e7_row = { attack_name : string; detections : (string * bool) list }

let e7 () =
  section "E7: detection matrix — attack taxonomy x query type (ring-6, RU on sw5)";
  let query_names = [ "isolation"; "reach"; "geo"; "path"; "fairness"; "history" ] in
  let run_attack attack_name make_attack =
    let topo = Workload.Topogen.ring Workload.Topogen.default_params 6 in
    (* hosts h0..h5 on sw0..sw5; clients: even hosts -> c0, odd -> c1 *)
    let s = build_scenario ~clients:2 topo in
    Geo.Registry.set_switch s.geo_truth ~sw:5
      (Geo.Location.make ~lat:55.75 ~lon:37.62 ~jurisdiction:"RU");
    Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.3);
    let baseline = Workload.Scenario.baseline s in
    let t_attack = Netsim.Sim.now (Netsim.Net.sim s.net) in
    (match make_attack t_attack with
    | None -> ()
    | Some attack ->
      Sdnctl.Attack.launch s.net s.addressing
        ~conn:(Sdnctl.Provider.conn s.provider)
        attack);
    Workload.Scenario.run s ~until:(t_attack +. 0.5);
    let topo_net = Netsim.Net.topology s.net in
    let own_points = Sdnctl.Addressing.access_points s.addressing topo_net ~client:0 in
    let peer_ip = (Option.get (Sdnctl.Addressing.host s.addressing ~host:2)).ip in
    (* An answer never lists the querier's own access point (h0's):
       an Output to the ingress port is suppressed. *)
    let querier_point =
      match Netsim.Topology.host_attachment topo_net 0 with
      | Some { Netsim.Topology.node = Netsim.Topology.Switch sw; port } -> Some (sw, port)
      | Some _ | None -> None
    in
    let policy =
      {
        (Workload.Scenario.policy_for s ~client:0) with
        Rvaas.Detector.forbidden_jurisdictions = [ "RU" ];
        min_rate_kbps = Some 1000;
        expected_reachable = List.filter (fun p -> Some p <> querier_point) own_points;
      }
    in
    let detected_by query =
      match Workload.Scenario.query_and_wait s ~host:0 query ~timeout:2.0 with
      | None -> false
      | Some outcome ->
        Rvaas.Detector.check_answer policy outcome.Rvaas.Client_agent.answer <> []
    in
    let scope = Rvaas.Verifier.dst_ip_hs peer_ip in
    let detections =
      [
        ("isolation", detected_by (Rvaas.Query.make Rvaas.Query.Isolation));
        ("reach", detected_by (Rvaas.Query.make Rvaas.Query.Reachable_endpoints));
        ("geo", detected_by (Rvaas.Query.make ~scope Rvaas.Query.Geo));
        ( "path",
          detected_by (Rvaas.Query.make (Rvaas.Query.Path_length { dst_ip = peer_ip })) );
        ("fairness", detected_by (Rvaas.Query.make Rvaas.Query.Fairness));
        ( "history",
          let entries =
            List.filter
              (fun (e : Rvaas.Monitor.history_entry) -> e.at > t_attack -. 1e-9)
              (Rvaas.Monitor.history s.monitor)
          in
          Rvaas.Detector.check_history baseline entries
          |> List.exists (function Rvaas.Detector.Config_drift _ -> true | _ -> false) );
      ]
    in
    { attack_name; detections }
  in
  let rows =
    [
      run_attack "none (benign)" (fun _ -> None);
      run_attack "join" (fun _ ->
          Some (Sdnctl.Attack.Join { victim_client = 0; attacker_host = 1 }));
      run_attack "divert via RU" (fun _ ->
          (* The long way around the ring: through sw5 (RU) and sw4. *)
          Some (Sdnctl.Attack.Divert { src_host = 0; dst_host = 2; via_sw = 4 }));
      run_attack "exfiltrate" (fun _ ->
          Some (Sdnctl.Attack.Exfiltrate { victim_host = 2; attacker_host = 1 }));
      run_attack "blackhole" (fun _ -> Some (Sdnctl.Attack.Blackhole { victim_host = 2 }));
      run_attack "meter squeeze" (fun _ ->
          Some (Sdnctl.Attack.Meter_squeeze { victim_host = 2; rate_kbps = 50 }));
      run_attack "transient" (fun now ->
          Some
            (Sdnctl.Attack.Transient
               {
                 attack = Sdnctl.Attack.Blackhole { victim_host = 2 };
                 start = now +. 0.05;
                 duration = 0.05;
               }));
    ]
  in
  Printf.printf "%-16s |" "attack";
  List.iter (fun q -> Printf.printf " %-9s" q) query_names;
  print_newline ();
  List.iter
    (fun { attack_name; detections } ->
      Printf.printf "%-16s |" attack_name;
      List.iter
        (fun q ->
          let hit = List.assoc q detections in
          Printf.printf " %-9s" (if hit then "DETECT" else "-"))
        query_names;
      print_newline ())
    rows

(* ---------------------------------------------------------------- *)
(* E8: geo-inference accuracy of the three location modes            *)
(* ---------------------------------------------------------------- *)

let e8 () =
  section "E8: switch-location inference accuracy (waxman-30, ground truth known)";
  let rng = Support.Rng.create 99 in
  let topo =
    Workload.Topogen.waxman Workload.Topogen.default_params rng ~n:30 ~alpha:0.4
      ~beta:0.4
  in
  let jurisdictions = [ "EU"; "US"; "CH"; "JP" ] in
  let switch_locations =
    List.map
      (fun sw -> (sw, Geo.Location.random rng ~jurisdictions))
      (Netsim.Topology.switches topo)
  in
  let jitter (l : Geo.Location.t) spread =
    Geo.Location.make
      ~lat:
        (Float.max (-90.)
           (Float.min 90. (l.lat +. Support.Rng.float rng spread -. (spread /. 2.0))))
      ~lon:(l.lon +. Support.Rng.float rng spread -. (spread /. 2.0))
      ~jurisdiction:l.jurisdiction
  in
  (* Crowd-sourced reports: each host reports its own (jittered) position;
     ~70% of switches have at least one attached reporting client. *)
  let client_reports =
    List.filter_map
      (fun host ->
        match Netsim.Topology.host_attachment topo host with
        | Some { Netsim.Topology.node = Netsim.Topology.Switch sw; _ } ->
          if Support.Rng.bernoulli rng 0.7 then
            Some (jitter (List.assoc sw switch_locations) 0.5, sw)
          else None
        | Some _ | None -> None)
      (Netsim.Topology.hosts topo)
  in
  (* Geo-IP: per-switch /24 management prefixes; the public table knows
     ~80% of them, at city-level (jittered) accuracy. *)
  let switch_mgmt_ip =
    List.map
      (fun (sw, _) -> (sw, (10 lsl 24) lor (255 lsl 16) lor (sw lsl 8) lor 1))
      switch_locations
  in
  let geoip_table =
    List.filter_map
      (fun (sw, loc) ->
        if Support.Rng.bernoulli rng 0.8 then
          Some ((10 lsl 24) lor (255 lsl 16) lor (sw lsl 8), 24, jitter loc 1.0)
        else None)
      switch_locations
  in
  let gt = { Geo.Infer.switch_locations; client_reports; switch_mgmt_ip } in
  let truth = Geo.Infer.disclosed gt in
  let sws = Netsim.Topology.switches topo in
  let report name believed =
    let coverage = Geo.Registry.coverage believed ~sws in
    let err = Geo.Infer.mean_error_km ~truth ~believed in
    let acc = Geo.Infer.jurisdiction_accuracy ~truth ~believed in
    Printf.printf "%-18s | %8.0f%% | %14s | %16s\n" name (100.0 *. coverage)
      (match err with None -> "n/a" | Some e -> Printf.sprintf "%.1f km" e)
      (match acc with None -> "n/a" | Some a -> Printf.sprintf "%.0f%%" (100.0 *. a))
  in
  Printf.printf "%-18s | %9s | %14s | %16s\n" "mode" "coverage" "mean error"
    "jurisdiction ok";
  report "disclosed" (Geo.Infer.disclosed gt);
  report "crowd-sourced" (Geo.Infer.crowd_sourced gt);
  report "geo-ip" (Geo.Infer.geo_ip gt ~table:geoip_table)

(* ---------------------------------------------------------------- *)
(* E9: ablation -- lazy shadow subtraction vs. materialised guards   *)
(* ---------------------------------------------------------------- *)

let e9 () =
  section
    "E9: ablation -- verifier guard representation (linear-3 + overlapping filters)\n\
     lazy = shadows subtracted per propagated set (Verifier);\n\
     eager = guards materialised as cube unions (Verifier_ref)";
  Printf.printf "%-12s | %12s %12s | %9s\n" "extra rules" "lazy (ms)" "eager (ms)"
    "speedup";
  List.iter
    (fun extra ->
      let topo = Workload.Topogen.linear Workload.Topogen.default_params 3 in
      let s = build_scenario ~clients:1 topo in
      let conn = Sdnctl.Provider.conn s.provider in
      List.iter
        (fun sw ->
          for i = 0 to extra - 1 do
            let m =
              Ofproto.Match_.any
              |> fun m ->
              Ofproto.Match_.with_exact m Hspace.Field.Eth_type Hspace.Header.eth_type_ip
              |> fun m ->
              Ofproto.Match_.with_prefix m Hspace.Field.Ip_src
                ~value:((10 lsl 24) lor (i lsl 8))
                ~prefix_len:24
              |> fun m -> Ofproto.Match_.with_exact m Hspace.Field.Tp_dst (5000 + i)
            in
            let spec = Ofproto.Flow_entry.make_spec ~cookie:77 ~priority:150 m [] in
            Netsim.Net.send s.net conn ~sw
              (Ofproto.Message.Flow_mod (Ofproto.Message.Add_flow spec))
          done)
        (Netsim.Topology.switches topo);
      Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.3);
      let flows_of = Workload.Scenario.actual_flows s in
      let att = Option.get (Netsim.Topology.host_attachment topo 0) in
      let src_sw =
        match att.Netsim.Topology.node with
        | Netsim.Topology.Switch sw -> sw
        | _ -> assert false
      in
      let hs = Rvaas.Verifier.ip_traffic_hs () in
      let _, lazy_s =
        wall (fun () ->
            Rvaas.Verifier.reach ~flows_of topo ~src_sw
              ~src_port:att.Netsim.Topology.port ~hs)
      in
      (* The eager representation is super-exponential in overlapping
         filters: beyond one extra rule it does not terminate in
         reasonable time, which is the ablation's finding. *)
      if extra <= 1 then begin
        let _, eager_s =
          wall (fun () ->
              Rvaas.Verifier_ref.reach ~flows_of topo ~src_sw
                ~src_port:att.Netsim.Topology.port ~hs)
        in
        Printf.printf "%-12d | %12.3f %12.3f | %8.1fx\n%!" extra (1000.0 *. lazy_s)
          (1000.0 *. eager_s)
          (eager_s /. Float.max 1e-9 lazy_s)
      end
      else
        Printf.printf "%-12d | %12.3f %12s | %9s\n%!" extra (1000.0 *. lazy_s)
          "(diverges)" "-")
    [ 0; 1; 2; 5; 10 ]

(* ---------------------------------------------------------------- *)
(* E10: federated queries across provider domains (section IV-C.a)   *)
(* ---------------------------------------------------------------- *)

let e10 () =
  section "E10: federated reachability across provider domains (linear-12)";
  Printf.printf "%-10s | %9s %11s %10s | %10s\n" "domains" "endpoints" "sub-queries"
    "domains hit" "wall (ms)";
  List.iter
    (fun domain_count ->
      let switches = 12 in
      let topo = Workload.Topogen.linear Workload.Topogen.default_params switches in
      let s =
        Workload.Scenario.build
          { (Workload.Scenario.default_spec topo) with clients = 1; isolation = false }
      in
      Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.3);
      let rng = Support.Rng.create 12 in
      let per_domain = switches / domain_count in
      let domains =
        List.init domain_count (fun d ->
            let lo = d * per_domain in
            let hi = if d = domain_count - 1 then switches - 1 else lo + per_domain - 1 in
            {
              Rvaas.Federation.name = Printf.sprintf "provider-%d" d;
              member = (fun sw -> sw >= lo && sw <= hi);
              flows_of = Workload.Scenario.actual_flows s;
              geo = s.geo_truth;
              keypair =
                Cryptosim.Keys.generate rng ~owner:(Printf.sprintf "provider-%d" d);
            })
      in
      let fed = Rvaas.Federation.create topo domains in
      let result, wall_s =
        wall (fun () ->
            Rvaas.Federation.reach fed ~start_domain:"provider-0" ~src_sw:0 ~src_port:0
              ~hs:(Rvaas.Verifier.ip_traffic_hs ()))
      in
      Printf.printf "%-10d | %9d %11d %10d | %10.3f\n%!" domain_count
        (List.length result.Rvaas.Federation.endpoints)
        result.Rvaas.Federation.sub_queries
        (List.length result.Rvaas.Federation.domains_traversed)
        (1000.0 *. wall_s))
    [ 1; 2; 3; 4; 6 ]

(* ---------------------------------------------------------------- *)
(* E11: incremental verification context under configuration churn   *)
(* ---------------------------------------------------------------- *)

let e11 () =
  section
    "E11: incremental vs. fresh verification context under churn (waxman-40)\n\
     isolation-style batches (one reach per access point) interleaved with\n\
     rule churn on one switch; fresh rebuilds all guards per batch,\n\
     incremental invalidates only the churned switch";
  Printf.printf "%-14s | %14s %14s | %9s\n" "batches" "fresh (ms/b)" "incremental"
    "speedup";
  List.iter
    (fun batches ->
      let rng = Support.Rng.create 7 in
      let topo =
        Workload.Topogen.waxman Workload.Topogen.default_params rng ~n:40 ~alpha:0.4
          ~beta:0.4
      in
      let s = build_scenario ~clients:2 topo in
      Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.2);
      let flows_of sw = Rvaas.Snapshot.flows (Rvaas.Monitor.snapshot s.monitor) ~sw in
      let net_topo = Netsim.Net.topology s.net in
      let points = Rvaas.Verifier.access_points net_topo in
      let hs = Rvaas.Verifier.ip_traffic_hs () in
      let apply_churn i =
        let m =
          Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Tp_src (10000 + i)
        in
        Ofproto.Flow_table.add
          (Netsim.Net.table s.net ~sw:0)
          (Ofproto.Flow_entry.make_spec ~cookie:9 ~priority:50 m [])
          ~now:0.0
      in
      let batch ctx =
        List.iter
          (fun (p : Rvaas.Verifier.endpoint) ->
            ignore (Rvaas.Verifier.reach_in ctx ~src_sw:p.sw ~src_port:p.port ~hs))
          points
      in
      let run_mode ~incremental =
        let ctx = ref (Rvaas.Verifier.context ~flows_of net_topo) in
        let t0 = now_s () in
        for i = 0 to batches - 1 do
          apply_churn i;
          if incremental then Rvaas.Verifier.invalidate_switch !ctx ~sw:0
          else ctx := Rvaas.Verifier.context ~flows_of net_topo;
          batch !ctx
        done;
        (now_s () -. t0) /. float_of_int batches
      in
      let fresh = run_mode ~incremental:false in
      let incremental = run_mode ~incremental:true in
      Printf.printf "%-14d | %14.1f %14.1f | %8.1fx\n%!" batches (1000.0 *. fresh)
        (1000.0 *. incremental)
        (fresh /. Float.max 1e-9 incremental))
    [ 3; 6 ]

(* ---------------------------------------------------------------- *)
(* E12: configuration vs. behaviour -- meter rate vs. goodput        *)
(* ---------------------------------------------------------------- *)

let e12 () =
  section
    "E12: fairness -- configured meter rate vs. observed goodput (linear-3)\n\
     offered load 1600 kbps; the Fairness query reads the configuration,\n\
     the traffic generator observes the data plane";
  Printf.printf "%-12s | %16s | %14s\n" "meter (kbps)" "fairness answer" "goodput (kbps)";
  List.iter
    (fun meter_rate ->
      let topo = Workload.Topogen.linear Workload.Topogen.default_params 3 in
      let s = build_scenario ~clients:1 topo in
      (match meter_rate with
      | None -> ()
      | Some rate_kbps ->
        Sdnctl.Attack.launch s.net s.addressing
          ~conn:(Sdnctl.Provider.conn s.provider)
          (Sdnctl.Attack.Meter_squeeze { victim_host = 2; rate_kbps });
        Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.2));
      (* Configuration view via the Fairness query evaluation. *)
      let att = Option.get (Netsim.Topology.host_attachment (Netsim.Net.topology s.net) 0) in
      let src_sw =
        match att.Netsim.Topology.node with
        | Netsim.Topology.Switch sw -> sw
        | _ -> assert false
      in
      let answer, _ =
        Rvaas.Service.evaluate s.service ~client:0 ~sw:src_sw
          ~port:att.Netsim.Topology.port
          (Rvaas.Query.make Rvaas.Query.Fairness)
      in
      let reported =
        match answer.Rvaas.Query.meters with
        | [] -> "no meters"
        | meters ->
          String.concat ", "
            (List.map (fun (_, rate) -> string_of_int rate ^ " kbps") meters)
      in
      (* Behaviour via the traffic generator. *)
      let t0 = Netsim.Sim.now (Netsim.Net.sim s.net) in
      let flow =
        Workload.Trafficgen.make_flow s ~src_host:0 ~dst_host:2 ~rate_pps:400.0
          ~size_bytes:500 ~start:(t0 +. 0.01) ~duration:1.0
      in
      let goodput =
        match Workload.Trafficgen.run s [ flow ] ~until:(t0 +. 2.0) with
        | [ r ] -> Workload.Trafficgen.goodput_kbps r
        | _ -> 0.0
      in
      Printf.printf "%-12s | %16s | %14.0f\n%!"
        (match meter_rate with None -> "none" | Some r -> string_of_int r)
        reported goodput)
    [ None; Some 50; Some 100; Some 500; Some 1000 ]

(* ---------------------------------------------------------------- *)
(* E13: isolation sweep, cold vs. warm reach cache                    *)
(* ---------------------------------------------------------------- *)

let e13 () =
  section
    "E13: reach cache on the isolation sweep\n\
     isolation query = one reach pass per access point, run in the calling\n\
     domain; cold = empty result cache, warm = the same query repeated\n\
     (cache hits)";
  Printf.printf "%-14s | %11s %11s | %10s | %8s\n" "topology" "cold (ms)" "warm (ms)"
    "warm gain" "hit rate";
  let p = Workload.Topogen.default_params in
  let cases =
    [
      ("fat-tree-k4", Workload.Topogen.fat_tree p ~k:4);
      ("fat-tree-k6", Workload.Topogen.fat_tree p ~k:6);
    ]
  in
  List.iter
    (fun (name, topo) ->
      let s = build_scenario topo in
      Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.2);
      let att = Option.get (Netsim.Topology.host_attachment topo 0) in
      let src_sw =
        match att.Netsim.Topology.node with
        | Netsim.Topology.Switch sw -> sw
        | _ -> assert false
      in
      let query = Rvaas.Query.make Rvaas.Query.Isolation in
      let eval () =
        ignore
          (Rvaas.Service.evaluate s.service ~client:0 ~sw:src_sw
             ~port:att.Netsim.Topology.port query)
      in
      let cache = Rvaas.Service.reach_cache s.service in
      Rvaas.Reach_cache.invalidate cache;
      let (), cold = wall eval in
      let st = Rvaas.Reach_cache.stats cache in
      let hits0 = st.Rvaas.Reach_cache.hits
      and misses0 = st.Rvaas.Reach_cache.misses in
      (* Warm = median of repeated cache-hit evaluations; one sample
         is too jittery to carry a speedup column. *)
      let warm = percentile 0.5 (List.init 5 (fun _ -> snd (wall eval))) in
      let dh = st.Rvaas.Reach_cache.hits - hits0
      and dm = st.Rvaas.Reach_cache.misses - misses0 in
      let hit_rate =
        if dh + dm = 0 then 0.0 else float_of_int dh /. float_of_int (dh + dm)
      in
      Printf.printf "%-14s | %11.3f %11.3f | %9.1fx | %7.0f%%\n%!" name
        (1000.0 *. cold) (1000.0 *. warm)
        (cold /. Float.max 1e-9 warm)
        (100.0 *. hit_rate))
    cases

(* ---------------------------------------------------------------- *)
(* E14: lossy-channel robustness — fault injection × retry policy    *)
(* ---------------------------------------------------------------- *)

let e14_trials = 20

let e14_attack_trials = 10

(* Retry stack under test: 3 auth attempts with 10 ms backoff base, a
   50 ms stats-poll retry deadline, and one client re-request after
   500 ms of answer silence. *)
let e14_retry_spec topo ~seed ~loss ~retry =
  let spec =
    {
      (Workload.Scenario.default_spec topo) with
      seed;
      rvaas_faults = Netsim.Faults.loss loss;
    }
  in
  if retry then
    {
      spec with
      auth_retry = { Rvaas.Service.attempts = 3; base_delay = 0.01 };
      poll_retry = Some 0.05;
      agent_resend = Some 0.5;
    }
  else spec

(* One benign trial: does the query resolve to the verdict a lossless
   run produces — every own endpoint present and authenticated, no
   degradation, no alarms?  Anything the client would notice (degraded
   flag, no answer) is an honest failure; a clean-looking answer that
   differs from the lossless verdict is silently wrong. *)
let e14_benign_trial ~seed ~loss ~retry =
  let topo = Workload.Topogen.fat_tree Workload.Topogen.default_params ~k:4 in
  let s = Workload.Scenario.build (e14_retry_spec topo ~seed ~loss ~retry) in
  (* Let the poll/retry machinery converge the snapshot despite loss. *)
  Workload.Scenario.run s ~until:0.5;
  let expected =
    List.length (Sdnctl.Addressing.access_points s.addressing topo ~client:0)
  in
  let outcome = isolation_outcome s ~host:0 in
  let svc = Rvaas.Service.stats s.service in
  let overhead =
    svc.auth_retransmissions
    + Rvaas.Client_agent.resends (Workload.Scenario.agent s ~host:0)
    + Rvaas.Monitor.poll_retries s.monitor
  in
  let latency =
    match outcome with
    | None -> None
    | Some o -> Some (o.Rvaas.Client_agent.answered_at -. o.issued_at)
  in
  let verdict =
    match outcome with
    | None -> `Lost
    | Some o ->
      let a = o.Rvaas.Client_agent.answer in
      let alarms =
        Rvaas.Detector.check_answer (Workload.Scenario.policy_for s ~client:0) a
      in
      let lossless =
        (not a.Rvaas.Query.degraded)
        && a.auth_replies = a.total_auth_requests
        && List.length a.endpoints = expected
        && List.for_all
             (fun (e : Rvaas.Query.endpoint_report) -> e.authenticated)
             a.endpoints
        && alarms = []
      in
      if lossless then `Ok else if a.Rvaas.Query.degraded then `Degraded else `Wrong
  in
  (verdict, latency, overhead)

(* One attack trial: a join attack is live; detection = an answer
   arrived and the client's detector raised at least one alarm. *)
let e14_attack_trial ~seed ~loss ~retry =
  let topo = Workload.Topogen.fat_tree Workload.Topogen.default_params ~k:4 in
  let s = Workload.Scenario.build (e14_retry_spec topo ~seed ~loss ~retry) in
  Workload.Scenario.run s ~until:0.5;
  Sdnctl.Attack.launch s.net s.addressing
    ~conn:(Sdnctl.Provider.conn s.provider)
    (Sdnctl.Attack.Join { victim_client = 0; attacker_host = 1 });
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.2);
  match isolation_outcome s ~host:0 with
  | None -> false
  | Some o ->
    Rvaas.Detector.check_answer
      (Workload.Scenario.policy_for s ~client:0)
      o.Rvaas.Client_agent.answer
    <> []

let e14 () =
  section
    "E14: lossy control channel — fault injection vs. retry stack (fat-tree k=4)\n\
     retry = 3 auth attempts (10 ms backoff) + 50 ms poll retry + client re-request;\n\
     verdict% = answers equal to the lossless run, degraded% = honestly flagged\n\
     incomplete, lost = no answer, WRONG = clean-looking but incorrect (must be 0)";
  Printf.printf "%-7s %-5s | %8s %9s %6s %6s | %9s | %7s\n" "loss" "retry" "verdict%"
    "degraded%" "lost%" "WRONG" "lat (ms)" "rtx/qry";
  let losses = [ 0.0; 0.01; 0.05; 0.10 ] in
  List.iter
    (fun loss ->
      List.iter
        (fun retry ->
          let ok = ref 0
          and degraded = ref 0
          and lost = ref 0
          and wrong = ref 0
          and lat_sum = ref 0.0
          and lat_n = ref 0
          and overhead = ref 0 in
          for seed = 1 to e14_trials do
            let verdict, latency, extra = e14_benign_trial ~seed ~loss ~retry in
            (match verdict with
            | `Ok -> incr ok
            | `Degraded -> incr degraded
            | `Lost -> incr lost
            | `Wrong -> incr wrong);
            (match latency with
            | Some l ->
              lat_sum := !lat_sum +. l;
              incr lat_n
            | None -> ());
            overhead := !overhead + extra
          done;
          let pct n = 100.0 *. float_of_int n /. float_of_int e14_trials in
          Printf.printf "%-7s %-5s | %7.0f%% %8.0f%% %5.0f%% %6d | %9.3f | %7.2f\n%!"
            (Printf.sprintf "%g%%" (100.0 *. loss))
            (if retry then "on" else "off")
            (pct !ok) (pct !degraded) (pct !lost) !wrong
            (if !lat_n = 0 then Float.nan
             else 1000.0 *. !lat_sum /. float_of_int !lat_n)
            (float_of_int !overhead /. float_of_int e14_trials))
        [ false; true ])
    losses;
  Printf.printf "\njoin-attack detection rate under the same fault model:\n";
  Printf.printf "%-7s | %9s %9s\n" "loss" "no retry" "retry";
  List.iter
    (fun loss ->
      let rate retry =
        let hits = ref 0 in
        for seed = 101 to 100 + e14_attack_trials do
          if e14_attack_trial ~seed ~loss ~retry then incr hits
        done;
        100.0 *. float_of_int !hits /. float_of_int e14_attack_trials
      in
      let off = rate false in
      let on = rate true in
      Printf.printf "%-7s | %8.0f%% %8.0f%%\n%!"
        (Printf.sprintf "%g%%" (100.0 *. loss))
        off on)
    losses

(* ---------------------------------------------------------------- *)
(* E15: delta-aware reach cache under rolling single-switch updates  *)
(* ---------------------------------------------------------------- *)

let e15_rounds = 10

let e15 () =
  section
    "E15: reach cache under rolling single-switch updates\n\
     each round Flow-Mods one switch (round-robin) and then replays a fixed\n\
     interactive workload: dst-scoped reach queries from 8 access points plus one\n\
     isolation sweep.  full = any change flushes the whole cache (previous\n\
     behaviour, emulated by an extra snapshot-change hook); delta = only entries\n\
     whose reach pass traversed the modified switch are evicted.  hit rate is\n\
     over the reach workload, warmup round excluded";
  Printf.printf "%-14s %-6s | %11s %11s | %8s %16s %11s\n" "topology" "mode"
    "reach (ms)" "isolate(ms)" "hit rate" "inv/evict/flush" "ring/purged";
  let p = Workload.Topogen.default_params in
  let rng = Support.Rng.create 7 in
  let cases =
    [
      ("fat-tree-k6", Workload.Topogen.fat_tree p ~k:6);
      ("waxman-40", Workload.Topogen.waxman p rng ~n:40 ~alpha:0.4 ~beta:0.4);
    ]
  in
  List.iter
    (fun (name, topo) ->
      List.iter
        (fun (mode, full_invalidate) ->
          let s = build_scenario topo in
          Workload.Scenario.run s
            ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.2);
          let cache = Rvaas.Service.reach_cache s.service in
          if full_invalidate then
            (* Emulate the pre-delta behaviour: every actual change
               anywhere drops every cached result. *)
            Rvaas.Monitor.on_snapshot_change s.monitor (fun ~sw:_ ~changed ->
                if changed then Rvaas.Reach_cache.invalidate cache);
          let switches = Netsim.Topology.switches topo in
          let points = Rvaas.Verifier.access_points topo in
          let srcs = List.filteri (fun i _ -> i < 8) points in
          (* Two destination addresses: dst-scoped passes have the
             sparse traversal sets that delta invalidation keeps. *)
          let ip_of (ep : Rvaas.Verifier.endpoint) =
            (Option.get (Sdnctl.Addressing.host s.addressing ~host:ep.host))
              .Sdnctl.Addressing.ip
          in
          let dsts =
            [ ip_of (List.hd points); ip_of (List.hd (List.rev points)) ]
          in
          let att = List.hd points in
          let query = Rvaas.Query.make Rvaas.Query.Isolation in
          let st = Rvaas.Reach_cache.stats cache in
          let reach_time = ref 0.0
          and reach_n = ref 0
          and iso_time = ref 0.0
          and iso_n = ref 0
          and hits = ref 0
          and misses = ref 0 in
          for round = 0 to e15_rounds - 1 do
            let sw = List.nth switches (round mod List.length switches) in
            let m =
              Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Tp_src
                (7000 + round)
            in
            Netsim.Net.send s.net
              (Sdnctl.Provider.conn s.provider)
              ~sw
              (Ofproto.Message.Flow_mod
                 (Ofproto.Message.Add_flow
                    (Ofproto.Flow_entry.make_spec ~cookie:9 ~priority:55 m [])));
            Workload.Scenario.run s
              ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.05);
            let h0 = st.Rvaas.Reach_cache.hits
            and m0 = st.Rvaas.Reach_cache.misses in
            let (), reach_dt =
              wall (fun () ->
                  List.iter
                    (fun (src : Rvaas.Verifier.endpoint) ->
                      List.iter
                        (fun ip ->
                          ignore
                            (Rvaas.Service.reach s.service ~src_sw:src.sw
                               ~src_port:src.port
                               ~hs:(Rvaas.Verifier.dst_ip_hs ip)))
                        dsts)
                    srcs)
            in
            let dh = st.Rvaas.Reach_cache.hits - h0
            and dm = st.Rvaas.Reach_cache.misses - m0 in
            let (), iso_dt =
              wall (fun () ->
                  ignore
                    (Rvaas.Service.evaluate s.service ~client:0
                       ~sw:att.Rvaas.Verifier.sw ~port:att.Rvaas.Verifier.port
                       query))
            in
            if round > 0 then begin
              reach_time := !reach_time +. reach_dt;
              reach_n := !reach_n + (List.length srcs * List.length dsts);
              iso_time := !iso_time +. iso_dt;
              incr iso_n;
              hits := !hits + dh;
              misses := !misses + dm
            end
          done;
          let hit_rate =
            if !hits + !misses = 0 then 0.0
            else float_of_int !hits /. float_of_int (!hits + !misses)
          in
          Printf.printf
            "%-14s %-6s | %11.3f %11.3f | %7.0f%% %5d/%5d/%-4d %5d/%-5d\n%!"
            name mode
            (1000.0 *. !reach_time /. float_of_int (max 1 !reach_n))
            (1000.0 *. !iso_time /. float_of_int (max 1 !iso_n))
            (100.0 *. hit_rate)
            st.Rvaas.Reach_cache.invalidated
            st.Rvaas.Reach_cache.delta_evictions
            st.Rvaas.Reach_cache.invalidations
            (* The second-chance ring must track the live table, not
               the eviction history (the clock-leak regression). *)
            (Rvaas.Reach_cache.clock_length cache)
            st.Rvaas.Reach_cache.clock_purged)
        [ ("full", true); ("delta", false) ])
    cases

(* ---------------------------------------------------------------- *)
(* E16: controller crash mid-attack — recovery time & verdict parity *)
(* ---------------------------------------------------------------- *)

let e16_trials = 5

let e16_config =
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

let e16_scenario ~seed =
  let topo = Workload.Topogen.linear Workload.Topogen.default_params 4 in
  Workload.Scenario.build
    {
      (Workload.Scenario.default_spec topo) with
      seed;
      polling = Rvaas.Monitor.Periodic 0.02;
      (* The output-commit window: a crash can eat an answer that was
         already journalled closed and on the wire.  The client-side
         resend (same nonce, fires after the standby's takeover bound)
         is the end-to-end cover. *)
      agent_resend = Some 0.12;
      ha = Some e16_config;
    }

type e16_verdict = { v_endpoints : int; v_auth : int; v_alarms : string list }

let e16_verdict_of s (outcome : Rvaas.Client_agent.outcome) =
  let answer = outcome.Rvaas.Client_agent.answer in
  let alarms =
    Rvaas.Detector.check_answer (Workload.Scenario.policy_for s ~client:0) answer
  in
  {
    v_endpoints = List.length answer.Rvaas.Query.endpoints;
    v_auth = answer.Rvaas.Query.total_auth_requests;
    v_alarms = List.sort String.compare (List.map Rvaas.Detector.describe alarms);
  }

(* One trial: persistent join attack (it must survive the blind window,
   unlike E3's transients), then an isolation query with the controller
   crashed [crash_offset] seconds after the query went out.
   [crash_offset = None] is the fault-free twin the verdict is compared
   against. *)
let e16_trial ~seed ~crash_offset =
  let s = e16_scenario ~seed in
  let now () = Netsim.Sim.now (Netsim.Net.sim s.net) in
  Workload.Scenario.run s ~until:0.4;
  Sdnctl.Attack.launch s.net s.addressing
    ~conn:(Sdnctl.Provider.conn s.provider)
    (Sdnctl.Attack.Join { victim_client = 0; attacker_host = 1 });
  Workload.Scenario.run s ~until:0.5;
  let agent = Workload.Scenario.agent s ~host:0 in
  let result = ref None in
  Rvaas.Client_agent.set_answer_callback agent (fun o -> result := Some o);
  let nonce =
    Rvaas.Client_agent.send_query agent (Rvaas.Query.make Rvaas.Query.Isolation)
  in
  (match crash_offset with
  | Some dt ->
    Workload.Scenario.run s ~until:(0.5 +. dt);
    Rvaas.Failover.crash (Workload.Scenario.controller s);
    Rvaas.Failover.enable_standby (Workload.Scenario.controller s)
  | None -> ());
  let matched (o : Rvaas.Client_agent.outcome) =
    String.equal o.Rvaas.Client_agent.answer.Rvaas.Query.nonce nonce
  in
  let deadline = 2.0 in
  while
    (match !result with Some o -> not (matched o) | None -> true)
    && now () < deadline
  do
    Workload.Scenario.run s ~until:(now () +. 0.01)
  done;
  (* Let the resync watchdog observe the drained poll sweep. *)
  Workload.Scenario.run s ~until:(now () +. 0.25);
  let verdict =
    match !result with Some o when matched o -> Some (e16_verdict_of s o) | _ -> None
  in
  (s, verdict)

let e16 () =
  section
    "E16: controller crash at a random point of the attack workload (linear-4,\n\
     persistent join attack, isolation query in flight; standby: 10 ms\n\
     heartbeats, 50 ms takeover timeout, 10 ms watchdog).  detect = crash ->\n\
     takeover; blind = crash -> post-takeover poll sweep drained; parity =\n\
     verdict equals the fault-free twin (same seed, no crash)";
  Printf.printf "%-5s %10s | %10s %10s | %8s %8s %4s | %-7s %s\n" "seed" "crash (ms)"
    "detect(ms)" "blind (ms)" "replayed" "reissued" "gen" "answer" "parity";
  let strict = Sys.getenv_opt "RVAAS_E16_STRICT" <> None in
  let failures = ref 0 in
  for seed = 1 to e16_trials do
    let rng = Support.Rng.create (seed * 7919) in
    (* The window starts after the Packet-In lands (the query is open
       and journalled) and ends before the auth round completes, so the
       crash usually catches the query in flight. *)
    let crash_offset = 0.0015 +. Support.Rng.float rng 0.0025 in
    let _, expected = e16_trial ~seed ~crash_offset:None in
    let s, verdict = e16_trial ~seed ~crash_offset:(Some crash_offset) in
    let ctrl = Workload.Scenario.controller s in
    match Rvaas.Failover.last_takeover ctrl with
    | None ->
      incr failures;
      Printf.printf "%-5d %10.1f | standby never took over\n" seed
        (1000.0 *. crash_offset)
    | Some r ->
      let detect = r.Rvaas.Failover.detected_at -. r.Rvaas.Failover.crashed_at in
      let blind =
        if r.Rvaas.Failover.resynced_at > 0.0 then
          r.Rvaas.Failover.resynced_at -. r.Rvaas.Failover.crashed_at
        else nan
      in
      let answered = verdict <> None in
      let parity =
        match (verdict, expected) with Some got, Some want -> got = want | _ -> false
      in
      if (not answered) || not parity then incr failures;
      if strict && (detect > 0.08 || not (blind <= 0.2)) then incr failures;
      Printf.printf "%-5d %10.1f | %10.1f %10.1f | %8d %8d %4d | %-7s %s\n" seed
        (1000.0 *. crash_offset) (1000.0 *. detect) (1000.0 *. blind)
        r.Rvaas.Failover.replayed_entries r.Rvaas.Failover.reissued_queries
        r.Rvaas.Failover.generation
        (if answered then "ok" else "LOST")
        (if parity then "ok" else "MISMATCH")
  done;
  if strict then
    if !failures > 0 then begin
      Printf.printf "E16 strict: %d failing trial(s)\n" !failures;
      exit 1
    end
    else print_endline "E16 strict: all trials recovered within bounds"

(* ---------------------------------------------------------------- *)
(* E17: durable persistence — compaction, recovery latency, quorum   *)
(* ---------------------------------------------------------------- *)

(* A fresh directory path (not yet created) for a segmented store. *)
let store_tmp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  dir

let store_rm_rf dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

(* One monitored run of [duration] simulated seconds with the journal
   mirrored to a segmented store (default config); returns (entries,
   bytes on disk, recover µs, digest parity with the live
   snapshot). *)
let e17_persistence_run ~seed ~duration ~auto_compact =
  let topo = Workload.Topogen.linear Workload.Topogen.default_params 4 in
  let dir = store_tmp_dir "rvaas_e17" in
  Fun.protect
    ~finally:(fun () -> store_rm_rf dir)
    (fun () ->
      let s =
        Workload.Scenario.build
          {
            (Workload.Scenario.default_spec topo) with
            seed;
            polling = Rvaas.Monitor.Periodic 0.02;
            ha =
              Some
                {
                  Rvaas.Failover.default_config with
                  checkpoint_every = 32;
                  auto_compact;
                };
            persist =
              Some
                {
                  Workload.Scenario.p_dir = dir;
                  p_segment_bytes = Support.Segment_store.default_config.segment_bytes;
                  p_encrypt = false;
                };
          }
      in
      Workload.Scenario.run s ~until:duration;
      Support.Segment_store.sync (Workload.Scenario.store s);
      let bytes =
        Array.fold_left
          (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
          0 (Sys.readdir dir)
      in
      let live =
        Rvaas.Snapshot.digest_vector
          (Rvaas.Monitor.snapshot (Workload.Scenario.monitor s))
      in
      match Support.Segment_store.recover_from_dir dir with
      | Error e -> failwith ("E17: recover_from_dir: " ^ e)
      | Ok log' ->
        let t0 = Unix.gettimeofday () in
        let reps = 20 in
        let r = ref (Rvaas.Journal.recover log') in
        for _ = 2 to reps do
          r := Rvaas.Journal.recover log'
        done;
        let recover_us =
          1e6 *. (Unix.gettimeofday () -. t0) /. float_of_int reps
        in
        let parity =
          live = Rvaas.Snapshot.digest_vector !r.Rvaas.Journal.snapshot
        in
        (Support.Journal.length log', bytes, recover_us, parity))

(* One crash trial with [standbys] warm standbys; returns the takeover
   report (quorum election among the standbys decides the winner). *)
let e17_takeover_trial ~seed ~standbys =
  let topo = Workload.Topogen.linear Workload.Topogen.default_params 4 in
  let s =
    Workload.Scenario.build
      {
        (Workload.Scenario.default_spec topo) with
        seed;
        polling = Rvaas.Monitor.Periodic 0.02;
        ha = Some { e16_config with standbys };
      }
  in
  let ctrl = Workload.Scenario.controller s in
  let now () = Netsim.Sim.now (Netsim.Net.sim s.net) in
  (* Jitter the crash instant off the heartbeat grid so trials differ. *)
  let rng = Support.Rng.create (seed * 6007) in
  Workload.Scenario.run s ~until:(0.4 +. Support.Rng.float rng 0.01);
  Rvaas.Failover.crash ctrl;
  let deadline = now () +. 1.0 in
  while Rvaas.Failover.last_takeover ctrl = None && now () < deadline do
    Workload.Scenario.run s ~until:(now () +. 0.01)
  done;
  Workload.Scenario.run s ~until:(now () +. 0.25);
  Rvaas.Failover.last_takeover ctrl

let e17 () =
  section
    "E17: durable persistence (linear-4, 20 ms polling, checkpoint every 32).\n\
     (a) segmented-store growth on disk and recovery latency with compaction\n\
     off vs on; (b) takeover latency with 1 vs 3 warm standbys (journalled-claim\n\
     quorum election, 10 ms heartbeats, 50 ms takeover timeout)";
  let strict = Sys.getenv_opt "RVAAS_E17_STRICT" <> None in
  let failures = ref 0 in
  Printf.printf "%-9s %-8s | %8s %10s %12s %7s\n" "duration" "compact" "entries"
    "bytes" "recover(us)" "parity";
  let compact_bytes = Hashtbl.create 8 in
  List.iter
    (fun duration ->
      List.iter
        (fun auto_compact ->
          let entries, bytes, recover_us, parity =
            e17_persistence_run ~seed:42 ~duration ~auto_compact
          in
          if not parity then incr failures;
          if strict && auto_compact && entries > 64 then incr failures;
          Hashtbl.replace compact_bytes (duration, auto_compact) bytes;
          Printf.printf "%7.1fs %-9s | %8d %10d %12.1f %7s\n" duration
            (if auto_compact then "on" else "off")
            entries bytes recover_us
            (if parity then "ok" else "MISMATCH"))
        [ false; true ])
    [ 0.5; 1.0; 2.0 ];
  (match
     ( Hashtbl.find_opt compact_bytes (2.0, true),
       Hashtbl.find_opt compact_bytes (2.0, false) )
   with
  | Some on, Some off when strict && on >= off ->
    incr failures;
    Printf.printf "E17 strict: compaction did not shrink the store (%d >= %d)\n"
      on off
  | _ -> ());
  Printf.printf "%-5s %8s | %10s %10s %6s %4s\n" "seed" "standbys" "detect(ms)"
    "blind (ms)" "winner" "gen";
  List.iter
    (fun standbys ->
      for seed = 1 to 5 do
        match e17_takeover_trial ~seed ~standbys with
        | None ->
          incr failures;
          Printf.printf "%-5d %8d | no takeover\n" seed standbys
        | Some r ->
          let detect = r.Rvaas.Failover.detected_at -. r.Rvaas.Failover.crashed_at in
          let blind =
            if r.Rvaas.Failover.resynced_at > 0.0 then
              r.Rvaas.Failover.resynced_at -. r.Rvaas.Failover.crashed_at
            else nan
          in
          if strict && (detect > 0.08 || not (blind <= 0.2)) then incr failures;
          if strict && (r.Rvaas.Failover.winner < 0 || r.Rvaas.Failover.winner >= standbys)
          then incr failures;
          Printf.printf "%-5d %8d | %10.1f %10.1f %6d %4d\n" seed standbys
            (1000.0 *. detect) (1000.0 *. blind) r.Rvaas.Failover.winner
            r.Rvaas.Failover.generation
      done)
    [ 1; 3 ];
  if strict then
    if !failures > 0 then begin
      Printf.printf "E17 strict: %d failing check(s)\n" !failures;
      exit 1
    end
    else print_endline "E17 strict: all persistence and quorum checks passed"

(* ---------------------------------------------------------------- *)
(* E18: compiled plumbing graph vs. per-query sweeps                 *)
(* ---------------------------------------------------------------- *)

let e18_reps = 6

let e18_updates = 100

(* The monitor's default poll interval (Randomized 0.05 mean): the
   incremental per-update latency must stay below it, or the graph
   falls behind the deltas it is meant to absorb. *)
let e18_poll_interval = 0.05

let e18_agree (a : Rvaas.Verifier.reach_result) (b : Rvaas.Verifier.reach_result) =
  List.map fst a.endpoints = List.map fst b.endpoints
  && List.for_all2
       (fun (_, x) (_, y) -> Hspace.Hs.equal x y)
       a.endpoints b.endpoints
  && a.traversed = b.traversed

let e18 () =
  section
    "E18: compiled plumbing graph — one-time compile cost (8 warm\n\
     sources), steady-state query latency for the same 24-query workload\n\
     (8 sources x 3 scopes, 6 reps) under sweep / delta-cache / compiled\n\
     lookup, then 100 single-switch Flow-Mods with per-update incremental\n\
     latency (update + requery) and differential checks vs. a fresh sweep;\n\
     the maintained memo must equal a fresh compile at the end";
  let strict = Sys.getenv_opt "RVAAS_E18_STRICT" <> None in
  let failures = ref 0 in
  Printf.printf "%-14s %4s %6s | %10s %6s %7s | %9s %9s %9s %7s | %8s %5s\n"
    "topology" "sw" "rules" "compile" "nodes" "edges" "sweep(ms)" "cache(ms)"
    "look(ms)" "speedup" "upd(ms)" "diff";
  let p = Workload.Topogen.default_params in
  let rng = Support.Rng.create 7 in
  let cases =
    [
      ("fat-tree-k4", Workload.Topogen.fat_tree p ~k:4);
      ("fat-tree-k6", Workload.Topogen.fat_tree p ~k:6);
      ("waxman-20", Workload.Topogen.waxman p rng ~n:20 ~alpha:0.4 ~beta:0.4);
      ("waxman-40", Workload.Topogen.waxman p rng ~n:40 ~alpha:0.4 ~beta:0.4);
      ("waxman-80", Workload.Topogen.waxman p rng ~n:80 ~alpha:0.3 ~beta:0.3);
    ]
  in
  let last_case = fst (List.hd (List.rev cases)) in
  List.iter
    (fun (name, topo) ->
      let s = build_scenario ~clients:4 topo in
      Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.2);
      (* Freeze the monitored view into tables the bench mutates
         directly: engine-level measurement, no simulator noise. *)
      let snapshot = Rvaas.Monitor.snapshot s.monitor in
      let switches = Netsim.Topology.switches topo in
      let tables = Hashtbl.create 64 in
      List.iter
        (fun sw -> Hashtbl.replace tables sw (Rvaas.Snapshot.flows snapshot ~sw))
        switches;
      let flows_of sw = Option.value ~default:[] (Hashtbl.find_opt tables sw) in
      let rules =
        List.fold_left (fun acc sw -> acc + List.length (flows_of sw)) 0 switches
      in
      let points = Rvaas.Verifier.access_points topo in
      let srcs = List.filteri (fun i _ -> i < 8) points in
      let ip_of (ep : Rvaas.Verifier.endpoint) =
        (Option.get (Sdnctl.Addressing.host s.addressing ~host:ep.host))
          .Sdnctl.Addressing.ip
      in
      let scopes =
        [
          Rvaas.Verifier.ip_traffic_hs ();
          Rvaas.Verifier.dst_ip_hs (ip_of (List.hd points));
          Rvaas.Verifier.dst_ip_hs (ip_of (List.hd (List.rev points)));
        ]
      in
      let workload reach =
        List.iter
          (fun (src : Rvaas.Verifier.endpoint) ->
            List.iter (fun hs -> ignore (reach ~src ~hs)) scopes)
          srcs
      in
      let per_query dt =
        1000.0 *. dt
        /. float_of_int (e18_reps * List.length srcs * List.length scopes)
      in
      (* Sweep baseline: warm per-configuration context, one full reach
         pass per query. *)
      let ctx = Rvaas.Verifier.context ~flows_of topo in
      let (), sweep_dt =
        wall (fun () ->
            for _ = 1 to e18_reps do
              workload (fun ~src ~hs ->
                  Rvaas.Verifier.reach_in ctx ~src_sw:src.sw ~src_port:src.port
                    ~hs)
            done)
      in
      (* Delta-cache baseline: first rep misses and sweeps, later reps
         hit — the repeated-query amortisation of E13/E15. *)
      let cache = Rvaas.Reach_cache.create () in
      let (), cache_dt =
        wall (fun () ->
            for _ = 1 to e18_reps do
              workload (fun ~src ~hs ->
                  let key = Rvaas.Reach_cache.key ~src_sw:src.sw
                      ~src_port:src.port ~hs
                  in
                  match Rvaas.Reach_cache.find cache key with
                  | Some r -> r
                  | None ->
                    let r =
                      Rvaas.Verifier.reach_in ctx ~src_sw:src.sw
                        ~src_port:src.port ~hs
                    in
                    Rvaas.Reach_cache.add cache key r;
                    r)
            done)
      in
      (* Compiled engine: one-time compile (the warm sources), then
         every query is a lookup. *)
      let plumbing, compile_dt =
        wall (fun () ->
            let plumbing = Rvaas.Plumbing.compile ~flows_of topo in
            Rvaas.Plumbing.warm plumbing
              ~points:
                (List.map
                   (fun (src : Rvaas.Verifier.endpoint) -> (src.sw, src.port))
                   srcs);
            plumbing)
      in
      let (), lookup_dt =
        wall (fun () ->
            for _ = 1 to e18_reps do
              workload (fun ~src ~hs ->
                  Rvaas.Plumbing.reach plumbing ~src_sw:src.sw
                    ~src_port:src.port ~hs)
            done)
      in
      let speedup = sweep_dt /. Float.max lookup_dt 1e-9 in
      (* Incremental phase: rolling single-switch filter churn — each
         round installs a fresh drop filter and retires the oldest once
         more than four are live, so the believed view keeps changing
         without the tables monotonically fattening (permanent
         exact-match filters make {e any} HSA pass explode in cubes —
         that growth curve is E5's subject, not this one's).  Per-update
         cost = apply the delta(s) + requery one source; every 10th
         update is differentially checked against a fresh sweep. *)
      let mismatches = ref 0 in
      let probe = List.hd srcs in
      let probe_hs = Rvaas.Verifier.ip_traffic_hs () in
      let update_dt = ref 0.0 in
      let live = Queue.create () in
      for i = 0 to e18_updates - 1 do
        let sw = List.nth switches (i mod List.length switches) in
        let m =
          Ofproto.Match_.with_exact
            (Ofproto.Match_.with_exact
               (Ofproto.Match_.with_exact Ofproto.Match_.any
                  Hspace.Field.Eth_type 0x800)
               Hspace.Field.Ip_src
               (0xa000000 + i))
            Hspace.Field.Tp_dst
            (5000 + (i mod 50))
        in
        let spec = Ofproto.Flow_entry.make_spec ~cookie:77 ~priority:150 m [] in
        let (), dt =
          wall (fun () ->
              let higher, lower =
                List.partition
                  (fun (r : Ofproto.Flow_entry.spec) ->
                    r.priority >= spec.priority)
                  (flows_of sw)
              in
              Hashtbl.replace tables sw (higher @ (spec :: lower));
              Queue.add (sw, spec) live;
              Rvaas.Plumbing.update plumbing ~sw;
              if Queue.length live > 4 then begin
                let old_sw, old_spec = Queue.pop live in
                Hashtbl.replace tables old_sw
                  (List.filter
                     (fun r -> not (r == old_spec))
                     (flows_of old_sw));
                Rvaas.Plumbing.update plumbing ~sw:old_sw
              end;
              ignore
                (Rvaas.Plumbing.reach plumbing ~src_sw:probe.sw
                   ~src_port:probe.port ~hs:probe_hs))
        in
        update_dt := !update_dt +. dt;
        if i mod 10 = 9 then begin
          let a =
            Rvaas.Plumbing.reach plumbing ~src_sw:probe.sw ~src_port:probe.port
              ~hs:probe_hs
          in
          let b =
            Rvaas.Verifier.reach ~flows_of topo ~src_sw:probe.sw
              ~src_port:probe.port ~hs:probe_hs
          in
          if not (e18_agree a b) then incr mismatches
        end
      done;
      let avg_update = !update_dt /. float_of_int e18_updates in
      (* The maintained memo must answer exactly like a fresh compile. *)
      let fresh = Rvaas.Plumbing.compile ~flows_of topo in
      List.iter
        (fun (src : Rvaas.Verifier.endpoint) ->
          List.iter
            (fun hs ->
              let a =
                Rvaas.Plumbing.reach plumbing ~src_sw:src.sw ~src_port:src.port
                  ~hs
              in
              let b =
                Rvaas.Plumbing.reach fresh ~src_sw:src.sw ~src_port:src.port ~hs
              in
              if not (e18_agree a b) then incr mismatches)
            (Hspace.Hs.full Hspace.Field.total_width :: scopes))
        srcs;
      if !mismatches > 0 then incr failures;
      if strict && name = last_case then begin
        if speedup < 10.0 then begin
          incr failures;
          Printf.printf "E18 strict: compiled speedup %.1fx < 10x on %s\n"
            speedup name
        end;
        if avg_update > e18_poll_interval then begin
          incr failures;
          Printf.printf
            "E18 strict: %.1f ms per update exceeds the %.0f ms poll interval\n"
            (1000.0 *. avg_update)
            (1000.0 *. e18_poll_interval)
        end
      end;
      let g = Rvaas.Plumbing.graph plumbing in
      Printf.printf
        "%-14s %4d %6d | %8.1fms %6d %7d | %9.3f %9.3f %9.4f %6.1fx | %8.2f %5s\n%!"
        name
        (Workload.Topogen.switch_count topo)
        rules
        (1000.0 *. compile_dt)
        g.Rvaas.Plumbing.nodes g.Rvaas.Plumbing.edges (per_query sweep_dt)
        (per_query cache_dt) (per_query lookup_dt) speedup
        (1000.0 *. avg_update)
        (if !mismatches = 0 then "ok" else "FAIL"))
    cases;
  if strict then
    if !failures > 0 then begin
      Printf.printf "E18 strict: %d failing check(s)\n" !failures;
      exit 1
    end
    else
      print_endline
        "E18 strict: speedup, update-latency and differential checks passed"

(* ---------------------------------------------------------------- *)
(* E19: multi-tenant front-end — fan-in scaling, throttling, parity  *)
(* ---------------------------------------------------------------- *)

let e19_wave = 100_000

(* Zipf(s = 1) over [n] questions: the flash-crowd duplicate mix —
   most clients ask the handful of popular questions. *)
let e19_zipf_cdf n =
  let w = Array.init n (fun i -> 1.0 /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

(* Binary search for the first cdf entry >= u: the E20 catalogue runs
   to thousands of questions, and a linear scan per injected query
   would charge O(catalogue) to both modes' wall clock. *)
let e19_sample cdf rng =
  let u = Support.Rng.float rng 1.0 in
  let n = Array.length cdf in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

(* The question catalogue: every access point crossed with three
   probe-rich scopes (all IP traffic, the tenant's own subnet, one
   same-tenant peer address) — 162 distinct questions for k = 6.  Every
   question triggers a real auth round over dozens of endpoints, so the
   uncoalesced baseline pays challenge signing and reply verification
   per query while the front-end pays it once per computation. *)
let e19_questions (s : Workload.Scenario.t) =
  let points = Rvaas.Verifier.access_points (Netsim.Net.topology s.net) in
  let info (ep : Rvaas.Verifier.endpoint) =
    Option.get (Sdnctl.Addressing.host s.addressing ~host:ep.host)
  in
  let w = Hspace.Field.total_width in
  let subnet_hs client =
    let value, prefix_len = Sdnctl.Addressing.subnet s.addressing ~client in
    Hspace.Hs.of_cubes w
      [
        Hspace.Field.set_prefix (Hspace.Tern.all_x w) Hspace.Field.Ip_dst ~value
          ~prefix_len;
      ]
  in
  Array.of_list
    (List.concat_map
       (fun (pt : Rvaas.Verifier.endpoint) ->
         let i = info pt in
         let peer_scope =
           List.find_map
             (fun (q : Rvaas.Verifier.endpoint) ->
               let j = info q in
               if q.host <> pt.host && j.Sdnctl.Addressing.client = i.Sdnctl.Addressing.client
               then Some (Rvaas.Verifier.dst_ip_hs j.Sdnctl.Addressing.ip)
               else None)
             points
           |> Option.value ~default:(Rvaas.Verifier.ip_traffic_hs ())
         in
         List.map
           (fun scope -> (pt, scope, i.Sdnctl.Addressing.ip))
           [
             Rvaas.Verifier.ip_traffic_hs ();
             subnet_hs i.Sdnctl.Addressing.client;
             peer_scope;
           ])
       points)

type drive_result = {
  d_qps : float;  (* queries/sec wall-clock *)
  d_p99 : float;  (* p99 simulated answer latency (s) *)
  d_coalesce : float;
  d_subsume : float;
  d_subsumed : int;
  d_pool_warms : int;
  d_arrivals : int;  (* answers delivered *)
}

(* Drive [n] logical clients (one query each, mix drawn from
   [sampler]) through the served path in waves of [wave], so
   undelivered answer packets never pile past one wave.  Shared by E19
   (Zipf identical-duplicate mix) and E20 (Zipf scope-width mix). *)
let frontend_drive ?(engine = `Sweep) ?(wave = e19_wave) ~frontend ~sampler ~n ()
    =
  (* Three hosts per edge switch: 54 endpoints, so a tenant-wide scope
     probes ~26 same-tenant attachment points per query — the auth-round
     cost the front-end amortizes across coalesced duplicates. *)
  let topo =
    Workload.Topogen.fat_tree
      { Workload.Topogen.default_params with hosts_per_switch = 3 }
      ~k:6
  in
  let s =
    Workload.Scenario.build
      { (Workload.Scenario.default_spec topo) with engine; frontend }
  in
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.3);
  let sample = sampler s in
  let rng = Support.Rng.create 99 in
  (* Replace every host receiver with a minimal protocol endpoint: it
     records answer arrivals (the latency samples) and still answers
     auth challenges, so the full in-band round runs at every scale —
     the agents' bookkeeping would not survive millions of logical
     clients, but the wire protocol must. *)
  let arrivals = ref 0 in
  let latencies = ref [] in
  let t0 = ref 0.0 in
  let service_public = Rvaas.Service.public s.service in
  List.iter
    (fun host ->
      let info = Option.get (Sdnctl.Addressing.host s.addressing ~host) in
      let key =
        Option.get (Rvaas.Directory.key s.directory ~client:info.Sdnctl.Addressing.client)
      in
      Netsim.Net.set_host_receiver s.net ~host (fun (pkt : Netsim.Packet.t) ->
          let dst_port = Hspace.Header.get pkt.header Hspace.Field.Tp_dst in
          if dst_port = Rvaas.Wire.answer_port then begin
            incr arrivals;
            latencies := (Netsim.Sim.now (Netsim.Net.sim s.net) -. !t0) :: !latencies
          end
          else if dst_port = Rvaas.Wire.auth_request_port then
            match Rvaas.Codec.decode_auth_request pkt.payload ~service_public with
            | Error _ -> ()
            | Ok challenge ->
              let reply =
                Rvaas.Codec.encode_auth_reply ~client:info.Sdnctl.Addressing.client
                  ~challenge ~key
              in
              let header =
                Hspace.Header.udp ~src_ip:info.Sdnctl.Addressing.ip
                  ~dst_ip:Rvaas.Wire.service_ip ~src_port:0
                  ~dst_port:Rvaas.Wire.auth_reply_port
              in
              Netsim.Net.host_send s.net ~host (Netsim.Packet.make ~header reply)))
    (Netsim.Topology.hosts topo);
  let injected = ref 0 in
  let (), wall_dt =
    wall (fun () ->
        while !injected < n do
          let count = min wave (n - !injected) in
          t0 := Netsim.Sim.now (Netsim.Net.sim s.net);
          for i = 1 to count do
            let pt, scope, ip = sample rng in
            let id = !injected + i in
            Rvaas.Service.inject_query s.service ~client:id
              ~nonce:(Printf.sprintf "w%d" id) ~sw:pt.Rvaas.Verifier.sw
              ~port:pt.Rvaas.Verifier.port ~ip
              (Rvaas.Query.make ~scope Rvaas.Query.Reachable_endpoints)
          done;
          injected := !injected + count;
          (* Drain the wave: probe rounds, finalize, answer delivery. *)
          let deadline = !t0 +. 2.0 in
          while
            !arrivals < !injected
            && Netsim.Sim.now (Netsim.Net.sim s.net) < deadline
          do
            Workload.Scenario.run s
              ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.05)
          done
        done)
  in
  let fs = Rvaas.Service.frontend_stats s.service in
  let pool_warms =
    match Rvaas.Service.plumbing s.service with
    | None -> 0
    | Some pl -> (Rvaas.Plumbing.stats pl).Rvaas.Plumbing.pool_warms
  in
  {
    d_qps = float_of_int n /. Float.max wall_dt 1e-9;
    d_p99 = percentile 0.99 !latencies;
    d_coalesce = Rvaas.Service.coalesce_rate s.service;
    d_subsume = Rvaas.Service.subsume_rate s.service;
    d_subsumed = fs.Rvaas.Frontend.subsumed;
    d_pool_warms = pool_warms;
    d_arrivals = !arrivals;
  }

let e19_sampler s =
  let qs = e19_questions s in
  let cdf = e19_zipf_cdf (Array.length qs) in
  fun rng -> qs.(e19_sample cdf rng)

let e19_drive ~frontend ~n = frontend_drive ~frontend ~sampler:e19_sampler ~n ()

(* Differential parity: the same differently-scoped questions sent
   back to back by one agent (pooled by the settle tick) must report
   exactly the endpoints per-query evaluation reports.  [scopes] picks
   the question mix per scenario; [frontend] the pooling under test
   (E19: coalescing + batching; E20: subsumption on top).  Returns the
   mismatch count. *)
let parity_check ~engine ~frontend ~scopes =
  let topo = Workload.Topogen.fat_tree Workload.Topogen.default_params ~k:4 in
  let settle s =
    Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 1.0)
  in
  let ref_s =
    Workload.Scenario.build
      { (Workload.Scenario.default_spec topo) with engine }
  in
  settle ref_s;
  let pt = List.hd (Rvaas.Verifier.access_points topo) in
  let info =
    Option.get (Sdnctl.Addressing.host ref_s.addressing ~host:pt.Rvaas.Verifier.host)
  in
  let expected =
    List.map
      (fun scope ->
        let _, probes =
          Rvaas.Service.evaluate ref_s.service ~client:info.Sdnctl.Addressing.client
            ~sw:pt.Rvaas.Verifier.sw ~port:pt.Rvaas.Verifier.port
            (Rvaas.Query.make ~scope Rvaas.Query.Reachable_endpoints)
        in
        List.sort compare
          (List.map (fun (ep : Rvaas.Verifier.endpoint) -> (ep.sw, ep.port)) probes))
      (scopes ref_s)
  in
  let s =
    Workload.Scenario.build
      { (Workload.Scenario.default_spec topo) with engine; frontend }
  in
  settle s;
  let agent = Workload.Scenario.agent s ~host:pt.Rvaas.Verifier.host in
  let outcomes = ref [] in
  Rvaas.Client_agent.set_answer_callback agent (fun o -> outcomes := o :: !outcomes);
  let nonces =
    List.map
      (fun scope ->
        Rvaas.Client_agent.send_query agent
          (Rvaas.Query.make ~scope Rvaas.Query.Reachable_endpoints))
      (scopes s)
  in
  settle s;
  let mismatches = ref 0 in
  List.iteri
    (fun i nonce ->
      match
        List.find_opt
          (fun (o : Rvaas.Client_agent.outcome) ->
            String.equal o.answer.Rvaas.Query.nonce nonce)
          !outcomes
      with
      | None -> incr mismatches
      | Some o ->
        let got =
          List.sort compare
            (List.map
               (fun (ep : Rvaas.Query.endpoint_report) -> (ep.sw, ep.port))
               o.Rvaas.Client_agent.answer.Rvaas.Query.endpoints)
        in
        if got <> List.nth expected i then incr mismatches)
    nonces;
  !mismatches

let e19_parity ~engine =
  let ip_of (s : Workload.Scenario.t) h =
    (Option.get (Sdnctl.Addressing.host s.addressing ~host:h)).Sdnctl.Addressing.ip
  in
  parity_check ~engine
    ~frontend:(Rvaas.Frontend.coalescing ~batch_window:0.002 ())
    ~scopes:(fun s ->
      Rvaas.Verifier.ip_traffic_hs ()
      :: List.map (fun h -> Rvaas.Verifier.dst_ip_hs (ip_of s h)) [ 1; 2; 3; 4; 5 ])

let e19 () =
  section
    "E19: multi-tenant front-end — 1k to 1M logical clients, Zipf duplicate\n\
     mix over 162 distinct questions on fat-tree-k6.  coalesced = admission +\n\
     coalescing on (identical in-flight queries fold under one computation,\n\
     per-client signed answers fanned out at finalize); baseline = the\n\
     per-query seed path.  Then token-bucket throttling (noisy tenant vs\n\
     victim) and batched-vs-per-query differential parity under both engines";
  let strict = Sys.getenv_opt "RVAAS_E19_STRICT" <> None in
  let failures = ref 0 in
  Printf.printf "%-10s %9s | %12s %9s %9s %9s | %8s\n" "mode" "clients"
    "queries/s" "p99 (ms)" "coalesce" "subsumed" "answers";
  let run mode frontend n =
    let r = e19_drive ~frontend ~n in
    Printf.printf "%-10s %9d | %12.0f %9.2f %8.1f%% %9d | %8d%s\n%!" mode n
      r.d_qps (1000.0 *. r.d_p99) (100.0 *. r.d_coalesce) r.d_subsumed
      r.d_arrivals
      (if r.d_arrivals = n then "" else " MISSING");
    if r.d_arrivals <> n then incr failures;
    (r.d_qps, r.d_p99)
  in
  let base_qps, _ = run "baseline" Rvaas.Frontend.default_config 1_000 in
  let base10_qps, _ = run "baseline" Rvaas.Frontend.default_config 10_000 in
  ignore base_qps;
  (* One settle tick: same-instant duplicates fold in the pre-flush
     queue even when their computation would finalize synchronously. *)
  let coalesced = Rvaas.Frontend.coalescing ~batch_window:0.005 () in
  let _, p99_1k = run "coalesced" coalesced 1_000 in
  let qps10, _ = run "coalesced" coalesced 10_000 in
  let _ = run "coalesced" coalesced 100_000 in
  let r1m = e19_drive ~frontend:coalesced ~n:1_000_000 in
  let qps = r1m.d_qps
  and p99 = r1m.d_p99
  and rate = r1m.d_coalesce
  and arrivals = r1m.d_arrivals in
  Printf.printf "%-10s %9d | %12.0f %9.2f %8.1f%% %9d | %8d%s\n%!" "coalesced"
    1_000_000 qps (1000.0 *. p99) (100.0 *. rate) r1m.d_subsumed arrivals
    (if arrivals = 1_000_000 then "" else " MISSING");
  if arrivals <> 1_000_000 then incr failures;
  if strict && rate < 0.9 then begin
    incr failures;
    Printf.printf "E19 strict: coalesce rate %.1f%% < 90%% at 1M clients\n"
      (100.0 *. rate)
  end;
  if strict && p99 > 3.0 *. Float.max p99_1k 1e-9 then begin
    incr failures;
    Printf.printf "E19 strict: p99 not flat (%.2f ms at 1M vs %.2f ms at 1k)\n"
      (1000.0 *. p99) (1000.0 *. p99_1k)
  end;
  (* 8x, not the 12x a fast run shows: the ratio's denominator (the
     per-query baseline) swings tens of percent with machine state,
     and the gate must not flake on a slow-coalesce/fast-baseline
     run.  The order-of-magnitude claim lives at the 100k/1M rungs. *)
  if strict && qps10 < 8.0 *. base10_qps then begin
    incr failures;
    Printf.printf "E19 strict: %.0f q/s < 8x the %.0f q/s baseline at 10k\n" qps10
      base10_qps
  end;
  (* Throttling: a noisy tenant burns through its bucket; the victim's
     bucket is untouched. *)
  let topo = Workload.Topogen.fat_tree Workload.Topogen.default_params ~k:4 in
  let s =
    Workload.Scenario.build
      {
        (Workload.Scenario.default_spec topo) with
        frontend =
          Rvaas.Frontend.coalescing ~limits:{ Rvaas.Frontend.rate = 50.0; burst = 10.0 }
          ();
      }
  in
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.3);
  let qs = e19_questions s in
  let inject ~client ~id ((pt : Rvaas.Verifier.endpoint), scope, ip) =
    Rvaas.Service.inject_query s.service ~client ~nonce:(Printf.sprintf "t%d" id)
      ~sw:pt.sw ~port:pt.port ~ip
      (Rvaas.Query.make ~scope Rvaas.Query.Reachable_endpoints)
  in
  for i = 0 to 99 do
    inject ~client:0 ~id:i qs.(i mod Array.length qs)
  done;
  let noisy_throttled = (Rvaas.Service.stats s.service).queries_throttled in
  for i = 100 to 104 do
    inject ~client:1 ~id:i qs.(i mod Array.length qs)
  done;
  let victim_throttled =
    (Rvaas.Service.stats s.service).queries_throttled - noisy_throttled
  in
  Printf.printf "throttling: noisy tenant %d/100 refused, victim %d/5 refused\n%!"
    noisy_throttled victim_throttled;
  if strict && (noisy_throttled = 0 || victim_throttled > 0) then begin
    incr failures;
    print_endline "E19 strict: throttling hit the wrong tenant"
  end;
  (* Differential parity under both engines. *)
  List.iter
    (fun (name, engine) ->
      let mismatches = e19_parity ~engine in
      Printf.printf "parity (%s): %d mismatch(es)\n%!" name mismatches;
      if mismatches > 0 then incr failures)
    [ ("sweep", `Sweep); ("compiled", `Compiled) ];
  if strict then
    if !failures > 0 then begin
      Printf.printf "E19 strict: %d failing check(s)\n" !failures;
      exit 1
    end
    else
      print_endline
        "E19 strict: fan-in, latency, throttling and parity checks passed"

(* ---------------------------------------------------------------- *)
(* E20: semantic subsumption + cross-source pooling                  *)
(* ---------------------------------------------------------------- *)

(* The scope-width mix, Zipf(1) over three width classes (broad the
   most popular, narrow the rarest): a {e broad} question asks about
   all IP traffic at the client's access point; a {e mid} question
   cuts the tenant's subnet to one exact destination port; a {e
   narrow} question asks about one same-tenant peer destination at one
   exact port.  Ports are drawn uniformly, so mid and narrow questions
   are almost never byte-identical — Seagull's observation that
   verification workloads overlap far more than they repeat.
   Identical-only coalescing must open a computation (targets + auth
   round + finalize) per distinct variant; subsumption folds every
   variant into its point's broad computation and slices its answer
   out of the shared arrival spaces at finalize. *)
let e20_sampler (s : Workload.Scenario.t) =
  let points =
    Array.of_list (Rvaas.Verifier.access_points (Netsim.Net.topology s.net))
  in
  let info (ep : Rvaas.Verifier.endpoint) =
    Option.get (Sdnctl.Addressing.host s.addressing ~host:ep.host)
  in
  let w = Hspace.Field.total_width in
  let subnet_cube client =
    let value, prefix_len = Sdnctl.Addressing.subnet s.addressing ~client in
    Hspace.Field.set_prefix (Hspace.Tern.all_x w) Hspace.Field.Ip_dst ~value
      ~prefix_len
  in
  let peer_ips (pt : Rvaas.Verifier.endpoint) =
    let i = info pt in
    Array.of_list
      (List.filter_map
         (fun (q : Rvaas.Verifier.endpoint) ->
           let j = info q in
           if
             q.host <> pt.host
             && j.Sdnctl.Addressing.client = i.Sdnctl.Addressing.client
           then Some j.Sdnctl.Addressing.ip
           else None)
         (Array.to_list points))
  in
  let peers = Array.map peer_ips points in
  (* Zipf(1) over the three width classes: 1 : 1/2 : 1/3, i.e. 6/11
     broad, 3/11 mid, 2/11 narrow. *)
  let broad_mass = 6.0 /. 11.0 in
  let mid_mass = 3.0 /. 11.0 in
  fun rng ->
    let k = Support.Rng.int rng (Array.length points) in
    let pt = points.(k) in
    let i = info pt in
    let u = Support.Rng.float rng 1.0 in
    let scope =
      if u < broad_mass then Rvaas.Verifier.ip_traffic_hs ()
      else if u < broad_mass +. mid_mass then
        Hspace.Hs.of_cube
          (Hspace.Field.set_exact
             (subnet_cube i.Sdnctl.Addressing.client)
             Hspace.Field.Tp_dst
             (Support.Rng.int rng 65536))
      else
        Hspace.Hs.of_cube
          (Hspace.Field.set_exact
             (Hspace.Field.set_exact
                (Hspace.Field.set_exact (Hspace.Tern.all_x w)
                   Hspace.Field.Eth_type Hspace.Header.eth_type_ip)
                Hspace.Field.Ip_dst
                (Support.Rng.pick_array rng peers.(k)))
             Hspace.Field.Tp_dst
             (Support.Rng.int rng 65536))
    in
    (pt, scope, i.Sdnctl.Addressing.ip)

let e20_drive ~engine ~frontend ~n =
  frontend_drive ~engine ~wave:20_000 ~frontend ~sampler:e20_sampler ~n ()

(* Sliced-vs-per-query parity: broad, mid and narrow scopes sent back
   to back by one agent under subsumption must each report exactly the
   endpoints per-query evaluation reports. *)
let e20_parity ~engine =
  parity_check ~engine
    ~frontend:(Rvaas.Frontend.coalescing ~batch_window:0.002 ~subsume:true ())
    ~scopes:(fun s ->
      let w = Hspace.Field.total_width in
      let subnet_cube client =
        let value, prefix_len = Sdnctl.Addressing.subnet s.addressing ~client in
        Hspace.Field.set_prefix (Hspace.Tern.all_x w) Hspace.Field.Ip_dst ~value
          ~prefix_len
      in
      let ip_of h =
        (Option.get (Sdnctl.Addressing.host s.addressing ~host:h))
          .Sdnctl.Addressing.ip
      in
      Rvaas.Verifier.ip_traffic_hs ()
      :: Hspace.Hs.of_cube (subnet_cube 0)
      :: Hspace.Hs.of_cube
           (Hspace.Field.set_prefix (subnet_cube 0) Hspace.Field.Tp_dst ~value:0
              ~prefix_len:3)
      :: List.map (fun h -> Rvaas.Verifier.dst_ip_hs (ip_of h)) [ 1; 2; 3; 4 ])

let e20 () =
  section
    "E20: semantic subsumption + cross-source pooling — 100k logical clients,\n\
     Zipf scope-width mix (broad tenant-wide / mid subnet+port-slice / narrow\n\
     per-destination) on fat-tree-k6.  coalesce = PR 7's identical-only\n\
     coalescing: every distinct variant opens its own computation.  subsume =\n\
     the waiters-on-computation graph: a contained scope rides the broad\n\
     computation as a slice and is answered by arrival-space intersection at\n\
     the shared finalize; under the compiled engine each flush seeds one\n\
     Plumbing.warm across the points it spans.  Then sliced-vs-\n\
     per-query differential parity under both engines";
  let strict = Sys.getenv_opt "RVAAS_E20_STRICT" <> None in
  let failures = ref 0 in
  Printf.printf "%-10s %-9s %8s | %12s %9s %9s %9s %6s | %8s\n" "mode" "engine"
    "clients" "queries/s" "p99 (ms)" "coalesce" "subsume" "warms" "answers";
  let run mode (engine_name, engine) frontend n =
    let r = e20_drive ~engine ~frontend ~n in
    Printf.printf "%-10s %-9s %8d | %12.0f %9.2f %8.1f%% %8.1f%% %6d | %8d%s\n%!"
      mode engine_name n r.d_qps (1000.0 *. r.d_p99) (100.0 *. r.d_coalesce)
      (100.0 *. r.d_subsume) r.d_pool_warms r.d_arrivals
      (if r.d_arrivals = n then "" else " MISSING");
    if r.d_arrivals <> n then incr failures;
    r
  in
  let coalesce_only = Rvaas.Frontend.coalescing ~batch_window:0.005 () in
  let subsume = Rvaas.Frontend.coalescing ~batch_window:0.005 ~subsume:true () in
  let sweep = ("sweep", `Sweep) and compiled = ("compiled", `Compiled) in
  let n = 100_000 in
  ignore (run "coalesce" sweep coalesce_only 10_000);
  ignore (run "subsume" sweep subsume 10_000);
  let base_sweep = run "coalesce" sweep coalesce_only n in
  let sub_sweep = run "subsume" sweep subsume n in
  let base_comp = run "coalesce" compiled coalesce_only n in
  let sub_comp = run "subsume" compiled subsume n in
  if strict && sub_sweep.d_qps < 2.0 *. base_sweep.d_qps then begin
    incr failures;
    Printf.printf "E20 strict: %.0f q/s < 2x the %.0f q/s coalesce-only (sweep)\n"
      sub_sweep.d_qps base_sweep.d_qps
  end;
  if strict && sub_comp.d_qps < 1.5 *. base_comp.d_qps then begin
    incr failures;
    Printf.printf
      "E20 strict: %.0f q/s < 1.5x the %.0f q/s coalesce-only (compiled)\n"
      sub_comp.d_qps base_comp.d_qps
  end;
  if strict && (sub_sweep.d_subsume <= 0.0 || sub_comp.d_subsume <= 0.0) then begin
    incr failures;
    print_endline "E20 strict: subsume mode never subsumed a query"
  end;
  if strict && (base_sweep.d_subsumed <> 0 || base_comp.d_subsumed <> 0) then begin
    incr failures;
    print_endline
      "E20 strict: coalesce-only config entered the subsumption graph"
  end;
  if strict && sub_comp.d_pool_warms = 0 then begin
    incr failures;
    print_endline "E20 strict: no per-flush warm was seeded under the compiled engine"
  end;
  List.iter
    (fun (name, engine) ->
      let mismatches = e20_parity ~engine in
      Printf.printf "parity (%s): %d mismatch(es)\n%!" name mismatches;
      if mismatches > 0 then incr failures)
    [ sweep; compiled ];
  if strict then
    if !failures > 0 then begin
      Printf.printf "E20 strict: %d failing check(s)\n" !failures;
      exit 1
    end
    else
      print_endline
        "E20 strict: speedup, subsumption, pooling and parity checks passed"

(* ---------------------------------------------------------------- *)
(* E21: replicated segmented journal — sealed segments, lag-tolerant *)
(* quorum elections, encryption-at-rest                              *)
(* ---------------------------------------------------------------- *)

let e21_read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = really_input_string ic n in
  close_in ic;
  b

let e21_write_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let e21_is_prefix xs ys =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> x = y && go (xs, ys)
  in
  go (xs, ys)

(* One monitored run mirrored into a segmented store under [dir]. *)
let e21_store_run ~seed ~duration ~encrypt ~auto_compact ~dir =
  let topo = Workload.Topogen.linear Workload.Topogen.default_params 4 in
  let s =
    Workload.Scenario.build
      {
        (Workload.Scenario.default_spec topo) with
        seed;
        polling = Rvaas.Monitor.Periodic 0.02;
        ha =
          Some
            {
              Rvaas.Failover.default_config with
              checkpoint_every = 32;
              auto_compact;
            };
        persist =
          Some
            {
              Workload.Scenario.p_dir = dir;
              p_segment_bytes = 2048;
              p_encrypt = encrypt;
            };
      }
  in
  Workload.Scenario.run s ~until:duration;
  let store = Workload.Scenario.store s in
  Support.Segment_store.sync store;
  let live =
    Rvaas.Snapshot.digest_vector
      (Rvaas.Monitor.snapshot (Workload.Scenario.monitor s))
  in
  (s, store, live, Workload.Scenario.storage_key s)

(* Mean recovery latency (us) plus the recovered journal. *)
let e21_timed_recover ?crypt dir =
  match Support.Segment_store.recover_from_dir ?crypt dir with
  | Error e -> Error e
  | Ok first ->
    let t0 = Unix.gettimeofday () in
    let reps = 10 in
    let log = ref first in
    for _ = 1 to reps do
      match Support.Segment_store.recover_from_dir ?crypt dir with
      | Ok l -> log := l
      | Error e -> failwith ("E21: recover_from_dir: " ^ e)
    done;
    Ok (!log, 1e6 *. (Unix.gettimeofday () -. t0) /. float_of_int reps)

(* Crash matrix over one store directory: every crash state is a
   prefix of the write stream — later segment files absent, the torn
   file truncated.  A state passes when recovery yields a verified
   entry prefix of the undamaged recovery (a hard [Error] is allowed
   only for first-file damage). *)
let e21_crash_matrix ?crypt ~dir ~full () =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".rvsg" || Filename.check_suffix f ".act")
    |> List.sort compare
  in
  let backup = List.map (fun f -> (f, e21_read_file (Filename.concat dir f))) files in
  let restore () =
    Array.iter
      (fun f ->
        if not (List.mem_assoc f backup) then Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    List.iter (fun (f, b) -> e21_write_file (Filename.concat dir f) b) backup
  in
  let points = ref 0 and violations = ref 0 in
  List.iteri
    (fun i (name, bytes) ->
      List.iter
        (fun quarters ->
          restore ();
          List.iteri
            (fun j (later, _) ->
              if j > i then Sys.remove (Filename.concat dir later))
            backup;
          let cut = String.length bytes * quarters / 4 in
          e21_write_file (Filename.concat dir name) (String.sub bytes 0 cut);
          incr points;
          match Support.Segment_store.recover_from_dir ?crypt dir with
          | Error _ -> if i > 0 then incr violations
          | Ok log' ->
            let got = Support.Journal.valid_prefix log' in
            if not (Support.Journal.verify log' && e21_is_prefix got full) then
              incr violations)
        [ 1; 3 ])
    backup;
  restore ();
  (!points, !violations)

let e21_lag_config =
  { e16_config with standbys = 3; replica_lag = 64; replica_delay = 0.02 }

(* Crash trial where every election read goes through a lag-bounded
   replica tail (20 ms behind the journal). *)
let e21_lag_trial ~seed =
  let topo = Workload.Topogen.linear Workload.Topogen.default_params 4 in
  let s =
    Workload.Scenario.build
      {
        (Workload.Scenario.default_spec topo) with
        seed;
        polling = Rvaas.Monitor.Periodic 0.02;
        ha = Some { e21_lag_config with standbys = 0 };
      }
  in
  let ctrl = Workload.Scenario.controller s in
  let now () = Netsim.Sim.now (Netsim.Net.sim s.net) in
  let rng = Support.Rng.create (seed * 7919) in
  Workload.Scenario.run s ~until:0.3;
  (* stagger the standbys off the tick grid so rival claims can still
     be in flight when the winner decides *)
  Rvaas.Failover.enable_standbys
    ~phase:(fun sid -> float_of_int (((seed * 7) + (sid * 13)) mod 29) *. 0.0007)
    ctrl ~count:3;
  Workload.Scenario.run s ~until:(0.4 +. Support.Rng.float rng 0.01);
  Rvaas.Failover.crash ctrl;
  let deadline = now () +. 1.0 in
  while Rvaas.Failover.last_takeover ctrl = None && now () < deadline do
    Workload.Scenario.run s ~until:(now () +. 0.01)
  done;
  Workload.Scenario.run s ~until:(now () +. 0.25);
  (Rvaas.Failover.last_takeover ctrl, List.length (Rvaas.Failover.takeovers ctrl))

let e21 () =
  section
    "E21: replicated segmented journal (linear-4, 20 ms polling, 2 KiB\n\
     segments).  (a) sealed-segment compaction deletes whole files and\n\
     rewrites no retained byte; recovery stays a verified prefix across a\n\
     torn-tail crash matrix; (b) quorum elections over lag-bounded replica\n\
     tails (3 standbys, 20 ms replica delay); (c) encryption-at-rest:\n\
     keyed recovery parity, keyless recovery refused, bit flips rejected\n\
     by the frame MAC";
  let strict = Sys.getenv_opt "RVAAS_E21_STRICT" <> None in
  let failures = ref 0 in
  (* -- (a) store growth, compaction, crash matrix ------------------- *)
  Printf.printf "%-8s | %8s %10s %7s %8s %12s %7s\n" "compact" "entries"
    "bytes" "sealed" "deleted" "recover(us)" "parity";
  let bytes_by_mode = Hashtbl.create 4 in
  List.iter
    (fun auto_compact ->
      let dir = store_tmp_dir "rvaas_e21" in
      Fun.protect
        ~finally:(fun () -> store_rm_rf dir)
        (fun () ->
          let s, store, live, _ =
            e21_store_run ~seed:42 ~duration:1.5 ~encrypt:false ~auto_compact
              ~dir
          in
          (if not auto_compact then begin
             (* compact mid-store at the support layer: whole sealed
                files below the cut die, every retained byte survives
                untouched *)
             let ctrl = Workload.Scenario.controller s in
             let log = Rvaas.Journal.log (Rvaas.Failover.journal ctrl) in
             let before =
               List.map
                 (fun p -> (p, e21_read_file p))
                 (Support.Segment_store.sealed_paths store)
             in
             Support.Journal.compact log
               ~upto_seq:(Support.Journal.last_seq log - 20);
             let deleted =
               List.length
                 (List.filter (fun (p, _) -> not (Sys.file_exists p)) before)
             in
             let rewritten =
               List.length
                 (List.filter
                    (fun (p, b) ->
                      Sys.file_exists p && e21_read_file p <> b)
                    before)
             in
             Printf.printf
               "mid-store compaction: %d sealed file(s) deleted whole, %d \
                retained file(s) rewritten\n"
               deleted rewritten;
             if strict && (deleted = 0 || rewritten > 0) then incr failures
           end);
          Support.Segment_store.close store;
          match e21_timed_recover dir with
          | Error e -> failwith ("E21: recover_from_dir: " ^ e)
          | Ok (log', recover_us) ->
            let r = Rvaas.Journal.recover log' in
            let parity =
              live = Rvaas.Snapshot.digest_vector r.Rvaas.Journal.snapshot
            in
            if not parity then incr failures;
            Hashtbl.replace bytes_by_mode auto_compact
              (Support.Segment_store.written_bytes store);
            Printf.printf "%-8s | %8d %10d %7d %8d %12.1f %7s\n"
              (if auto_compact then "on" else "off")
              (Support.Journal.length log')
              (Support.Segment_store.written_bytes store)
              (Support.Segment_store.sealed_count store)
              (Support.Segment_store.sealed_deleted store)
              recover_us
              (if parity then "ok" else "MISMATCH");
            if strict && auto_compact
               && Support.Segment_store.sealed_deleted store = 0
            then incr failures;
            let points, violations =
              e21_crash_matrix ~dir ~full:(Support.Journal.valid_prefix log') ()
            in
            Printf.printf "crash matrix: %d point(s), %d prefix violation(s)\n"
              points violations;
            if strict && violations > 0 then incr failures))
    [ false; true ];
  (match
     (Hashtbl.find_opt bytes_by_mode true, Hashtbl.find_opt bytes_by_mode false)
   with
  | Some on, Some off when strict && on >= off ->
    incr failures;
    Printf.printf "E21 strict: compaction did not shrink the store (%d >= %d)\n"
      on off
  | _ -> ());
  (* -- (b) elections over lagging replica tails --------------------- *)
  Printf.printf "%-5s | %10s %6s %4s %10s %9s\n" "seed" "detect(ms)" "winner"
    "gen" "reconciled" "takeovers";
  let reconciled_total = ref 0 in
  for seed = 1 to 8 do
    match e21_lag_trial ~seed with
    | None, _ ->
      incr failures;
      Printf.printf "%-5d | no takeover\n" seed
    | Some r, takeovers ->
      let detect = r.Rvaas.Failover.detected_at -. r.Rvaas.Failover.crashed_at in
      reconciled_total := !reconciled_total + r.Rvaas.Failover.reconciled_records;
      if strict
         && (takeovers <> 1 || detect > 0.12
            || r.Rvaas.Failover.winner < 0
            || r.Rvaas.Failover.winner >= 3)
      then incr failures;
      Printf.printf "%-5d | %10.1f %6d %4d %10d %9d\n" seed (1000.0 *. detect)
        r.Rvaas.Failover.winner r.Rvaas.Failover.generation
        r.Rvaas.Failover.reconciled_records takeovers
  done;
  if strict && !reconciled_total = 0 then begin
    incr failures;
    print_endline "E21 strict: no winner ever reconciled in-transit frames"
  end;
  (* -- (c) encryption-at-rest --------------------------------------- *)
  let dir = store_tmp_dir "rvaas_e21" in
  Fun.protect
    ~finally:(fun () -> store_rm_rf dir)
    (fun () ->
      let _, store, live, key =
        e21_store_run ~seed:7 ~duration:1.0 ~encrypt:true ~auto_compact:false
          ~dir
      in
      let sealed = Support.Segment_store.sealed_paths store in
      Support.Segment_store.close store;
      let crypt = Cryptosim.Atrest.crypt ~key in
      match e21_timed_recover ~crypt dir with
      | Error e -> failwith ("E21: encrypted recover: " ^ e)
      | Ok (log', recover_us) ->
        let r = Rvaas.Journal.recover log' in
        let parity =
          live = Rvaas.Snapshot.digest_vector r.Rvaas.Journal.snapshot
        in
        if not parity then incr failures;
        let keyless_refused =
          match Support.Segment_store.recover_from_dir dir with
          | Error _ -> true
          | Ok _ -> false
        in
        if not keyless_refused then incr failures;
        let wrong_key_entries =
          let wrong =
            Cryptosim.Atrest.crypt
              ~key:(Cryptosim.Hmac.key_of_string "not-the-storage-key")
          in
          match Support.Segment_store.recover_from_dir ~crypt:wrong dir with
          | Error _ -> 0
          | Ok l -> List.length (Support.Journal.valid_prefix l)
        in
        if wrong_key_entries > 0 then incr failures;
        let flipped_entries =
          match sealed with
          | [] -> -1
          | p :: _ ->
            let b = Bytes.of_string (e21_read_file p) in
            let pos = Bytes.length b / 2 in
            Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
            e21_write_file p (Bytes.to_string b);
            (match Support.Segment_store.recover_from_dir ~crypt dir with
            | Error _ -> 0
            | Ok l -> List.length (Support.Journal.valid_prefix l))
        in
        let full_entries = Support.Journal.length log' in
        if strict && not (flipped_entries >= 0 && flipped_entries < full_entries)
        then incr failures;
        Printf.printf
          "encrypted: %d entries, %d bytes, keyed recover %.1f us (parity \
           %s)\n\
           keyless recover refused: %b; wrong-key verified entries: %d\n\
           bit-flipped sealed frame: MAC rejected, %d/%d entries recovered\n"
          full_entries
          (Support.Segment_store.written_bytes store)
          recover_us
          (if parity then "ok" else "MISMATCH")
          keyless_refused wrong_key_entries flipped_entries full_entries);
  if strict then
    if !failures > 0 then begin
      Printf.printf "E21 strict: %d failing check(s)\n" !failures;
      exit 1
    end
    else
      print_endline
        "E21 strict: segment, quorum-under-lag and at-rest checks passed"

(* ---------------------------------------------------------------- *)
(* E22: internet-scale soak — 1000+ switch multi-domain world,       *)
(* millions of range-addressed hosts, an hour of simulated churn     *)
(* ---------------------------------------------------------------- *)

(* Peak resident set (VmHWM) in KiB from /proc/self/status; 0 when
   unavailable (non-Linux). *)
let e22_peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        else scan ()
    in
    let kb = scan () in
    close_in ic;
    kb

(* Full verdict agreement, controller hits included (E18's comparator
   plus the interception dimension the soak's attacks exercise). *)
let e22_agree (a : Rvaas.Verifier.reach_result) (b : Rvaas.Verifier.reach_result) =
  List.map fst a.endpoints = List.map fst b.endpoints
  && List.for_all2
       (fun (_, x) (_, y) -> Hspace.Hs.equal x y)
       a.endpoints b.endpoints
  && a.traversed = b.traversed
  && List.map fst a.controller_hits = List.map fst b.controller_hits
  && List.for_all2
       (fun (_, x) (_, y) -> Hspace.Hs.equal x y)
       a.controller_hits b.controller_hits

let e22 () =
  let smoke = Sys.getenv_opt "RVAAS_E22_SMOKE" <> None in
  let strict = Sys.getenv_opt "RVAAS_E22_STRICT" <> None in
  let duration = if smoke then 300.0 else 3600.0 in
  let samples = if smoke then 5 else 12 in
  section
    (Printf.sprintf
       "E22: internet-scale soak — multi-domain world (leaf-spine DC +\n\
        scale-free backbone), every attachment point a /16 range gateway\n\
        carried as one Hs cube, %.0f s simulated churn campaign (rolling\n\
        upgrades, link flaps, transient attacks, query storms) on the\n\
        compiled engine behind a coalescing front-end; sweep-vs-compiled\n\
        verdict parity sampled throughout%s"
       duration
       (if smoke then " [smoke]" else ""));
  let params =
    { Workload.Topogen.default_params with hosts_per_switch = 1; host_stride = 24 }
  in
  let md, topo_wall =
    wall (fun () ->
        Workload.Topogen.multi_domain params (Support.Rng.create 22) ~peering:3
          [
            Workload.Topogen.Leaf_spine { spines = 4; leaves = 996 };
            Workload.Topogen.Scale_free { n = 40; m = 2 };
          ])
  in
  let topo = md.Workload.Topogen.md_topo in
  let gateways = Array.of_list (Netsim.Topology.hosts topo) in
  let clients = Array.length gateways in
  let s, deploy_wall =
    wall (fun () ->
        Workload.Scenario.build
          {
            (Workload.Scenario.default_spec topo) with
            clients;
            seed = 22;
            polling = Rvaas.Monitor.Periodic 60.0;
            engine = `Compiled;
            frontend = Rvaas.Frontend.coalescing ~batch_window:0.002 ();
            range_hosts = 0x10000;
          })
  in
  let sim = Netsim.Net.sim s.net in
  let now () = Netsim.Sim.now sim in
  Workload.Scenario.run s ~until:(now () +. 1.0);
  Printf.printf
    "world: %d switches in %d domains, %d gateways, %d addresses, %d \
     provider rules\n\
     build: topology %.2f s, deployment %.2f s\n"
    (Workload.Topogen.switch_count topo)
    (Array.length md.Workload.Topogen.md_domains)
    clients
    (Workload.Scenario.address_count s)
    (Sdnctl.Provider.rule_count s.provider)
    topo_wall deploy_wall;
  let profile =
    {
      Workload.Churn.upgrades_per_min = 0.5;
      flaps_per_min = 1.0;
      attacks_per_min = 0.5;
      storms_per_min = 1.0;
      upgrade_outage = 5.0;
      flap_down = 3.0;
      attack_dwell = 10.0;
      storm_queries = 30;
      storm_spread = 5.0;
    }
  in
  let start = now () in
  let campaign = Workload.Churn.plan s profile ~seed:22 ~start ~duration in
  let planned =
    List.fold_left
      (fun (u, f, a, st) (_, e) ->
        match e with
        | Workload.Churn.Upgrade _ -> (u + 1, f, a, st)
        | Workload.Churn.Flap _ -> (u, f + 1, a, st)
        | Workload.Churn.Attack_burst _ -> (u, f, a + 1, st)
        | Workload.Churn.Storm _ -> (u, f, a, st + 1))
      (0, 0, 0, 0) campaign.Workload.Churn.c_events
  in
  let pu, pf, pa, ps = planned in
  Printf.printf
    "campaign: %d events over %.0f s (%d upgrades, %d flaps, %d attacks, %d \
     storms)\n"
    (Workload.Churn.event_count campaign)
    duration pu pf pa ps;
  let report = Workload.Churn.schedule s campaign in
  let points = Array.of_list (Rvaas.Verifier.access_points topo) in
  let parity_checks = ref 0 and parity_mismatches = ref 0 in
  let executed0 = Netsim.Sim.executed sim in
  let wall0 = now_s () in
  Printf.printf "%-7s | %9s %9s %8s | %6s %8s %7s | %6s\n" "sim(s)" "events"
    "ev/s(w)" "wall(s)" "cache%" "coalesce" "rss(MB)" "parity";
  for k = 1 to samples do
    let (), step_wall =
      wall (fun () ->
          Workload.Scenario.run s
            ~until:(start +. (float_of_int k *. (duration /. float_of_int samples))))
    in
    (* Parity sample: the compiled engine's verdict vs a sweep of the
       same believed view — one range-scoped query (a /16 carried as a
       single cube) and one broad ip-traffic query, from two rotating
       access points. *)
    let snapshot = Rvaas.Monitor.snapshot (Workload.Scenario.monitor s) in
    let flows_of sw = Rvaas.Snapshot.flows snapshot ~sw in
    let scope_gw = gateways.(k * 13 mod Array.length gateways) in
    let scopes =
      [
        Option.get (Workload.Scenario.range_scope s ~host:scope_gw);
        Rvaas.Verifier.ip_traffic_hs ();
      ]
    in
    List.iter
      (fun (ep : Rvaas.Verifier.endpoint) ->
        List.iter
          (fun hs ->
            incr parity_checks;
            let live =
              Rvaas.Service.reach (Workload.Scenario.service s) ~src_sw:ep.sw
                ~src_port:ep.port ~hs
            in
            let sweep =
              Rvaas.Verifier.reach ~flows_of topo ~src_sw:ep.sw
                ~src_port:ep.port ~hs
            in
            if not (e22_agree live sweep) then incr parity_mismatches)
          scopes)
      [ points.(k mod Array.length points);
        points.(k * 7 mod Array.length points);
      ];
    let executed = Netsim.Sim.executed sim - executed0 in
    let cache = Rvaas.Reach_cache.hit_rate (Rvaas.Service.reach_cache (Workload.Scenario.service s)) in
    let frontend = Rvaas.Service.frontend_stats (Workload.Scenario.service s) in
    let coalesce_rate =
      if frontend.Rvaas.Frontend.admitted = 0 then 0.0
      else
        float_of_int frontend.Rvaas.Frontend.coalesced
        /. float_of_int frontend.Rvaas.Frontend.admitted
    in
    Printf.printf "%-7.0f | %9d %9.0f %8.1f | %6.1f %8.1f %7.1f | %6s\n"
      (now () -. start) executed
      (float_of_int executed /. (now_s () -. wall0))
      step_wall (100.0 *. cache) (100.0 *. coalesce_rate)
      (float_of_int (e22_peak_rss_kb ()) /. 1024.0)
      (if !parity_mismatches = 0 then "ok" else "MISMATCH");
    flush stdout
  done;
  (* Let the last transients retract, then summarise. *)
  Workload.Scenario.run s ~until:(now () +. 15.0);
  let total_wall = now_s () -. wall0 in
  let executed = Netsim.Sim.executed sim - executed0 in
  let plumbing_stats =
    Option.map Rvaas.Plumbing.stats
      (Rvaas.Service.plumbing (Workload.Scenario.service s))
  in
  Printf.printf
    "soak: %.0f s simulated in %.1f s wall — %.0f events/s sustained, peak \
     RSS %.1f MB\n\
     churn executed: %d/%d upgrades, %d/%d flaps, %d/%d attacks, %d/%d \
     storms\n\
     storms: %d queries sent, %d answered, %d throttled\n\
     parity: %d/%d sampled verdicts agree\n"
    (now () -. 15.0 -. start) total_wall
    (float_of_int executed /. total_wall)
    (float_of_int (e22_peak_rss_kb ()) /. 1024.0)
    report.Workload.Churn.upgrades pu report.Workload.Churn.flaps pf
    report.Workload.Churn.attacks pa report.Workload.Churn.storms ps
    report.Workload.Churn.storm_queries_sent
    report.Workload.Churn.storm_answers report.Workload.Churn.storm_throttled
    (!parity_checks - !parity_mismatches)
    !parity_checks;
  (match plumbing_stats with
  | Some st ->
    Printf.printf
      "plumbing: %d incremental updates, %d recompiles, %d scoped lookups, \
       %d fallback sweeps\n"
      st.Rvaas.Plumbing.updates st.Rvaas.Plumbing.recompiles
      st.Rvaas.Plumbing.scoped_lookups st.Rvaas.Plumbing.fallback_sweeps
  | None -> ());
  if strict then begin
    let failures = ref 0 in
    let fail msg =
      incr failures;
      Printf.printf "E22 strict: %s\n" msg
    in
    if !parity_mismatches > 0 then
      fail
        (Printf.sprintf "%d sweep-vs-compiled parity mismatch(es)"
           !parity_mismatches);
    if Workload.Topogen.switch_count topo < 1000 then
      fail "world below 1000 switches";
    if Workload.Scenario.address_count s < 2_000_000 then
      fail "fewer than two million range-carried addresses";
    if (not smoke) && now () -. start < 3600.0 then
      fail "less than an hour of simulated time";
    if
      report.Workload.Churn.upgrades <> pu
      || report.Workload.Churn.flaps <> pf
      || report.Workload.Churn.attacks <> pa
      || report.Workload.Churn.storms <> ps
    then fail "campaign did not execute every planned event";
    if ps > 0 && report.Workload.Churn.storm_answers = 0 then
      fail "storm queries never answered";
    if !failures > 0 then begin
      Printf.printf "E22 strict: %d failing check(s)\n" !failures;
      exit 1
    end
    else
      print_endline
        "E22 strict: scale, campaign-completion and parity checks passed"
  end

(* ---------------------------------------------------------------- *)
(* Micro-benchmarks (Bechamel)                                       *)
(* ---------------------------------------------------------------- *)

let micro () =
  section "micro: core kernels (Bechamel OLS, time per call)";
  let open Bechamel in
  let rng = Support.Rng.create 4242 in
  let w = Hspace.Field.total_width in
  let cube_a = Hspace.Tern.random rng w ~fixed_prob:0.3 in
  let cube_b = Hspace.Tern.random rng w ~fixed_prob:0.3 in
  let hs_a =
    Hspace.Hs.of_cubes w (List.init 8 (fun _ -> Hspace.Tern.random rng w ~fixed_prob:0.3))
  in
  let hs_b =
    Hspace.Hs.of_cubes w (List.init 8 (fun _ -> Hspace.Tern.random rng w ~fixed_prob:0.3))
  in
  (* A 100-rule flow table and a header matching only the last rule. *)
  let table = Ofproto.Flow_table.create () in
  for i = 0 to 99 do
    let m = Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Ip_dst (1000 + i) in
    Ofproto.Flow_table.add table
      (Ofproto.Flow_entry.make_spec ~priority:(100 + i) m [ Ofproto.Action.Output 1 ])
      ~now:0.0
  done;
  let header = Hspace.Header.udp ~src_ip:1 ~dst_ip:1099 ~src_port:1 ~dst_port:2 in
  (* Ingest kernels on a 100-rule switch whose rules share one priority,
     like the provider's per-destination routes; each call re-installs
     (or re-reports) the middle rule, so the table stays the same size.
     Separate views keep the kernels from reordering each other's. *)
  let route i =
    Ofproto.Flow_entry.make_spec ~priority:100
      (Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Ip_dst (2000 + i))
      [ Ofproto.Action.Output 1 ]
  in
  let routes = List.init 100 route in
  let mid = List.nth routes 50 in
  let route_table = Ofproto.Flow_table.create () in
  List.iter (fun spec -> Ofproto.Flow_table.add route_table spec ~now:0.0) routes;
  let event_view = Rvaas.Snapshot.create () in
  Rvaas.Snapshot.replace_flows event_view ~sw:0 ~now:0.0 routes;
  let reply_view = Rvaas.Snapshot.create () in
  Rvaas.Snapshot.replace_flows reply_view ~sw:0 ~now:0.0 routes;
  (* A settled fat-tree scenario for the reachability kernel. *)
  let topo = Workload.Topogen.fat_tree Workload.Topogen.default_params ~k:4 in
  let s = build_scenario topo in
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.2);
  let flows_of sw = Rvaas.Snapshot.flows (Rvaas.Monitor.snapshot s.monitor) ~sw in
  let att = Option.get (Netsim.Topology.host_attachment topo 0) in
  let src_sw =
    match att.Netsim.Topology.node with
    | Netsim.Topology.Switch sw -> sw
    | _ -> assert false
  in
  let snapshot = Rvaas.Monitor.snapshot s.monitor in
  let service_kp = Cryptosim.Keys.generate rng ~owner:"bench" in
  let empty_answer =
    {
      Rvaas.Query.nonce = "n";
      kind = Rvaas.Query.Isolation;
      endpoints = [];
      total_auth_requests = 0;
      auth_replies = 0;
      auth_attempts = 0;
      degraded = false;
      jurisdictions = [];
      path_hops = None;
      meters = [];
      transfer = [];
      snapshot_age = 0.0;
      throttled = false;
    }
  in
  let kernels =
    [
      ("tern_inter", fun () -> ignore (Hspace.Tern.inter cube_a cube_b));
      ("tern_diff", fun () -> ignore (Hspace.Tern.diff cube_a cube_b));
      ("hs_inter", fun () -> ignore (Hspace.Hs.inter hs_a hs_b));
      ("hs_diff", fun () -> ignore (Hspace.Hs.diff hs_a hs_b));
      ( "flow_lookup_100",
        fun () -> ignore (Ofproto.Flow_table.lookup table ~in_port:0 header) );
      ( "reach_fattree_k4",
        fun () ->
          ignore
            (Rvaas.Verifier.reach ~flows_of topo ~src_sw
               ~src_port:att.Netsim.Topology.port
               ~hs:(Rvaas.Verifier.dst_ip_hs 0x0A000002)) );
      ("snapshot_digest", fun () -> ignore (Rvaas.Snapshot.digest snapshot));
      ("flow_table_add_100", fun () -> Ofproto.Flow_table.add route_table mid ~now:0.0);
      (* What the monitor pays per Flow-Mod event: the event, then the
         switch digest its [changed] flag compares. *)
      ( "snapshot_apply_event",
        fun () ->
          Rvaas.Snapshot.apply_event event_view ~sw:0 ~now:0.0
            (Ofproto.Message.Flow_modified mid);
          ignore (Rvaas.Snapshot.switch_digest event_view ~sw:0) );
      (* A stats reply that confirms the view: the switch reports the
         rules it holds, in table order. *)
      ( "snapshot_replace_flows",
        fun () -> Rvaas.Snapshot.replace_flows reply_view ~sw:0 ~now:0.0 routes );
      ( "answer_codec",
        fun () -> ignore (Rvaas.Codec.encode_answer empty_answer ~signer:service_kp) );
    ]
  in
  (* Allocation pressure alongside latency: the mean minor-heap words
     allocated per call, from [Gc.minor_words] deltas over a fixed
     iteration count (Bechamel measures time only). *)
  let minor_words_per_call f =
    f ();
    let iters = 50 in
    let before = Gc.minor_words () in
    for _ = 1 to iters do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int iters
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None () in
  let instance = Toolkit.Instance.monotonic_clock in
  Printf.printf "%-22s %15s %18s\n" "kernel" "ns/call" "minor words/call";
  List.iter
    (fun (kname, f) ->
      let test = Test.make ~name:kname (Staged.stage f) in
      let raw = Benchmark.all cfg [ instance ] test in
      let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
      let results = Analyze.all ols instance raw in
      let alloc = minor_words_per_call f in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] -> Printf.printf "%-22s %15.1f %18.0f\n" name ns alloc
          | Some _ | None -> Printf.printf "%-22s %15s %18.0f\n" name "n/a" alloc)
        results)
    kernels

(* ---------------------------------------------------------------- *)

let experiments =
  [
    ("e1", e1);
    ("e2", e2);
    ("e3", e3);
    ("e4", e4);
    ("e5", e5);
    ("e6", e6);
    ("e7", e7);
    ("e8", e8);
    ("e9", e9);
    ("e10", e10);
    ("e11", e11);
    ("e12", e12);
    ("e13", e13);
    ("e14", e14);
    ("e15", e15);
    ("e16", e16);
    ("e17", e17);
    ("e18", e18);
    ("e19", e19);
    ("e20", e20);
    ("e21", e21);
    ("e22", e22);
    ("micro", micro);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let selected =
    match args with
    | [] | [ "all" ] -> List.map fst experiments
    | names -> names
  in
  print_endline "RVaaS experiment harness (see EXPERIMENTS.md for the index)";
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        f ();
        flush stdout
      | None ->
        Printf.printf "unknown experiment %S (known: %s)\n" name
          (String.concat ", " (List.map fst experiments)))
    selected
