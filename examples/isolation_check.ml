(* Isolation check under a join attack — the executable version of the
   paper's Figures 1 and 2.

   A cyber attacker who compromised the provider's control plane adds a
   secret access point into a victim client's isolation domain (a "join
   attack", §IV-B.1).  The victim's isolation query exposes it: the
   RVaaS controller computes all access points that can communicate
   with the request point, probes each with an authenticated request in
   the data plane, and returns the collected (and counted) replies.

   Run with:  dune exec examples/isolation_check.exe *)

let banner title = Printf.printf "\n=== %s ===\n" title

let show_isolation scenario ~host ~label =
  match
    Workload.Scenario.query_and_wait scenario ~host
      (Rvaas.Query.make Rvaas.Query.Isolation)
      ~timeout:1.0
  with
  | None -> Printf.printf "%s: no answer\n" label
  | Some outcome ->
    let answer = outcome.Rvaas.Client_agent.answer in
    Printf.printf "%s: %d access point(s) can reach client 0, %d/%d authenticated\n"
      label
      (List.length answer.endpoints)
      answer.auth_replies answer.total_auth_requests;
    List.iter
      (fun (e : Rvaas.Query.endpoint_report) ->
        Printf.printf "  - sw%d port%d%s%s\n" e.sw e.port
          (match e.client with
          | Some c -> Printf.sprintf " (client %d)" c
          | None -> " (did not authenticate)")
          (match e.ip with Some ip -> Printf.sprintf " ip=0x%08x" ip | None -> ""))
      answer.endpoints;
    let policy = Workload.Scenario.policy_for scenario ~host in
    (match Rvaas.Detector.check_answer policy answer with
    | [] -> print_endline "  verdict: isolation intact"
    | alarms ->
      List.iter (fun a -> Printf.printf "  ALARM: %s\n" (Rvaas.Detector.describe a)) alarms)

let () =
  (* Fat-tree k=4 (20 switches); hosts round-robin over 2 clients. *)
  let topo =
    Workload.Topogen.fat_tree { Workload.Topogen.default_params with hosts_per_switch = 1 }
      ~k:4
  in
  let scenario =
    Workload.Scenario.build { (Workload.Scenario.default_spec topo) with clients = 2 }
  in
  Printf.printf "fat-tree k=4: %d switches, %d hosts\n"
    (Workload.Topogen.switch_count topo)
    (Workload.Topogen.host_count topo);

  banner "Step 1: benign network (Fig. 1 + 2 message flow)";
  (* Fig. 1: integrity request -> Packet-In -> analysis -> Packet-Out
     auth requests.  Fig. 2: auth replies -> Packet-In -> collected ->
     Packet-Out integrity reply.  Both happen inside query_and_wait. *)
  let s0 = Rvaas.Service.stats scenario.service in
  let before_auth = s0.auth_requests_sent in
  show_isolation scenario ~host:0 ~label:"benign";
  Printf.printf "  protocol cost: %d auth requests dispatched\n"
    ((Rvaas.Service.stats scenario.service).auth_requests_sent - before_auth);

  banner "Step 2: control plane compromised — join attack";
  (* The attacker (client 1's host 1) gains a forwarding path into
     client 0's subnet, bypassing the isolation ACL. *)
  Sdnctl.Attack.launch scenario.net scenario.addressing
    ~conn:(Sdnctl.Provider.conn scenario.provider)
    (Sdnctl.Attack.Join { victim_client = 0; attacker_host = 1 });
  Workload.Scenario.run scenario
    ~until:(Netsim.Sim.now (Netsim.Net.sim scenario.net) +. 0.1);
  print_endline "attacker installed rogue rules via the provider connection";

  banner "Step 3: the victim re-runs the isolation query";
  show_isolation scenario ~host:0 ~label:"under attack";

  banner "Step 4: service-side history audit";
  let baseline = Workload.Scenario.baseline scenario in
  (* Note: the baseline here is captured after the attack for demo
     simplicity; a real deployment captures it at commissioning time.
     The per-event history still shows when each rule appeared. *)
  ignore baseline;
  let history = Rvaas.Monitor.history scenario.monitor in
  let adds =
    List.filter
      (fun { Rvaas.Monitor.what; _ } ->
        match what with
        | Rvaas.Monitor.Event (Ofproto.Message.Flow_added _) -> true
        | _ -> false)
      history
  in
  Printf.printf "monitoring history holds %d observations (%d rule additions)\n"
    (List.length history) (List.length adds)
