(* Geo-location compliance check (paper §IV-B.2).

   A client whose data must not traverse a given jurisdiction asks
   RVaaS which locations its traffic can pass through.  The provider's
   compromised control plane has quietly diverted the client's traffic
   through a switch in a forbidden region; the geo query exposes the
   detour without revealing the provider's topology (only the
   jurisdiction set is disclosed).

   Run with:  dune exec examples/geo_compliance.exe *)

(* The client scopes the geo query to its sensitive flow (traffic to a
   specific peer), not to everything its card could emit: other
   destinations may legitimately sit in other jurisdictions. *)
let geo_answer scenario ~host ~dst_ip =
  match
    Workload.Scenario.query_and_wait scenario ~host
      (Rvaas.Query.make ~scope:(Rvaas.Verifier.dst_ip_hs dst_ip) Rvaas.Query.Geo)
      ~timeout:1.0
  with
  | None -> None
  | Some outcome -> Some outcome.Rvaas.Client_agent.answer

let () =
  (* A 3x3 grid; single client so routing (not ACLs) is the story.
     Ground-truth locations are drawn per switch; we then *force* a
     known layout: the grid's corner switch 8 sits in "RU". *)
  let topo = Workload.Topogen.grid Workload.Topogen.default_params ~rows:3 ~cols:3 in
  let scenario =
    Workload.Scenario.build
      {
        (Workload.Scenario.default_spec topo) with
        clients = 1;
        jurisdictions = [ "EU" ];
      }
  in
  Geo.Registry.set_switch scenario.geo_truth ~sw:8
    (Geo.Location.make ~lat:55.75 ~lon:37.62 ~jurisdiction:"RU");
  Printf.printf "grid 3x3, switch 8 is in RU; client policy forbids RU\n";

  let policy =
    {
      (Workload.Scenario.policy_for scenario ~host:0) with
      Rvaas.Detector.forbidden_jurisdictions = [ "RU" ];
    }
  in

  let peer_ip =
    (Option.get (Sdnctl.Addressing.host scenario.addressing ~host:4)).ip
  in

  (* Baseline: shortest-path routing from host 0 (on switch 0) to its
     peer on switch 4 should not cross the far corner. *)
  (match geo_answer scenario ~host:0 ~dst_ip:peer_ip with
  | None -> print_endline "no answer"
  | Some answer ->
    Printf.printf "before attack, jurisdictions: %s\n"
      (String.concat ", " answer.jurisdictions);
    (match Rvaas.Detector.check_answer policy answer with
    | [] -> print_endline "  compliance: OK"
    | alarms ->
      List.iter (fun a -> Printf.printf "  ALARM: %s\n" (Rvaas.Detector.describe a)) alarms));

  (* The attacker diverts host0 -> host4 traffic through corner switch 8. *)
  Sdnctl.Attack.launch scenario.net scenario.addressing
    ~conn:(Sdnctl.Provider.conn scenario.provider)
    (Sdnctl.Attack.Divert { src_host = 0; dst_host = 4; via_sw = 8 });
  Workload.Scenario.run scenario
    ~until:(Netsim.Sim.now (Netsim.Net.sim scenario.net) +. 0.1);
  print_endline "\nattacker diverted traffic through switch 8 (RU)";

  match geo_answer scenario ~host:0 ~dst_ip:peer_ip with
  | None -> print_endline "no answer"
  | Some answer ->
    Printf.printf "after attack, jurisdictions: %s\n"
      (String.concat ", " answer.jurisdictions);
    (match Rvaas.Detector.check_answer policy answer with
    | [] -> print_endline "  compliance: OK (attack NOT detected?)"
    | alarms ->
      List.iter (fun a -> Printf.printf "  ALARM: %s\n" (Rvaas.Detector.describe a)) alarms)
