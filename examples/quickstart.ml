(* Quickstart: stand up a small software-defined network with an RVaaS
   deployment, ask one question, and read the answer.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. A 4-switch linear network, one host per switch, two clients
        (hosts are assigned round-robin: h0,h2 -> client 0; h1,h3 ->
        client 1).  The provider installs shortest-path routing and
        inter-client isolation ACLs; RVaaS monitors every switch. *)
  let topo = Workload.Topogen.linear Workload.Topogen.default_params 4 in
  let scenario = Workload.Scenario.build (Workload.Scenario.default_spec topo) in
  Printf.printf "network: %d switches, %d hosts, 2 clients\n"
    (Workload.Topogen.switch_count topo)
    (Workload.Topogen.host_count topo);

  (* 2. Before trusting the service, verify its attestation quote. *)
  let quote = Rvaas.Service.attest scenario.service ~nonce:"quickstart-nonce" in
  let genuine =
    Rvaas.Client_agent.verify_service
      (Workload.Scenario.agent scenario ~host:0)
      ~quote ~nonce:"quickstart-nonce"
      ~expected:(Cryptosim.Attest.measure ~code_identity:Rvaas.Service.code_identity)
  in
  Printf.printf "service attestation: %s\n" (if genuine then "verified" else "FAILED");

  (* 3. Client 0 (from host 0) asks: which access points can enter my
        isolation domain?  The query travels in-band (magic UDP port →
        Packet-In), RVaaS analyses its configuration snapshot with
        header-space reachability, probes every candidate endpoint with
        signed auth requests, and returns a signed, counted answer. *)
  match
    Workload.Scenario.query_and_wait scenario ~host:0
      (Rvaas.Query.make Rvaas.Query.Isolation)
      ~timeout:1.0
  with
  | None -> print_endline "no answer (timeout)"
  | Some outcome ->
    let answer = outcome.Rvaas.Client_agent.answer in
    Format.printf "@.%a@.@." Rvaas.Query.pp_answer answer;
    Printf.printf "query round-trip: %.3f ms\n"
      (1000.0 *. (outcome.answered_at -. outcome.issued_at));

    (* 4. Check the answer against the client's policy. *)
    let policy = Workload.Scenario.policy_for scenario ~host:0 in
    (match Rvaas.Detector.check_answer policy answer with
    | [] -> print_endline "policy check: clean (no unexpected access points)"
    | alarms ->
      List.iter
        (fun a -> Printf.printf "ALARM: %s\n" (Rvaas.Detector.describe a))
        alarms)
