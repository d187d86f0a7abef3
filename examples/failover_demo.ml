(* Crash-recovery & warm-standby failover.

   The paper places all trust in one attested RVaaS controller — which
   makes that controller a single point of failure.  This repo's
   recovery layer removes the availability gap without weakening the
   trust argument: every snapshot mutation and every in-flight query is
   appended to a checksummed, generation-numbered journal, and a warm
   standby tails that journal.  When the primary falls silent for
   longer than the takeover timeout, the standby replays the journal
   (last checkpoint image + later mutations), re-attaches the switch
   sessions, re-installs interception, re-polls every switch, and
   re-issues every query that was in flight — all under a new
   generation number, so the log doubles as an audit trail of
   incarnations.

   This demo kills the primary while an isolation query is in flight
   and prints the standby's takeover timeline.  The client keeps its
   answer: either the standby re-issues the journalled query, or — if
   the crash ate an already-sent answer — the client agent's resend
   (same nonce) covers the output-commit window.

   Run with:  dune exec examples/failover_demo.exe *)

let config =
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

let crash_after = 0.002 (* seconds after the query goes out *)

let () =
  let topo = Workload.Topogen.linear Workload.Topogen.default_params 4 in
  let s =
    Workload.Scenario.build
      {
        (Workload.Scenario.default_spec topo) with
        polling = Rvaas.Monitor.Periodic 0.02;
        agent_resend = Some 0.12;
        ha = Some config;
      }
  in
  let now () = Netsim.Sim.now (Netsim.Net.sim s.net) in
  let stamp fmt =
    Printf.printf "%7.1f ms  " (1000.0 *. now ());
    Printf.printf fmt
  in
  let ctrl = Workload.Scenario.controller s in
  (* Commission, then poison the deployment through the compromised
     provider so the recovered verdict has something to flag. *)
  Workload.Scenario.run s ~until:0.2;
  Sdnctl.Attack.launch s.net s.addressing
    ~conn:(Sdnctl.Provider.conn s.provider)
    (Sdnctl.Attack.Join { victim_client = 0; attacker_host = 1 });
  Workload.Scenario.run s ~until:0.3;
  stamp "deployment running, join attack installed (generation %d serving)\n"
    (Rvaas.Failover.generation ctrl);
  (* Query in flight... *)
  let agent = Workload.Scenario.agent s ~host:0 in
  let result = ref None in
  Rvaas.Client_agent.set_answer_callback agent (fun o -> result := Some o);
  ignore (Rvaas.Client_agent.send_query agent (Rvaas.Query.make Rvaas.Query.Isolation));
  stamp "host 0 asks: \"am I isolated?\"\n";
  (* ...and the primary dies under it. *)
  Workload.Scenario.run s ~until:(now () +. crash_after);
  Rvaas.Failover.crash ctrl;
  stamp "PRIMARY CRASHES: service dead, polling stopped, session down\n";
  stamp "(switches keep forwarding: fail-standalone)\n";
  Rvaas.Failover.enable_standby ctrl;
  stamp "warm standby armed: tails the journal every %.0f ms\n"
    (1000.0 *. config.check_period);
  let deadline = now () +. 2.0 in
  while !result = None && now () < deadline do
    Workload.Scenario.run s ~until:(now () +. 0.01)
  done;
  Workload.Scenario.run s ~until:(now () +. 0.2);
  (match Rvaas.Failover.last_takeover ctrl with
  | None -> print_endline "standby never took over"
  | Some r ->
    Printf.printf "%7.1f ms  standby: journal silent for > %.0f ms, primary declared dead\n"
      (1000.0 *. r.Rvaas.Failover.detected_at)
      (1000.0 *. config.takeover_timeout);
    Printf.printf
      "%7.1f ms  TAKEOVER as generation %d: %d journal entries replayed over the last\n\
      \            checkpoint, switches re-attached, interception re-installed,\n\
      \            %d in-flight quer%s re-issued under fresh challenges\n"
      (1000.0 *. r.Rvaas.Failover.detected_at)
      r.Rvaas.Failover.generation r.Rvaas.Failover.replayed_entries
      r.Rvaas.Failover.reissued_queries
      (if r.Rvaas.Failover.reissued_queries = 1 then "y" else "ies");
    if r.Rvaas.Failover.resynced_at > 0.0 then
      Printf.printf
        "%7.1f ms  resynchronised: post-takeover poll sweep drained\n\
        \            (blind window: %.1f ms from crash to fresh snapshot)\n"
        (1000.0 *. r.Rvaas.Failover.resynced_at)
        (1000.0 *. (r.Rvaas.Failover.resynced_at -. r.Rvaas.Failover.crashed_at)));
  match !result with
  | None ->
    print_endline "\nno answer reached the client — failover failed";
    exit 1
  | Some outcome ->
    Printf.printf "%7.1f ms  answer reaches host 0 (issued %.1f ms earlier, crash included)\n"
      (1000.0 *. outcome.Rvaas.Client_agent.answered_at)
      (1000.0 *. (outcome.Rvaas.Client_agent.answered_at -. outcome.issued_at));
    let answer = outcome.Rvaas.Client_agent.answer in
    let policy = Workload.Scenario.policy_for s ~host:0 in
    (match Rvaas.Detector.check_answer policy answer with
    | [] -> print_endline "\nno alarms — unexpected: the join attack should be visible"
    | alarms ->
      print_endline "\nthe recovered controller still flags the attack:";
      List.iter
        (fun a -> Printf.printf "  ALARM: %s\n" (Rvaas.Detector.describe a))
        alarms)
