(* Lossy-channel robustness: fault injection, retry/backoff/dedup in
   the integrity-check protocol, and regression tests for the
   interception, wiring-cleanup and poll-xid bugfixes.  Everything is
   seeded — failures reproduce exactly. *)

let check = Alcotest.check

let p = Workload.Topogen.default_params

(* ---- Faults planning ---- *)

let test_faults_plan () =
  let rng = Support.Rng.create 11 in
  check Alcotest.bool "none is none" true (Netsim.Faults.is_none Netsim.Faults.none);
  check Alcotest.bool "none delivers one copy" true
    (Netsim.Faults.plan Netsim.Faults.none rng = [ 0.0 ]);
  check Alcotest.bool "certain loss drops" true
    (Netsim.Faults.plan (Netsim.Faults.loss 1.0) rng = []);
  let dup = Netsim.Faults.make ~dup_prob:1.0 () in
  check Alcotest.int "certain duplication yields two copies" 2
    (List.length (Netsim.Faults.plan dup rng));
  let delayed = Netsim.Faults.make ~extra_delay:0.5 ~jitter:0.1 () in
  List.iter
    (fun d ->
      check Alcotest.bool "delay within [extra, extra+jitter]" true
        (d >= 0.5 && d <= 0.6 +. 1e-9))
    (Netsim.Faults.plan delayed rng)

let test_faults_validation () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check Alcotest.bool "loss_prob > 1 rejected" true
    (raises (fun () -> Netsim.Faults.make ~loss_prob:1.5 ()));
  check Alcotest.bool "negative jitter rejected" true
    (raises (fun () -> Netsim.Faults.make ~jitter:(-0.1) ()));
  check Alcotest.bool "negative extra_delay rejected" true
    (raises (fun () -> Netsim.Faults.make ~extra_delay:(-1.0) ()));
  check Alcotest.bool "negative dup_prob rejected" true
    (raises (fun () -> Netsim.Faults.make ~dup_prob:(-0.5) ()))

(* ---- Net: faults apply to every controller message ---- *)

let test_net_ctrl_faults_all_messages () =
  let topo = Workload.Topogen.linear p 2 in
  let net = Netsim.Net.create ~seed:3 topo in
  let conn =
    Netsim.Net.register_controller net ~name:"lossy" ~delay:1e-3
      ~faults:(Netsim.Faults.loss 1.0) ()
  in
  let sw = List.hd (Netsim.Topology.switches topo) in
  Netsim.Net.attach net conn ~sw ~monitor:false;
  let spec =
    Ofproto.Flow_entry.make_spec ~priority:5 Ofproto.Match_.any
      [ Ofproto.Action.Output 1 ]
  in
  (* A Flow_mod is not a Monitor event: under the legacy loss_prob it
     was delivered reliably; under faults it must be droppable. *)
  Netsim.Net.send net conn ~sw (Ofproto.Message.Flow_mod (Ofproto.Message.Add_flow spec));
  ignore (Netsim.Sim.run (Netsim.Net.sim net) ~until:0.1);
  check Alcotest.int "flow never installed" 0
    (List.length (Ofproto.Flow_table.specs (Netsim.Net.table net ~sw)));
  check Alcotest.bool "ctrl loss counted" true
    ((Netsim.Net.stats net).ctrl_faults_lost > 0)

let test_net_ctrl_faults_duplicate () =
  let topo = Workload.Topogen.linear p 2 in
  let net = Netsim.Net.create ~seed:3 topo in
  let conn =
    Netsim.Net.register_controller net ~name:"dup" ~delay:1e-3
      ~faults:(Netsim.Faults.make ~dup_prob:1.0 ()) ()
  in
  let sw = List.hd (Netsim.Topology.switches topo) in
  Netsim.Net.attach net conn ~sw ~monitor:false;
  let replies = ref 0 in
  Netsim.Net.set_handler conn (fun _ -> incr replies);
  Netsim.Net.send net conn ~sw (Ofproto.Message.Echo_request { xid = 1 });
  ignore (Netsim.Sim.run (Netsim.Net.sim net) ~until:0.1);
  (* Request duplicated (2 arrivals), each reply duplicated again. *)
  check Alcotest.int "echo reply quadrupled" 4 !replies;
  check Alcotest.bool "duplication counted" true
    ((Netsim.Net.stats net).ctrl_faults_duplicated > 0)

let test_net_link_faults () =
  let topo = Workload.Topogen.linear p 2 in
  let net = Netsim.Net.create ~seed:3 topo in
  Netsim.Net.set_default_link_faults net (Netsim.Faults.loss 1.0);
  let header = Hspace.Header.udp ~src_ip:1 ~dst_ip:2 ~src_port:1 ~dst_port:2 in
  Netsim.Net.host_send net ~host:0 (Netsim.Packet.make ~header "x");
  ignore (Netsim.Sim.run (Netsim.Net.sim net) ~until:0.1);
  check Alcotest.int "nothing delivered" 0 (Netsim.Net.stats net).delivered;
  check Alcotest.bool "link loss counted" true
    ((Netsim.Net.stats net).link_faults_lost > 0)

(* ---- Scenario helpers ---- *)

let spec_with topo f = f (Workload.Scenario.default_spec topo)

let isolation_outcome s =
  Workload.Scenario.query_and_wait s ~host:0
    (Rvaas.Query.make Rvaas.Query.Isolation)
    ~timeout:2.0

(* ---- Service: retransmission, dedup, degraded answers ---- *)

(* attempts = 2 with a backoff far below the auth RTT forces a
   retransmission of every probe at zero loss: each client replies
   twice, and the service must count each challenge once. *)
let test_service_retransmit_dedup () =
  let topo = Workload.Topogen.linear p 4 in
  let s =
    Workload.Scenario.build
      (spec_with topo (fun d ->
           { d with auth_retry = { Rvaas.Service.attempts = 2; base_delay = 1e-4 } }))
  in
  match isolation_outcome s with
  | None -> Alcotest.fail "no answer"
  | Some o ->
    let a = o.Rvaas.Client_agent.answer in
    let svc = Rvaas.Service.stats s.service in
    check Alcotest.bool "not degraded" false a.Rvaas.Query.degraded;
    check Alcotest.int "full reply quorum" a.total_auth_requests a.auth_replies;
    check Alcotest.int "every probe retransmitted once" a.total_auth_requests
      svc.auth_retransmissions;
    check Alcotest.int "attempts carried in the answer"
      (2 * a.total_auth_requests) a.auth_attempts;
    (* The second wave of replies lands as duplicates (or post-finalize
       rejects) — never as extra accepted replies. *)
    check Alcotest.bool "second replies not double-counted" true
      (svc.auth_replies_duplicate + svc.auth_replies_rejected >= 1);
    check Alcotest.int "accepted = probes" a.total_auth_requests
      svc.auth_replies_accepted

(* Message duplication on the control channel must not inflate the
   reply count either. *)
let test_service_duplicate_reply_dedup () =
  let topo = Workload.Topogen.linear p 4 in
  let s =
    Workload.Scenario.build
      (spec_with topo (fun d ->
           { d with rvaas_faults = Netsim.Faults.make ~dup_prob:1.0 () }))
  in
  match isolation_outcome s with
  | None -> Alcotest.fail "no answer"
  | Some o ->
    let a = o.Rvaas.Client_agent.answer in
    let svc = Rvaas.Service.stats s.service in
    check Alcotest.bool "not degraded" false a.Rvaas.Query.degraded;
    check Alcotest.bool "replies never exceed probes" true
      (a.auth_replies <= a.total_auth_requests);
    check Alcotest.bool "duplicates tallied" true
      (svc.auth_replies_duplicate + svc.auth_replies_rejected >= 1)

(* Regression (duplicate request replay): a duplicated {e request}
   packet used to re-open the query — the replay's pending replaced the
   original in [open_queries], the original finalized and removed the
   replay's entry, and the replay then answered a second time against
   an empty auth round (wrong verdict, duplicated signed answers).  A
   nonce already in flight must be treated as duplicate delivery:
   counted, never reopened, exactly one answer. *)
let test_service_duplicate_request_replay () =
  let topo = Workload.Topogen.linear p 4 in
  let s =
    Workload.Scenario.build
      (spec_with topo (fun d ->
           { d with rvaas_faults = Netsim.Faults.make ~dup_prob:1.0 () }))
  in
  match isolation_outcome s with
  | None -> Alcotest.fail "no answer"
  | Some o ->
    let a = o.Rvaas.Client_agent.answer in
    let svc = Rvaas.Service.stats s.service in
    (* Let any straggler (a second finalize, were one pending) land. *)
    Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.5);
    check Alcotest.bool "not degraded" false a.Rvaas.Query.degraded;
    check Alcotest.bool "replayed request observed" true
      (svc.queries_duplicate >= 1);
    check Alcotest.int "exactly one signed answer" 1 svc.answers_sent;
    check Alcotest.int "no orphaned open query" 0
      (Rvaas.Service.open_query_count s.service);
    check Alcotest.int "no orphaned pending state" 0
      (Rvaas.Service.pending_probe_count s.service)

(* A muted (uncooperative) client leaves the quorum incomplete: the
   answer must say so instead of looking clean. *)
let test_service_degraded_flag () =
  let topo = Workload.Topogen.linear p 4 in
  let s = Workload.Scenario.build (spec_with topo (fun d -> d)) in
  (* Host 2 belongs to client 0 (round-robin over 2 clients). *)
  Rvaas.Client_agent.set_mute (Workload.Scenario.agent s ~host:2) true;
  match isolation_outcome s with
  | None -> Alcotest.fail "no answer"
  | Some o ->
    let a = o.Rvaas.Client_agent.answer in
    check Alcotest.bool "degraded flagged" true a.Rvaas.Query.degraded;
    check Alcotest.bool "incomplete quorum" true
      (a.auth_replies < a.total_auth_requests)

(* End-to-end: at 15% uniform control loss the full retry stack still
   resolves the query to the lossless verdict (seeded, deterministic). *)
let test_retry_stack_recovers_under_loss () =
  let topo = Workload.Topogen.linear p 4 in
  let s =
    Workload.Scenario.build
      (spec_with topo (fun d ->
           {
             d with
             seed = 7;
             rvaas_faults = Netsim.Faults.loss 0.15;
             auth_retry = { Rvaas.Service.attempts = 4; base_delay = 0.005 };
             poll_retry = Some 0.05;
             agent_resend = Some 0.3;
           }))
  in
  Workload.Scenario.run s ~until:0.5;
  check Alcotest.bool "faults actually injected" true
    ((Netsim.Net.stats s.net).ctrl_faults_lost > 0);
  match isolation_outcome s with
  | None -> Alcotest.fail "no answer despite retries"
  | Some o ->
    let a = o.Rvaas.Client_agent.answer in
    check Alcotest.bool "not degraded" false a.Rvaas.Query.degraded;
    check Alcotest.int "full reply quorum" a.total_auth_requests a.auth_replies

(* A lost intercept Add_flow must be repaired from the monitored
   snapshot, not stay lost forever. *)
let test_service_intercept_repair () =
  let topo = Workload.Topogen.linear p 4 in
  let s = Workload.Scenario.build (spec_with topo (fun d -> d)) in
  let sw = List.hd (Netsim.Topology.switches topo) in
  let intercepts flows =
    List.filter
      (fun (e : Ofproto.Flow_entry.spec) -> e.cookie = Rvaas.Wire.intercept_cookie)
      flows
  in
  check Alcotest.int "intercepts installed" 2
    (List.length (intercepts (Workload.Scenario.actual_flows s sw)));
  (* Rip them out behind the service's back. *)
  let chaos = Netsim.Net.register_controller s.net ~name:"chaos" ~delay:1e-3 () in
  Netsim.Net.attach s.net chaos ~sw ~monitor:false;
  Netsim.Net.send s.net chaos ~sw
    (Ofproto.Message.Flow_mod (Ofproto.Message.Delete_by_cookie Rvaas.Wire.intercept_cookie));
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.2);
  check Alcotest.int "intercepts repaired" 2
    (List.length (intercepts (Workload.Scenario.actual_flows s sw)));
  check Alcotest.bool "repairs counted" true
    ((Rvaas.Service.stats s.service).intercepts_reinstalled >= 2)

(* Provider events that overtake the service's own intercept install
   at set-up must not re-send it: with the install still in flight,
   set-up puts exactly one install per intercept and switch on the
   wire next to the provider's rules. *)
let test_service_no_intercept_storm () =
  List.iter
    (fun topo ->
      let s = Workload.Scenario.build (spec_with topo (fun d -> d)) in
      let switches = List.length (Netsim.Topology.switches topo) in
      check Alcotest.int "provider rules + 2 intercepts per switch"
        (Sdnctl.Provider.rule_count s.provider + (2 * switches))
        (Netsim.Net.stats s.net).flow_mods;
      check Alcotest.int "nothing re-installed" 0
        (Rvaas.Service.stats s.service).intercepts_reinstalled)
    [ Workload.Topogen.linear p 4; Workload.Topogen.fat_tree p ~k:4 ]

(* The repair Flow-Mod is itself lost: the install stays in flight until
   the next poll shows the intercepts still missing, which re-sends
   them. *)
let test_service_intercept_repair_lost () =
  let topo = Workload.Topogen.linear p 4 in
  let s = Workload.Scenario.build (spec_with topo (fun d -> d)) in
  let sw = List.hd (Netsim.Topology.switches topo) in
  let intercepts () =
    List.filter
      (fun (e : Ofproto.Flow_entry.spec) -> e.cookie = Rvaas.Wire.intercept_cookie)
      (Workload.Scenario.actual_flows s sw)
  in
  let reinstalled () = (Rvaas.Service.stats s.service).intercepts_reinstalled in
  let chaos = Netsim.Net.register_controller s.net ~name:"chaos" ~delay:1e-3 () in
  Netsim.Net.attach s.net chaos ~sw ~monitor:false;
  let t0 = Netsim.Sim.now (Netsim.Net.sim s.net) in
  Netsim.Net.send s.net chaos ~sw
    (Ofproto.Message.Flow_mod (Ofproto.Message.Delete_by_cookie Rvaas.Wire.intercept_cookie));
  (* The deletion lands at t0+1ms and is observed at t0+2ms, when the
     repair goes out; cut the session before it lands at t0+3ms. *)
  Workload.Scenario.run s ~until:(t0 +. 0.0025);
  check Alcotest.int "repair sent on the deletions" 2 (reinstalled ());
  let conn = Rvaas.Monitor.conn s.monitor in
  Netsim.Net.disconnect s.net conn;
  Workload.Scenario.run s ~until:(t0 +. 0.0035);
  Netsim.Net.reconnect s.net conn;
  check Alcotest.int "repair lost" 0 (List.length (intercepts ()));
  Workload.Scenario.run s ~until:(t0 +. 0.3);
  check Alcotest.int "intercepts repaired" 2 (List.length (intercepts ()));
  check Alcotest.bool "lost repair re-sent" true (reinstalled () >= 4)

(* ---- Monitor: poll retry and distinct xids ---- *)

let test_monitor_poll_retry () =
  let topo = Workload.Topogen.linear p 3 in
  let net = Netsim.Net.create ~seed:5 topo in
  let monitor =
    Netsim.Net.register_controller net ~name:"installer" ~delay:1e-3 () |> fun installer ->
    let sw = List.hd (Netsim.Topology.switches topo) in
    Netsim.Net.attach net installer ~sw ~monitor:false;
    Netsim.Net.send net installer ~sw
      (Ofproto.Message.Flow_mod
         (Ofproto.Message.Add_flow
            (Ofproto.Flow_entry.make_spec ~priority:7 Ofproto.Match_.any
               [ Ofproto.Action.Output 1 ])));
    Rvaas.Monitor.create net ~conn_delay:1e-3
      ~faults:(Netsim.Faults.loss 0.5)
      ~poll_retry:0.05 ~polling:(Rvaas.Monitor.Periodic 0.1) ()
  in
  ignore (Netsim.Sim.run (Netsim.Net.sim net) ~until:1.0);
  check Alcotest.bool "unanswered polls were retried" true
    (Rvaas.Monitor.poll_retries monitor > 0);
  (* Despite 50% loss the retried polls converge the snapshot. *)
  let sw = List.hd (Netsim.Topology.switches topo) in
  check Alcotest.int "snapshot converged" 1
    (List.length (Rvaas.Snapshot.flows (Rvaas.Monitor.snapshot monitor) ~sw));
  (* Deadline hits also clear exhausted requests from the tracker. *)
  Rvaas.Monitor.stop_polling monitor;
  ignore (Netsim.Sim.run (Netsim.Net.sim net) ~until:2.0);
  check Alcotest.int "tracker drained" 0 (Rvaas.Monitor.outstanding_polls monitor)

(* Regression (poll xids): the flow and meter stats requests of one
   sweep must carry distinct xids — with a shared xid the xid-keyed
   tracker collapses to one entry per switch and a retry of one request
   would be cancelled by the reply to the other. *)
let test_monitor_poll_xids_distinct () =
  let topo = Workload.Topogen.linear p 3 in
  let net = Netsim.Net.create ~seed:5 topo in
  let monitor =
    Rvaas.Monitor.create net ~conn_delay:0.01
      ~polling:(Rvaas.Monitor.Periodic 0.5) ()
  in
  let n = List.length (Netsim.Topology.switches topo) in
  (* Sample mid-flight: requests issued at 0.5, replies land at 0.52. *)
  ignore (Netsim.Sim.run (Netsim.Net.sim net) ~until:0.505);
  check Alcotest.int "one tracked entry per in-flight request" (2 * n)
    (Rvaas.Monitor.outstanding_polls monitor);
  ignore (Netsim.Sim.run (Netsim.Net.sim net) ~until:0.6);
  check Alcotest.int "all answered" 0 (Rvaas.Monitor.outstanding_polls monitor)

(* ---- Client agent: answer-wait timeout ---- *)

let test_agent_resend_once () =
  let topo = Workload.Topogen.linear p 2 in
  let net = Netsim.Net.create ~seed:9 topo in
  (* No service anywhere: the answer never comes. *)
  let kp = Cryptosim.Keys.generate (Support.Rng.create 1) ~owner:"svc" in
  let agent =
    Rvaas.Client_agent.create net ~host:0 ~client:0 ~ip:42
      ~key:(Cryptosim.Hmac.key_of_string "k")
      ~service_public:(Cryptosim.Keys.public kp) ~resend_timeout:0.1 ()
  in
  ignore (Rvaas.Client_agent.send_query agent (Rvaas.Query.make Rvaas.Query.Isolation));
  ignore (Netsim.Sim.run (Netsim.Net.sim net) ~until:1.0);
  check Alcotest.int "re-requested exactly once" 1 (Rvaas.Client_agent.resends agent);
  check Alcotest.int "query still outstanding" 1 (Rvaas.Client_agent.outstanding agent);
  check Alcotest.bool "non-positive timeout rejected" true
    (match
       Rvaas.Client_agent.create net ~host:0 ~client:0 ~ip:42
         ~key:(Cryptosim.Hmac.key_of_string "k")
         ~service_public:(Cryptosim.Keys.public kp) ~resend_timeout:0.0 ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The client resend recovers a lost answer end-to-end. *)
let test_agent_resend_recovers_answer () =
  let topo = Workload.Topogen.linear p 4 in
  let s =
    Workload.Scenario.build
      (spec_with topo (fun d ->
           {
             d with
             seed = 3;
             rvaas_faults = Netsim.Faults.loss 0.1;
             auth_retry = { Rvaas.Service.attempts = 4; base_delay = 0.005 };
             poll_retry = Some 0.05;
             agent_resend = Some 0.25;
           }))
  in
  Workload.Scenario.run s ~until:0.5;
  (* Issue queries until one needs the resend path, then insist it
     still completes.  Seeded: the trace is reproducible. *)
  let resent = ref false in
  let answered = ref 0 in
  for _ = 1 to 12 do
    let before = Rvaas.Client_agent.resends (Workload.Scenario.agent s ~host:0) in
    (match isolation_outcome s with
    | Some _ -> incr answered
    | None -> ());
    if Rvaas.Client_agent.resends (Workload.Scenario.agent s ~host:0) > before then
      resent := true
  done;
  check Alcotest.bool "at least one resend exercised" true !resent;
  check Alcotest.int "every query answered" 12 !answered

(* ---- Regression (interception scope): client-to-client UDP on a
   magic port is forwarded, not hijacked ---- *)

let test_magic_port_traffic_forwarded () =
  let topo = Workload.Topogen.linear p 4 in
  let s = Workload.Scenario.build (spec_with topo (fun d -> d)) in
  (* Hosts 0 and 2 both belong to client 0: isolation permits them to
     talk.  The payload is plain UDP that merely reuses the request
     port number — only dst_ip = service_ip traffic is the service's. *)
  let dst = Option.get (Sdnctl.Addressing.host s.addressing ~host:2) in
  let src = Option.get (Sdnctl.Addressing.host s.addressing ~host:0) in
  let received = ref [] in
  Netsim.Net.set_host_receiver s.net ~host:2 (fun packet ->
      received := packet.Netsim.Packet.payload :: !received);
  let rejected0 = (Rvaas.Service.stats s.service).queries_rejected in
  List.iter
    (fun port ->
      let header =
        Hspace.Header.udp ~src_ip:src.Sdnctl.Addressing.ip
          ~dst_ip:dst.Sdnctl.Addressing.ip ~src_port:5555 ~dst_port:port
      in
      Netsim.Net.host_send s.net ~host:0 (Netsim.Packet.make ~header "hello"))
    [ Rvaas.Wire.request_port; Rvaas.Wire.auth_reply_port ];
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.1);
  check Alcotest.int "both packets delivered to the peer host" 2
    (List.length !received);
  check Alcotest.int "service never saw them" rejected0
    (Rvaas.Service.stats s.service).queries_rejected

(* ---- Regression (wiring verification): intercept cleanup and
   reentrancy ---- *)

let test_wiring_cleanup_and_reentrancy () =
  let topo = Workload.Topogen.linear p 4 in
  let s = Workload.Scenario.build (spec_with topo (fun d -> d)) in
  let lldp_entries sw =
    List.filter
      (fun (e : Ofproto.Flow_entry.spec) -> e.cookie = Rvaas.Wire.lldp_cookie)
      (Workload.Scenario.actual_flows s sw)
  in
  let switches = Netsim.Topology.switches topo in
  let completed = ref false in
  Rvaas.Monitor.verify_wiring s.monitor ~timeout:0.1 ~on_complete:(fun report ->
      completed := true;
      check Alcotest.int "all probes confirmed" report.Rvaas.Monitor.probes_sent
        report.Rvaas.Monitor.confirmed);
  (* Overlapping runs would clobber each other's probe tables. *)
  Alcotest.check_raises "concurrent run rejected"
    (Invalid_argument "Monitor.verify_wiring: a verification run is already in progress")
    (fun () ->
      Rvaas.Monitor.verify_wiring s.monitor ~timeout:0.1 ~on_complete:ignore);
  let now () = Netsim.Sim.now (Netsim.Net.sim s.net) in
  Workload.Scenario.run s ~until:(now () +. 0.05);
  check Alcotest.bool "probe intercepts live during the run" true
    (List.exists (fun sw -> lldp_entries sw <> []) switches);
  Workload.Scenario.run s ~until:(now () +. 0.2);
  check Alcotest.bool "run completed" true !completed;
  (* Regression: the entries used to leak, one set per run. *)
  List.iter
    (fun sw -> check Alcotest.int "probe intercepts removed" 0
        (List.length (lldp_entries sw)))
    switches;
  (* The service's own intercepts must survive the cookie-scoped
     cleanup untouched. *)
  List.iter
    (fun sw ->
      check Alcotest.int "service intercepts intact" 2
        (List.length
           (List.filter
              (fun (e : Ofproto.Flow_entry.spec) ->
                e.cookie = Rvaas.Wire.intercept_cookie)
              (Workload.Scenario.actual_flows s sw))))
    switches;
  (* A fresh run is accepted once the previous one finished. *)
  Rvaas.Monitor.verify_wiring s.monitor ~timeout:0.05 ~on_complete:ignore;
  Workload.Scenario.run s ~until:(now () +. 0.2)

let () =
  Alcotest.run "faults"
    [
      ( "faults",
        [
          Alcotest.test_case "plan" `Quick test_faults_plan;
          Alcotest.test_case "validation" `Quick test_faults_validation;
        ] );
      ( "net",
        [
          Alcotest.test_case "ctrl faults hit all messages" `Quick
            test_net_ctrl_faults_all_messages;
          Alcotest.test_case "ctrl duplication" `Quick test_net_ctrl_faults_duplicate;
          Alcotest.test_case "link faults" `Quick test_net_link_faults;
        ] );
      ( "service",
        [
          Alcotest.test_case "retransmit + dedup" `Quick test_service_retransmit_dedup;
          Alcotest.test_case "duplicate replies deduped" `Quick
            test_service_duplicate_reply_dedup;
          Alcotest.test_case "duplicate request not reopened" `Quick
            test_service_duplicate_request_replay;
          Alcotest.test_case "degraded flag" `Quick test_service_degraded_flag;
          Alcotest.test_case "retry stack recovers under loss" `Quick
            test_retry_stack_recovers_under_loss;
          Alcotest.test_case "intercept repair" `Quick test_service_intercept_repair;
          Alcotest.test_case "no intercept storm at set-up" `Quick
            test_service_no_intercept_storm;
          Alcotest.test_case "lost intercept repair converges" `Quick
            test_service_intercept_repair_lost;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "poll retry" `Quick test_monitor_poll_retry;
          Alcotest.test_case "distinct poll xids" `Quick test_monitor_poll_xids_distinct;
        ] );
      ( "agent",
        [
          Alcotest.test_case "resend once" `Quick test_agent_resend_once;
          Alcotest.test_case "resend recovers answer" `Quick
            test_agent_resend_recovers_answer;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "magic-port traffic forwarded" `Quick
            test_magic_port_traffic_forwarded;
          Alcotest.test_case "wiring cleanup + reentrancy" `Quick
            test_wiring_cleanup_and_reentrancy;
        ] );
    ]
