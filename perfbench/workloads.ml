(* The four workloads.  Each takes its seed, builds its world and drive
   from it, and hands the program only the generated inputs.  The work a
   run does is fixed by the seed and [--seconds] (never by how fast the
   machine happens to be), so two runs with one seed repeat every count;
   the per-second rates below set how much work fills [--seconds] at
   the nominal reference speed. *)

open Common
module Rng = Support.Rng
module Topogen = Workload.Topogen

(* The counters the traced run's coarse spans record. *)
let register_counters s = Trace.counters := counters s

(* ------------------------------------------------------------------ *)
(* flash-crowd                                                          *)
(* ------------------------------------------------------------------ *)

module Flash = struct
  (* Deployments set up per run; [setup_s] is their median. *)
  let set_ups = 3

  let wave = 20_000

  (* Waves per wall second at the nominal reference speed. *)
  let waves_per_s = 1.0

  (* Answer payloads per wave that are decoded, signature-checked and
     compared with the oracle. *)
  let checked_per_wave = 16

  (* Drift blocks per wave's injection. *)
  let inject_blocks = 4

  type st = {
    s : Scenario.t;
    points : Verifier.endpoint array;
    peers : int array array;  (** same-tenant peer addresses per point *)
    mutable arrivals : int;
    mutable wave_sim : float;
    mutable wave_wall : float;
    mutable keep_stride : int;
    mutable keep_offset : int;
    mutable kept : string list;
    sim_ms : Samples.t;
    wall_ms : Samples.t;
  }

  (* E20's scope-width mix, Zipf(1) over three widths: 6/11 broad (all
     IP traffic), 3/11 the tenant's subnet cut to one destination port,
     2/11 one same-tenant peer at one port.  Ports are uniform, so the
     narrower questions overlap the broad ones far more often than they
     repeat each other. *)
  let question st rng =
    let k = Rng.int rng (Array.length st.points) in
    let pt = st.points.(k) in
    let info = host_info st.s pt.host in
    let u = Rng.float rng 1.0 in
    let w = Hspace.Field.total_width in
    let scope =
      if u < 6.0 /. 11.0 then Verifier.ip_traffic_hs ()
      else if u < 9.0 /. 11.0 then begin
        let value, prefix_len = Sdnctl.Addressing.subnet st.s.addressing ~client:info.client in
        Hs.of_cube
          (Hspace.Field.set_exact
             (Hspace.Field.set_prefix (Hspace.Tern.all_x w) Hspace.Field.Ip_dst ~value ~prefix_len)
             Hspace.Field.Tp_dst (Rng.int rng 65536))
      end
      else
        Hs.of_cube
          (Hspace.Field.set_exact
             (Hspace.Field.set_exact
                (Hspace.Field.set_exact (Hspace.Tern.all_x w) Hspace.Field.Eth_type
                   Hspace.Header.eth_type_ip)
                Hspace.Field.Ip_dst (Rng.pick_array rng st.peers.(k)))
             Hspace.Field.Tp_dst (Rng.int rng 65536))
    in
    (pt, scope, info.ip)

  (* Protocol-speaking host receivers (E19's harness): they answer auth
     challenges and record answer arrivals, without the per-query
     bookkeeping of a client agent. *)
  let install_receivers st =
    let s = st.s in
    let service_public = Rvaas.Service.public (Scenario.service s) in
    List.iter
      (fun host ->
        let info = host_info s host in
        let key = Option.get (Rvaas.Directory.key s.directory ~client:info.client) in
        Netsim.Net.set_host_receiver s.net ~host (fun (pkt : Netsim.Packet.t) ->
            Trace.span "client.callback" (fun () ->
                let dst_port = Hspace.Header.get pkt.header Hspace.Field.Tp_dst in
                if dst_port = Rvaas.Wire.answer_port then begin
                  st.arrivals <- st.arrivals + 1;
                  Samples.add st.sim_ms (1000.0 *. (now s -. st.wave_sim));
                  Samples.add st.wall_ms (1000.0 *. (Drift.now () -. st.wave_wall));
                  if st.arrivals mod st.keep_stride = st.keep_offset then
                    st.kept <- pkt.payload :: st.kept
                end
                else if dst_port = Rvaas.Wire.auth_request_port then
                  match Rvaas.Codec.decode_auth_request pkt.payload ~service_public with
                  | Error _ -> ()
                  | Ok challenge ->
                    let reply =
                      Rvaas.Codec.encode_auth_reply ~client:info.client ~challenge ~key
                    in
                    let header =
                      Hspace.Header.udp ~src_ip:info.ip ~dst_ip:Rvaas.Wire.service_ip
                        ~src_port:0 ~dst_port:Rvaas.Wire.auth_reply_port
                    in
                    Netsim.Net.host_send s.net ~host (Netsim.Packet.make ~header reply))))
      (Netsim.Topology.hosts (Netsim.Net.topology s.net))

  let inject st ~id (pt, scope, ip) =
    Trace.span ~req:id "service.inject_query" (fun () ->
        Rvaas.Service.inject_query (Scenario.service st.s) ~client:id
          ~nonce:(Printf.sprintf "w%d" id) ~sw:pt.Verifier.sw ~port:pt.Verifier.port ~ip
          (Query.make ~scope Query.Reachable_endpoints))

  (* Inject one wave at one simulated instant, then drain it: every
     answer delivered, or 2 simulated seconds.  Answers arrive only
     while draining; their wall latency is recorded as the offset into
     the drain, to which the injection time is added. *)
  let inject_wave st questions ~first_id ~from ~upto =
    for i = from to upto - 1 do
      inject st ~id:(first_id + i) questions.(i)
    done

  let drain_wave st ~count =
    let base = st.arrivals in
    st.wave_wall <- Drift.now ();
    ignore (run_until st.s ~step:0.05 ~limit:2.0 (fun () -> st.arrivals - base >= count))

  (* Decode, signature-check and oracle-check the kept payloads. *)
  let check st r questions ~first_id =
    let service_public = Rvaas.Service.public (Scenario.service st.s) in
    let bad = ref 0 in
    List.iter
      (fun payload ->
        match Rvaas.Codec.decode_answer payload ~service_public with
        | Error e ->
          incr bad;
          mismatch r "flash-crowd answer failed its signature check: %s" e
        | Ok a -> (
          Replay.answer a;
          let id = Scanf.sscanf a.nonce "w%d" Fun.id - first_id in
          let pt, scope, _ = questions.(id) in
          match
            oracle st.s ~sw:pt.Verifier.sw ~port:pt.Verifier.port
              (Query.make ~scope Query.Reachable_endpoints) a
          with
          | None -> ()
          | Some why ->
            incr bad;
            mismatch r "flash-crowd answer %s at s%d:%d: %s" a.nonce pt.sw pt.port why))
      st.kept;
    st.kept <- [];
    !bad

  (* Traced run only: the wave's submissions for the front-end replay,
     one warm over its injection points (the wave is one flush), and a
     sample of its questions for the engine and codec replays. *)
  let replay st questions ~first_id =
    if Option.is_some !Replay.current then begin
      let query scope = Query.make ~scope Query.Reachable_endpoints in
      Replay.batch
        (Array.to_list
           (Array.mapi
              (fun i ((pt : Verifier.endpoint), scope, _) ->
                (first_id + i, pt.sw, pt.port, query scope))
              questions));
      Replay.warm
        ~points:
          (List.sort_uniq compare
             (Array.to_list
                (Array.map (fun ((pt : Verifier.endpoint), _, _) -> (pt.sw, pt.port)) questions)));
      for k = 0 to 49 do
        let i = k * Array.length questions / 50 in
        let (pt : Verifier.endpoint), scope, _ = questions.(i) in
        Replay.request ~client:(host_info st.s pt.host).client
          ~nonce:(Printf.sprintf "w%d" (first_id + i))
          (query scope);
        Replay.engine ~sw:pt.sw ~port:pt.port (ip_scope (query scope))
      done
    end

  let setup seed () =
    let topo =
      Topogen.fat_tree { Topogen.default_params with hosts_per_switch = 3 } ~k:6
    in
    let s =
      build
        {
          (Scenario.default_spec topo) with
          seed;
          polling = Rvaas.Monitor.Periodic 10.0;
          frontend = Rvaas.Frontend.coalescing ~batch_window:0.005 ~subsume:true ();
        }
    in
    register_counters s;
    run s ~until:(now s +. 0.3);
    let points = Array.of_list (Verifier.access_points topo) in
    let peers =
      Array.map
        (fun (pt : Verifier.endpoint) ->
          let c = (host_info s pt.host).client in
          Array.of_list
            (List.filter_map
               (fun (q : Verifier.endpoint) ->
                 let j = host_info s q.host in
                 if q.host <> pt.host && j.client = c then Some j.ip else None)
               (Array.to_list points)))
        points
    in
    let st =
      {
        s;
        points;
        peers;
        arrivals = 0;
        wave_sim = 0.0;
        wave_wall = 0.0;
        keep_stride = 1;
        keep_offset = 0;
        kept = [];
        sim_ms = Samples.create ();
        wall_ms = Samples.create ();
      }
    in
    install_receivers st;
    let first = [| (points.(0), Verifier.ip_traffic_hs (), (host_info s points.(0).host).ip) |] in
    st.wave_sim <- now s;
    inject_wave st first ~first_id:0 ~from:0 ~upto:1;
    drain_wave st ~count:1;
    (st, first)

  let verify r (st, first) =
    let failed = r.failed in
    if st.arrivals < 1 then mismatch r "flash-crowd: the set-up query got no answer"
    else ignore (check st r first ~first_id:0);
    r.failed - failed

  let drive ~seed ~seconds r (st, _) =
    let waves = max 1 (int_of_float (Float.round (seconds *. waves_per_s))) in
    let rng = Rng.create (seed + 0x5eed) in
    st.keep_stride <- wave / checked_per_wave;
    let sim0 = now st.s and arrivals0 = st.arrivals in
    st.sim_ms.n <- 0;
    st.wall_ms.n <- 0;
    for w = 0 to waves - 1 do
      let first_id = 1 + (w * wave) in
      let questions = Array.init wave (fun _ -> question st rng) in
      st.keep_offset <- Rng.int rng st.keep_stride;
      let base = st.arrivals in
      (* The injection is split into blocks, and the drain is one, for
         reference samples in between; the wave stays at one simulated
         instant. *)
      st.wave_sim <- now st.s;
      let inject_s = ref 0.0 in
      for part = 0 to inject_blocks - 1 do
        Drift.open_slice r.timed;
        inject_wave st questions ~first_id ~from:(part * wave / inject_blocks)
          ~upto:((part + 1) * wave / inject_blocks);
        Drift.close_slice r.timed;
        inject_s := !inject_s +. r.timed.block_raw;
        Drift.end_block r.timed
      done;
      let inject_ms = 1000.0 *. !inject_s in
      Drift.open_slice r.timed;
      drain_wave st ~count:wave;
      Drift.close_slice r.timed;
      for i = 0 to st.wall_ms.n - 1 do
        st.wall_ms.a.(i) <- inject_ms +. st.wall_ms.a.(i)
      done;
      end_block r st.wall_ms;
      let delivered = st.arrivals - base in
      if delivered < wave then
        mismatch r "flash-crowd wave %d: %d of %d answers missing" w (wave - delivered) wave;
      let bad = check st r questions ~first_id in
      replay st questions ~first_id;
      r.attempted <- r.attempted + wave;
      r.answered <- r.answered + delivered - bad
    done;
    Array.iter (Samples.add r.sim_ms) (Samples.to_array st.sim_ms);
    r.sim_s <- now st.s -. sim0;
    r.counts <- determinism_counts st.s ~answers:(st.arrivals - arrivals0);
    r.world <- world_sizes st.s
end

(* ------------------------------------------------------------------ *)
(* tenant-probe and rewrite-attack                                      *)
(* ------------------------------------------------------------------ *)

module Probe = struct
  (* Two, not three, here and in churn-ingest: their deployments take
     about 10 and 5 s, and the benchmark's runs share a time budget. *)
  let set_ups = 2

  (* Rounds (one Flow-Mod plus one query) per wall second at the
     nominal reference speed: 6 s give the 1000 samples a p99 needs. *)
  let rounds_per_s = 170.0

  (* One answer in [oracle_every] is compared with the oracle (every
     answer's signature, nonce and flags are checked). *)
  let oracle_every = 8

  (* Rounds between two reference samples. *)
  let block = 20

  (* The world is fixed (E18's Waxman seed); the run's seed draws the
     drive: keys and locations, Flow-Mod targets, who asks what.  A
     seeded world would add its own size to the spread between seeds. *)
  let world_seed = 7

  type st = {
    s : Scenario.t;
    rng : Rng.t;
    check_rng : Rng.t;  (** picks the answers the oracle checks *)
    switches : int array;
    hosts : int array;
    live : (int * Ofproto.Flow_entry.spec) Queue.t;
    mutable round : int;
  }

  (* E18's rolling drop filter: a fresh exact-match drop rule per
     round, so the believed view keeps changing without the tables
     growing. *)
  let drop_filter i =
    let m =
      Ofproto.Match_.with_exact
        (Ofproto.Match_.with_exact
           (Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Eth_type 0x800)
           Hspace.Field.Ip_src (0xa000000 + i))
        Hspace.Field.Tp_dst
        (5000 + (i mod 50))
    in
    Ofproto.Flow_entry.make_spec ~cookie:77 ~priority:150 m []

  (* The paper's single-source questions: reachable endpoints at three
     scope widths, jurisdictions, path length, transfer summary. *)
  let question st host =
    let s = st.s in
    let info = host_info s host in
    let peers =
      List.filter_map
        (fun (h : Sdnctl.Addressing.host_info) -> if h.host <> host then Some h.ip else None)
        (Sdnctl.Addressing.hosts_of_client s.addressing ~client:info.client)
    in
    let peer = match peers with [] -> info.ip | _ -> Rng.pick st.rng peers in
    let port = Rng.int st.rng 65536 in
    let w = Hspace.Field.total_width in
    match Rng.int st.rng 6 with
    | 0 -> Query.make ~scope:(Verifier.ip_traffic_hs ()) Query.Reachable_endpoints
    | 1 ->
      let value, prefix_len = Sdnctl.Addressing.subnet s.addressing ~client:info.client in
      Query.make
        ~scope:
          (Hs.of_cube
             (Hspace.Field.set_exact
                (Hspace.Field.set_prefix (Hspace.Tern.all_x w) Hspace.Field.Ip_dst ~value
                   ~prefix_len)
                Hspace.Field.Tp_dst port))
        Query.Reachable_endpoints
    | 2 ->
      Query.make
        ~scope:
          (Hs.of_cube
             (Hspace.Field.set_exact
                (Hspace.Field.set_exact
                   (Hspace.Field.set_exact (Hspace.Tern.all_x w) Hspace.Field.Eth_type
                      Hspace.Header.eth_type_ip)
                   Hspace.Field.Ip_dst peer)
                Hspace.Field.Tp_dst port))
        Query.Reachable_endpoints
    | 3 -> Query.make Query.Geo
    | 4 -> Query.make (Query.Path_length { dst_ip = peer })
    | _ -> Query.make Query.Transfer_summary

  type round = {
    host : int;
    query : Query.t;
    nonce : string;
    outcome : Rvaas.Client_agent.outcome option;
    wall : float;  (** seconds from [send_query] to the answer *)
    landed : bool;
  }

  (* One round: the provider pushes a Flow-Mod (and retires the oldest
     filter once more than four are live), the monitor sees it land,
     then one tenant asks one question and waits for the answer. *)
  let round st =
    let s = st.s in
    let i = st.round in
    st.round <- i + 1;
    Trace.span ~req:i ~counted:true "probe.round" (fun () ->
        let m = Scenario.monitor s in
        let conn = Sdnctl.Provider.conn s.provider in
        let seen = Rvaas.Monitor.events_seen m in
        let sw = st.switches.(Rng.int st.rng (Array.length st.switches)) in
        let spec = drop_filter i in
        Netsim.Net.send s.net conn ~sw (Ofproto.Message.Flow_mod (Ofproto.Message.Add_flow spec));
        Queue.add (sw, spec) st.live;
        let mods =
          if Queue.length st.live > 4 then begin
            let old_sw, old = Queue.pop st.live in
            Netsim.Net.send s.net conn ~sw:old_sw
              (Ofproto.Message.Flow_mod
                 (Ofproto.Message.Delete_flow
                    { match_ = old.Ofproto.Flow_entry.match_; priority = Some old.priority }));
            2
          end
          else 1
        in
        let landed =
          run_until s ~limit:1.0 (fun () -> Rvaas.Monitor.events_seen m >= seen + mods)
        in
        let host = st.hosts.(Rng.int st.rng (Array.length st.hosts)) in
        let query = question st host in
        let agent = Scenario.agent s ~host in
        let got = ref None in
        Rvaas.Client_agent.set_answer_callback agent (fun o ->
            Trace.span "client.callback" (fun () -> got := Some o));
        let t0 = Drift.now () in
        let nonce =
          Trace.span "client.send_query" (fun () -> Rvaas.Client_agent.send_query agent query)
        in
        ignore (run_until s ~limit:1.0 (fun () -> Option.is_some !got));
        { host; query; nonce; outcome = !got; wall = Drift.now () -. t0; landed })

  (* Outside the timing: did it land, arrive, verify, and agree with
     the oracle? *)
  let check ?(oracle_too = true) st r (rd : round) =
    let sw, port = attachment st.s rd.host in
    if not rd.landed then (mismatch r "round %d: the Flow-Mod never reached the monitor" st.round; false)
    else
      match rd.outcome with
      | None -> (mismatch r "round %d: no answer (h%d)" st.round rd.host; false)
      | Some o when not o.signature_ok || o.answer.nonce <> rd.nonce ->
        mismatch r "round %d: badly signed or stale answer" st.round;
        false
      | Some o when not oracle_too ->
        if o.answer.degraded || o.answer.throttled then begin
          mismatch r "round %d: degraded or throttled answer" st.round;
          false
        end
        else true
      | Some o -> (
        match oracle st.s ~sw ~port rd.query o.answer with
        | None -> true
        | Some why ->
          mismatch r "round %d: %s answer from h%d disagrees with the oracle: %s" st.round
            (Query.kind_to_string rd.query.kind) rd.host why;
          false)

  (* Traced run only: this round's inputs for the replays. *)
  let replay st (rd : round) =
    if Option.is_some !Replay.current then begin
      let client = (host_info st.s rd.host).client and sw, port = attachment st.s rd.host in
      Replay.request ~client ~nonce:rd.nonce rd.query;
      Option.iter (fun (o : Rvaas.Client_agent.outcome) -> Replay.answer o.answer) rd.outcome;
      Replay.batch [ (client, sw, port, rd.query) ];
      Replay.engine ~sw ~port (reach_scope rd.query)
    end

  let setup ~attack seed () =
    let topo =
      Topogen.waxman Topogen.default_params (Rng.create world_seed) ~n:80 ~alpha:0.3 ~beta:0.3
    in
    let s =
      build
        {
          (Scenario.default_spec topo) with
          seed;
          clients = 8;
          polling = Rvaas.Monitor.Periodic 10.0;
        }
    in
    register_counters s;
    run s ~until:(now s +. 0.2);
    let hosts = Array.of_list (Netsim.Topology.hosts topo) in
    if attack then begin
      (* Exfiltrate rewrites Ip_dst towards the attacker, so questions
         crossing these rules need exact evaluation. *)
      let conn = Sdnctl.Provider.conn s.provider in
      Array.iteri
        (fun i victim_host ->
          if i mod 4 = 0 then
            Sdnctl.Attack.launch s.net s.addressing ~conn
              (Sdnctl.Attack.Exfiltrate
                 { victim_host; attacker_host = hosts.((i + 1) mod Array.length hosts) }))
        hosts;
      run s ~until:(now s +. 0.05)
    end;
    let st =
      {
        s;
        rng = Rng.create (seed + 0x5eed);
        check_rng = Rng.create (seed + 0xc4ec);
        switches = Array.of_list (Netsim.Topology.switches topo);
        hosts;
        live = Queue.create ();
        round = 0;
      }
    in
    let first = round st in
    (st, first)

  let verify r (st, first) =
    let failed = r.failed in
    ignore (check st r first);
    r.failed - failed

  let drive ~seconds r (st, _) =
    let rounds = block * max 1 (int_of_float (Float.round (seconds *. rounds_per_s)) / block) in
    let sim0 = now st.s in
    let answers = ref 0 and pending = Samples.create () in
    for i = 0 to rounds - 1 do
      Drift.open_slice r.timed;
      let rd = round st in
      Drift.close_slice r.timed;
      r.attempted <- r.attempted + 1;
      replay st rd;
      if check ~oracle_too:(Rng.int st.check_rng oracle_every = 0) st r rd then begin
        incr answers;
        r.answered <- r.answered + 1;
        let o = Option.get rd.outcome in
        Samples.add pending (1000.0 *. rd.wall);
        Samples.add r.sim_ms (1000.0 *. (o.answered_at -. o.issued_at))
      end;
      if (i + 1) mod block = 0 then end_block r pending
    done;
    r.sim_s <- now st.s -. sim0;
    r.counts <- determinism_counts st.s ~answers:!answers;
    r.world <- world_sizes st.s
end

(* ------------------------------------------------------------------ *)
(* churn-ingest                                                         *)
(* ------------------------------------------------------------------ *)

module Ingest = struct
  let set_ups = 2

  (* Simulated seconds per wall second at the nominal reference speed. *)
  let sim_per_s = 3.5

  (* Storms: [storm_queries] questions, one every [storm_grid] seconds,
     each from a seeded gateway, a new storm every [storm_every]; the
     grid starts [storm_offset] into the campaign.  Reach costs differ
     between gateways, so drawing the gateway per question (not per
     storm) keeps the answer-latency tail from depending on which few
     gateways a seed happens to pick. *)
  let storm_every = 0.5

  let storm_grid = 0.05

  let storm_offset = 0.1

  let storm_queries = 20

  let storm_spread = float_of_int storm_queries *. storm_grid

  (* Seconds between two events of each class: E22's mix at twelve
     times its rates, so a campaign of a few simulated minutes still sees
     every class.  [Workload.Churn.plan] picks the targets; the benchmark
     re-times its events to this fixed cadence (with a seeded phase), so
     every seed runs the same number of each class and the campaign's
     cost does not swing with Poisson counts. *)
  let upgrade_every = 10.0

  let flap_every = 5.0

  let attack_every = 10.0

  let profile =
    {
      Workload.Churn.upgrades_per_min = 30.0;
      flaps_per_min = 60.0;
      attacks_per_min = 30.0;
      storms_per_min = 0.0;
      upgrade_outage = 5.0;
      flap_down = 3.0;
      attack_dwell = 10.0;
      storm_queries = 0;
      storm_spread = 0.0;
    }

  let campaign s ~seed ~start ~duration =
    let planned = Workload.Churn.plan s profile ~seed ~start ~duration in
    let rng = Rng.create (seed + 0xca1) in
    (* Exactly [duration / every] events of each class.  The phase is
       seeded but kept on the half-steps of the storm grid, so every
       event edge (start, and end after a whole number of grid steps)
       lands 25 ms away from any storm question: the answer metrics
       measure the service, not the luck of a question straddling a
       Flow-Mod burst, whose cost [sim_per_wall] already carries. *)
    let retime every keep =
      let steps = int_of_float (every /. storm_grid) in
      let phase = storm_offset +. (storm_grid *. (float_of_int (Rng.int rng (steps - 2)) +. 0.5)) in
      let n = int_of_float (duration /. every) in
      List.filter (fun (_, e) -> keep e) planned.c_events
      |> List.filteri (fun k _ -> k < n)
      |> List.mapi (fun k (_, e) -> (start +. phase +. (float_of_int k *. every), e))
    in
    let events =
      List.concat
        [
          retime upgrade_every (function Workload.Churn.Upgrade _ -> true | _ -> false);
          retime flap_every (function Workload.Churn.Flap _ -> true | _ -> false);
          retime attack_every (function Workload.Churn.Attack_burst _ -> true | _ -> false);
        ]
      |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    in
    { planned with c_events = events }


  (* Raw wall seconds per reference block. *)
  let block_s = 0.1

  type st = {
    s : Scenario.t;
    gateways : int array;
    sent : (string, float) Hashtbl.t;  (** nonce -> timed-clock stamp *)
    mutable clock : unit -> float;
    mutable answers : int;
    mutable bad : int;
    sim_ms : Samples.t;
    wall_ms : Samples.t;
  }

  (* A storm question: reachable endpoints for one destination port.
     Ports are drawn uniformly, so every question is distinct and each
     costs a reach pass rather than a cache hit. *)
  let ask st host ~tp_dst =
    let q =
      Query.make
        ~scope:
          (Hs.of_cube
             (Hspace.Field.set_exact
                (Hspace.Field.set_exact (Hspace.Tern.all_x Hspace.Field.total_width)
                   Hspace.Field.Eth_type Hspace.Header.eth_type_ip)
                Hspace.Field.Tp_dst tp_dst))
        Query.Reachable_endpoints
    in
    let nonce =
      Trace.span "client.send_query" (fun () ->
          Rvaas.Client_agent.send_query (Scenario.agent st.s ~host) q)
    in
    Hashtbl.replace st.sent nonce (st.clock ());
    if Option.is_some !Replay.current then begin
      let client = (host_info st.s host).client and sw, port = attachment st.s host in
      Replay.request ~client ~nonce q;
      Replay.batch [ (client, sw, port, q) ]
    end;
    (host, q, nonce)

  (* Fixed, like the probe world (E22's seed); the run's seed draws
     the campaign and the storms. *)
  let world_seed = 22

  let setup seed () =
    let params = { Topogen.default_params with hosts_per_switch = 1; host_stride = 8 } in
    let md =
      Topogen.multi_domain params (Rng.create world_seed) ~peering:3
        [ Topogen.Leaf_spine { spines = 4; leaves = 200 }; Topogen.Scale_free { n = 40; m = 2 } ]
    in
    let topo = md.Topogen.md_topo in
    let gateways = Array.of_list (Netsim.Topology.hosts topo) in
    let s =
      build
        {
          (Scenario.default_spec topo) with
          clients = Array.length gateways;
          seed;
          polling = Rvaas.Monitor.Periodic 2.0;
          frontend = Rvaas.Frontend.coalescing ~batch_window:0.002 ();
          range_hosts = 0x10000;
        }
    in
    register_counters s;
    run s ~until:(now s +. 1.0);
    let st =
      {
        s;
        gateways;
        sent = Hashtbl.create 64;
        clock = Drift.now;
        answers = 0;
        bad = 0;
        sim_ms = Samples.create ();
        wall_ms = Samples.create ();
      }
    in
    Array.iter
      (fun host ->
        Rvaas.Client_agent.set_answer_callback (Scenario.agent s ~host) (fun o ->
            Trace.span "client.callback" (fun () ->
                match Hashtbl.find_opt st.sent o.answer.nonce with
                | None -> ()
                | Some t0 ->
                  Hashtbl.remove st.sent o.answer.nonce;
                  Replay.answer o.answer;
                  if o.answer.throttled || o.answer.degraded || not o.signature_ok then
                    st.bad <- st.bad + 1
                  else begin
                    st.answers <- st.answers + 1;
                    let t1 = st.clock () in
                    if not (Float.is_nan t1) then begin
                      Samples.add st.sim_ms (1000.0 *. (o.answered_at -. o.issued_at));
                      Samples.add st.wall_ms (1000.0 *. (t1 -. t0))
                    end
                  end)))
      gateways;
    let first = ask st gateways.(0) ~tp_dst:80 in
    ignore (run_until s ~limit:1.0 (fun () -> st.answers >= 1));
    (st, first)

  (* Quiescent check: with no churn in flight the believed view equals
     the switches' tables, so answers must match the oracle exactly. *)
  let check_quiet st r hosts =
    List.iter
      (fun host ->
        let agent = Scenario.agent st.s ~host in
        let q = Query.make Query.Reachable_endpoints in
        let got = ref None in
        let before = Rvaas.Client_agent.outcomes agent |> List.length in
        let nonce = Rvaas.Client_agent.send_query agent q in
        ignore
          (run_until st.s ~limit:1.0 (fun () ->
               List.length (Rvaas.Client_agent.outcomes agent) > before));
        List.iter
          (fun (o : Rvaas.Client_agent.outcome) -> if o.answer.nonce = nonce then got := Some o)
          (Rvaas.Client_agent.outcomes agent);
        let sw, port = attachment st.s host in
        match !got with
        | None -> mismatch r "churn-ingest: quiescent query from h%d got no answer" host
        | Some o -> (
          match oracle st.s ~sw ~port q o.answer with
          | None -> ()
          | Some why -> mismatch r "churn-ingest: quiescent answer from h%d: %s" host why))
      hosts

  let verify r (st, (host, _, _)) =
    let failed = r.failed in
    if st.answers < 1 then mismatch r "churn-ingest: the set-up query got no answer"
    else check_quiet st r [ host ];
    r.failed - failed

  let drive ~seed ~seconds r (st, _) =
    let s = st.s in
    let duration = Float.round (seconds *. sim_per_s) in
    let start = now s in
    let campaign = campaign s ~seed ~start ~duration in
    let report = Workload.Churn.schedule s campaign in
    let rng = Rng.create (seed + 0x5eed) in
    (* Every storm starts and ends inside the campaign. *)
    let storms = 1 + int_of_float ((duration -. storm_spread -. storm_offset) /. storm_every) in
    for k = 0 to storms - 1 do
      let t = start +. storm_offset +. (float_of_int k *. storm_every) in
      for j = 0 to storm_queries - 1 do
        let host = st.gateways.(Rng.int rng (Array.length st.gateways)) in
        let tp_dst = Rng.int rng 65536 in
        Netsim.Sim.schedule_at (sim s)
          ~time:(t +. (float_of_int j *. storm_grid))
          (fun () -> ignore (ask st host ~tp_dst))
      done
    done;
    st.clock <- (fun () -> Drift.elapsed r.timed);
    st.sim_ms.n <- 0;
    st.wall_ms.n <- 0;
    st.answers <- 0;
    st.bad <- 0;
    let sim0 = now s in
    while now s < start +. duration do
      Drift.open_slice r.timed;
      run s ~until:(Float.min (start +. duration) (now s +. 0.25));
      Drift.close_slice r.timed;
      if Option.is_some !Replay.current then begin
        let sw, port = attachment s st.gateways.(Rng.int rng (Array.length st.gateways)) in
        Replay.engine ~sw ~port (Verifier.ip_traffic_hs ())
      end;
      if r.timed.block_raw >= block_s || now s >= start +. duration then end_block r st.wall_ms
    done;
    r.sim_s <- now s -. sim0;
    st.clock <- (fun () -> Float.nan);
    let asked = storms * storm_queries in
    let answered_in_time = st.answers in
    (* Let the last transient, outage and flap end, then check
       completion and a quiescent sample against the oracle. *)
    let last_end =
      List.fold_left
        (fun acc (t, e) ->
          Float.max acc
            (t
            +.
            match e with
            | Workload.Churn.Upgrade { outage; _ } -> outage
            | Flap { down; _ } -> down
            | Attack_burst { dwell; _ } -> dwell
            | Storm { spread; _ } -> spread))
        (now s) campaign.c_events
    in
    run s ~until:(last_end +. 0.5);
    let planned f = List.length (List.filter (fun (_, e) -> f e) campaign.c_events) in
    let executed =
      report.upgrades = planned (function Workload.Churn.Upgrade _ -> true | _ -> false)
      && report.flaps = planned (function Workload.Churn.Flap _ -> true | _ -> false)
      && report.attacks = planned (function Workload.Churn.Attack_burst _ -> true | _ -> false)
    in
    if not executed then mismatch r "churn-ingest: the campaign did not execute every event";
    if st.bad > 0 then mismatch r "churn-ingest: %d storm answers degraded, throttled or unsigned" st.bad;
    if st.answers < asked then
      mismatch r "churn-ingest: %d of %d storm questions never answered" (asked - st.answers) asked;
    check_quiet st r
      (List.init 4 (fun k -> st.gateways.(k * 7 mod Array.length st.gateways)));
    r.attempted <- asked;
    r.answered <- answered_in_time;
    Array.iter (Samples.add r.sim_ms) (Samples.to_array st.sim_ms);
    r.counts <-
      determinism_counts s ~answers:st.answers
      @ [ ("churn_events", Workload.Churn.event_count campaign) ];
    r.world <- world_sizes s @ [ ("addresses", Scenario.address_count s) ]
end
