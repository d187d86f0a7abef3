(* Tier-1 coverage for the delta-aware reach cache.

   - Second-chance eviction: a full cache replaces stale entries one at
     a time and keeps recently-hit ones (the previous implementation
     dropped the whole table at capacity).
   - Delta invalidation: a Flow-Mod on switch [s] evicts exactly the
     entries whose reach pass traversed [s]; surviving entries still
     hit and agree with a fresh recomputation by the eager-guard
     reference verifier.
   - Through the service: a cached isolation answer never masks a
     rule-injection attack.
   - Keys compare scopes: a crafted hash collision is neither served
     from the cache nor coalesced by the front-end. *)

let check = Alcotest.check

(* ---- unit level: eviction and delta semantics on synthetic entries ---- *)

let fake_result traversed =
  {
    Rvaas.Verifier.endpoints = [];
    controller_hits = [];
    traversed;
    sample_paths = [];
    handoffs = [];
    rule_visits = 0;
    rewrote = false;
  }

let key_of i =
  Rvaas.Reach_cache.key ~src_sw:i ~src_port:1 ~hs:(Rvaas.Verifier.ip_traffic_hs ())

let test_second_chance_eviction () =
  let cache = Rvaas.Reach_cache.create ~capacity:4 () in
  for i = 0 to 3 do
    Rvaas.Reach_cache.add cache (key_of i) (fake_result [ i ])
  done;
  check Alcotest.int "at capacity" 4 (Rvaas.Reach_cache.length cache);
  (* Hit 0 and 1: they are now recently used. *)
  check Alcotest.bool "hit 0" true (Rvaas.Reach_cache.find cache (key_of 0) <> None);
  check Alcotest.bool "hit 1" true (Rvaas.Reach_cache.find cache (key_of 1) <> None);
  (* Two inserts beyond capacity must displace the un-hit entries 2 and
     3, never the recently-hit ones. *)
  Rvaas.Reach_cache.add cache (key_of 4) (fake_result [ 4 ]);
  Rvaas.Reach_cache.add cache (key_of 5) (fake_result [ 5 ]);
  check Alcotest.int "still at capacity" 4 (Rvaas.Reach_cache.length cache);
  check Alcotest.bool "recently-hit entry 0 retained" true
    (Rvaas.Reach_cache.find cache (key_of 0) <> None);
  check Alcotest.bool "recently-hit entry 1 retained" true
    (Rvaas.Reach_cache.find cache (key_of 1) <> None);
  check Alcotest.bool "stale entry displaced" true
    (Rvaas.Reach_cache.find cache (key_of 2) = None
    || Rvaas.Reach_cache.find cache (key_of 3) = None);
  let stats = Rvaas.Reach_cache.stats cache in
  check Alcotest.int "two capacity evictions" 2
    stats.Rvaas.Reach_cache.capacity_evictions

let test_delta_eviction_unit () =
  let cache = Rvaas.Reach_cache.create () in
  (* Entry A traversed switches 0-1, entry B switches 2-3. *)
  Rvaas.Reach_cache.add cache (key_of 0) (fake_result [ 0; 1 ]);
  Rvaas.Reach_cache.add cache (key_of 2) (fake_result [ 2; 3 ]);
  (* A change on switch 1 evicts exactly the entry that read it. *)
  Rvaas.Reach_cache.invalidate_switch cache ~sw:1;
  check Alcotest.int "one entry evicted" 1 (Rvaas.Reach_cache.length cache);
  check Alcotest.bool "traversing entry gone" true
    (Rvaas.Reach_cache.find cache (key_of 0) = None);
  check Alcotest.bool "independent entry kept" true
    (Rvaas.Reach_cache.find cache (key_of 2) <> None);
  let stats = Rvaas.Reach_cache.stats cache in
  check Alcotest.int "delta eviction counted" 1 stats.Rvaas.Reach_cache.delta_evictions

(* Regression: delta invalidation used to leave every evicted key in
   the second-chance ring forever — under a delta-heavy workload that
   never hits capacity the ring grew without bound (one dead key per
   add/invalidate cycle).  The purge must keep it within ~2x the live
   table across 10k cycles. *)
let test_clock_queue_bounded () =
  let cache = Rvaas.Reach_cache.create ~capacity:4096 () in
  (* A few long-lived entries that never get invalidated (they traverse
     only switch 999) — the purge must preserve them. *)
  for i = 100_000 to 100_003 do
    Rvaas.Reach_cache.add cache (key_of i) (fake_result [ 999 ])
  done;
  for i = 0 to 9_999 do
    Rvaas.Reach_cache.add cache (key_of i) (fake_result [ 0 ]);
    Rvaas.Reach_cache.invalidate_switch cache ~sw:0
  done;
  let live = Rvaas.Reach_cache.length cache in
  check Alcotest.int "only the long-lived entries remain" 4 live;
  check Alcotest.bool
    (Printf.sprintf "clock ring bounded (%d <= %d)"
       (Rvaas.Reach_cache.clock_length cache)
       ((2 * live) + 16))
    true
    (Rvaas.Reach_cache.clock_length cache <= (2 * live) + 16);
  let stats = Rvaas.Reach_cache.stats cache in
  check Alcotest.bool "purge actually ran" true (stats.Rvaas.Reach_cache.clock_purged > 0);
  (* Long-lived entries survived the purges. *)
  for i = 100_000 to 100_003 do
    check Alcotest.bool "long-lived entry still cached" true
      (Rvaas.Reach_cache.find cache (key_of i) <> None)
  done

(* ---- system level: Flow-Mod on one switch, queries on others ---- *)

let build ?(isolation = false) topo =
  let s =
    Workload.Scenario.build
      { (Workload.Scenario.default_spec topo) with clients = 2; isolation }
  in
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.3);
  s

let endpoints_fingerprint (r : Rvaas.Verifier.reach_result) =
  List.map
    (fun ((ep : Rvaas.Verifier.endpoint), hs) ->
      Printf.sprintf "%d/%d/%d:%s" ep.host ep.sw ep.port
        (String.concat "+"
           (List.sort String.compare
              (List.map Hspace.Tern.to_string (Hspace.Hs.cubes hs)))))
    r.Rvaas.Verifier.endpoints

let test_delta_invalidation_end_to_end () =
  let topo = Workload.Topogen.linear Workload.Topogen.default_params 6 in
  let s = build topo in
  let cache = Rvaas.Service.reach_cache s.service in
  let stats = Rvaas.Reach_cache.stats cache in
  let points = Rvaas.Verifier.access_points (Netsim.Net.topology s.net) in
  let near = List.hd points in
  (* Scope the query to a neighbouring host's address so the reach pass
     stays local to the low end of the line. *)
  let far_host = (List.hd (List.rev points)).Rvaas.Verifier.host in
  let near_peer =
    (List.nth points 1).Rvaas.Verifier.host
  in
  let ip_of host =
    (Option.get (Sdnctl.Addressing.host s.addressing ~host)).Sdnctl.Addressing.ip
  in
  let hs_near = Rvaas.Verifier.dst_ip_hs (ip_of near_peer) in
  let r_near =
    Rvaas.Service.reach s.service ~src_sw:near.Rvaas.Verifier.sw
      ~src_port:near.Rvaas.Verifier.port ~hs:hs_near
  in
  (* A second cached entry that does traverse the far switch. *)
  let hs_far = Rvaas.Verifier.dst_ip_hs (ip_of far_host) in
  let r_far =
    Rvaas.Service.reach s.service ~src_sw:near.Rvaas.Verifier.sw
      ~src_port:near.Rvaas.Verifier.port ~hs:hs_far
  in
  (* Pick a switch the near query never consulted but the far one did:
     the Flow-Mod target. *)
  let mod_sw =
    List.find
      (fun sw -> not (List.mem sw r_near.Rvaas.Verifier.traversed))
      (List.rev r_far.Rvaas.Verifier.traversed)
  in
  let conn = Sdnctl.Provider.conn s.provider in
  let m = Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Tp_src 7777 in
  Netsim.Net.send s.net conn ~sw:mod_sw
    (Ofproto.Message.Flow_mod
       (Ofproto.Message.Add_flow (Ofproto.Flow_entry.make_spec ~cookie:9 ~priority:55 m [])));
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.2);
  check Alcotest.bool "change evicted the traversing entry" true
    (stats.Rvaas.Reach_cache.delta_evictions > 0);
  (* The untouched entry still hits... *)
  let hits0 = stats.Rvaas.Reach_cache.hits in
  let r_near' =
    Rvaas.Service.reach s.service ~src_sw:near.Rvaas.Verifier.sw
      ~src_port:near.Rvaas.Verifier.port ~hs:hs_near
  in
  check Alcotest.bool "surviving entry served from cache" true
    (stats.Rvaas.Reach_cache.hits > hits0);
  check
    Alcotest.(list string)
    "survivor unchanged" (endpoints_fingerprint r_near) (endpoints_fingerprint r_near');
  (* ...and agrees with a fresh pass of the eager-guard reference
     verifier over the believed configuration. *)
  let snapshot = Rvaas.Monitor.snapshot s.monitor in
  let flows_of sw = Rvaas.Snapshot.flows snapshot ~sw in
  let r_ref =
    Rvaas.Verifier_ref.reach ~flows_of (Netsim.Net.topology s.net)
      ~src_sw:near.Rvaas.Verifier.sw ~src_port:near.Rvaas.Verifier.port ~hs:hs_near
  in
  check
    Alcotest.(list string)
    "survivor matches reference recomputation" (endpoints_fingerprint r_ref)
    (endpoints_fingerprint r_near');
  (* The traversing entry was evicted: same query misses and recomputes. *)
  let misses0 = stats.Rvaas.Reach_cache.misses in
  let _ =
    Rvaas.Service.reach s.service ~src_sw:near.Rvaas.Verifier.sw
      ~src_port:near.Rvaas.Verifier.port ~hs:hs_far
  in
  check Alcotest.bool "evicted entry recomputed" true
    (stats.Rvaas.Reach_cache.misses > misses0)

(* ---- service level: the cache never masks an attack ---- *)

let evaluate_isolation s =
  let topo = Netsim.Net.topology s.Workload.Scenario.net in
  let att = Option.get (Netsim.Topology.host_attachment topo 0) in
  let sw =
    match att.Netsim.Topology.node with
    | Netsim.Topology.Switch sw -> sw
    | Netsim.Topology.Host _ -> assert false
  in
  snd
    (Rvaas.Service.evaluate s.service ~client:0 ~sw ~port:att.Netsim.Topology.port
       (Rvaas.Query.make Rvaas.Query.Isolation))
  |> List.map (fun (ep : Rvaas.Verifier.endpoint) ->
         Printf.sprintf "%d/%d/%d" ep.host ep.sw ep.port)

let test_cache_attack_detected () =
  let s =
    build ~isolation:true (Workload.Topogen.fat_tree Workload.Topogen.default_params ~k:4)
  in
  let cache = Rvaas.Service.reach_cache s.service in
  let stats = Rvaas.Reach_cache.stats cache in
  let before = evaluate_isolation s in
  let hits0 = stats.Rvaas.Reach_cache.hits in
  let warm = evaluate_isolation s in
  check Alcotest.(list string) "warm answer identical" before warm;
  check Alcotest.bool "repeat query served from cache" true
    (stats.Rvaas.Reach_cache.hits > hits0);
  (* The attacker (client 1's host) injects Flow-Mods joining client
     0's isolation domain.  The monitor's snapshot-change hook must
     evict the cached results that traversed the modified switch so
     the next evaluation sees the new rules. *)
  Sdnctl.Attack.launch s.net s.addressing
    ~conn:(Sdnctl.Provider.conn s.provider)
    (Sdnctl.Attack.Join { victim_client = 0; attacker_host = 1 });
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.2);
  check Alcotest.bool "snapshot change evicted stale entries" true
    (stats.Rvaas.Reach_cache.delta_evictions > 0);
  let after = evaluate_isolation s in
  check Alcotest.bool "attacker's access point surfaces despite caching" true
    (List.exists (fun p -> not (List.mem p before)) after)

(* ---- keys compare scopes, not only their 63-bit hashes ---- *)

(* [dst_ip_hs] of host 3 on the default linear-4 deployment, and a
   cube with the same {!Hspace.Tern.hash}.  Every step of the hash's
   word mixer is invertible: packed words 5 and 6 (ip_dst, ip_proto
   and port bits) were replaced, word 5 at random and word 6 solved for
   the target hash, until word 6 encoded a valid cube. *)
let scope = Rvaas.Verifier.dst_ip_hs 0xa010002

let colliding_scope =
  Hspace.Hs.of_cube
    (Hspace.Tern.of_string
       (String.make 96 'x' ^ "0000000000010000" ^ String.make 43 'x'
       ^ "100x0x0x01xx1x0111x110x10x1xxx0x000010x010011xxx01001x1100111"
       ^ String.make 12 'x'))

let check_collision () =
  check Alcotest.bool "the pair collides" true
    (Hspace.Hs.hash scope = Hspace.Hs.hash colliding_scope
    && not (Hspace.Hs.equal scope colliding_scope))

(* The colliding scope asked first must not answer the real one, to
   which [Verifier.reach] from host 0 gives host 3. *)
let test_cache_scope_collision () =
  check_collision ();
  let s = build (Workload.Topogen.linear Workload.Topogen.default_params 4) in
  let src =
    List.find
      (fun (ep : Rvaas.Verifier.endpoint) -> ep.host = 0)
      (Rvaas.Verifier.access_points (Netsim.Net.topology s.net))
  in
  let ask hs =
    snd
      (Rvaas.Service.evaluate s.service ~client:0 ~sw:src.sw ~port:src.port
         (Rvaas.Query.make ~scope:hs Rvaas.Query.Reachable_endpoints))
    |> List.map (fun (ep : Rvaas.Verifier.endpoint) -> ep.host)
  in
  ignore (ask colliding_scope);
  check Alcotest.(list int) "cache does not serve the collision" [ 3 ] (ask scope)

(* Two tenants at one access point asking colliding scopes are two
   computations, not one. *)
let test_frontend_scope_collision () =
  check_collision ();
  let fe = Rvaas.Frontend.create (Rvaas.Frontend.coalescing ()) in
  List.iteri
    (fun client hs ->
      let q = Rvaas.Query.make ~scope:hs Rvaas.Query.Reachable_endpoints in
      let key = Rvaas.Frontend.key_of ~client ~sw:1 ~port:1 q in
      ignore (Rvaas.Frontend.submit fe ~key ~client ~sw:1 ~port:1 q ~waiter:()))
    [ colliding_scope; scope ];
  ignore (Rvaas.Frontend.flush fe);
  check Alcotest.int "two computations" 2 (Rvaas.Frontend.stats fe).Rvaas.Frontend.entries

let () =
  Alcotest.run "cache"
    [
      ( "reach-cache",
        [
          Alcotest.test_case "second-chance eviction" `Quick test_second_chance_eviction;
          Alcotest.test_case "delta eviction (unit)" `Quick test_delta_eviction_unit;
          Alcotest.test_case "clock queue stays bounded" `Quick test_clock_queue_bounded;
          Alcotest.test_case "delta invalidation end-to-end" `Quick
            test_delta_invalidation_end_to_end;
        ] );
      ( "service",
        [
          Alcotest.test_case "cache never masks an attack" `Quick
            test_cache_attack_detected;
        ] );
      ( "scope-collision",
        [
          Alcotest.test_case "reach cache" `Quick test_cache_scope_collision;
          Alcotest.test_case "front-end coalescing" `Quick test_frontend_scope_collision;
        ] );
    ]
