(* Differential verification of the compiled plumbing engine.

   [Rvaas.Plumbing] must answer every reach question exactly as the
   per-query sweep does — same endpoints, arriving spaces, traversal
   and controller hits — on monitored deployments, on synthetic rule
   sets with field rewrites, and (the core property) on random
   topologies under random Flow-Mod sequences, where the incremental
   update path and a fresh compile must also agree with each other.
   The memo, the sweep and a fresh compile share one traversal
   ({!Rvaas.Verifier.trace_in}), so the independent oracle is
   [Rvaas.Verifier_ref], the naive textbook HSA formulation. *)

let check = Alcotest.check
let width = Hspace.Field.total_width

let results_agree (a : Rvaas.Verifier.reach_result)
    (b : Rvaas.Verifier.reach_result) =
  List.map fst a.endpoints = List.map fst b.endpoints
  && List.for_all2
       (fun (_, x) (_, y) -> Hspace.Hs.equal x y)
       a.endpoints b.endpoints
  && a.traversed = b.traversed
  && List.map fst a.controller_hits = List.map fst b.controller_hits
  && List.for_all2
       (fun (_, x) (_, y) -> Hspace.Hs.equal x y)
       a.controller_hits b.controller_hits

(* ---- compiled engine vs. sweep on a monitored deployment ---- *)

let test_compiled_matches_scenario () =
  let topo = Workload.Topogen.fat_tree Workload.Topogen.default_params ~k:4 in
  let s =
    Workload.Scenario.build
      { (Workload.Scenario.default_spec topo) with clients = 2; seed = 11 }
  in
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.2);
  let snapshot = Rvaas.Monitor.snapshot s.monitor in
  let flows_of sw = Rvaas.Snapshot.flows snapshot ~sw in
  let plumbing = Rvaas.Plumbing.compile ~flows_of topo in
  let points = Rvaas.Verifier.access_points topo in
  let info = Option.get (Sdnctl.Addressing.host s.addressing ~host:0) in
  List.iter
    (fun hs ->
      List.iter
        (fun (ep : Rvaas.Verifier.endpoint) ->
          let a =
            Rvaas.Plumbing.reach plumbing ~src_sw:ep.sw ~src_port:ep.port ~hs
          in
          let b =
            Rvaas.Verifier.reach ~flows_of topo ~src_sw:ep.sw ~src_port:ep.port
              ~hs
          in
          check Alcotest.bool "compiled equals sweep" true (results_agree a b))
        points)
    [ Rvaas.Verifier.ip_traffic_hs (); Rvaas.Verifier.dst_ip_hs info.ip ];
  let st = Rvaas.Plumbing.stats plumbing in
  check Alcotest.bool "scoped queries answered by lookup" true
    (st.Rvaas.Plumbing.scoped_lookups > 0);
  check Alcotest.int "no fallback sweeps on a rewrite-free view" 0
    st.Rvaas.Plumbing.fallback_sweeps;
  let g = Rvaas.Plumbing.graph plumbing in
  check Alcotest.bool "graph materialised" true (g.nodes > 0 && g.edges > 0)

(* ---- the service's `Compiled engine stays current via the monitor
   hook: after an attack lands, lookups still equal a fresh sweep of
   the believed view ---- *)

let test_service_compiled_engine () =
  let topo = Workload.Topogen.linear Workload.Topogen.default_params 4 in
  let s =
    Workload.Scenario.build
      {
        (Workload.Scenario.default_spec topo) with
        seed = 5;
        engine = `Compiled;
      }
  in
  let now () = Netsim.Sim.now (Netsim.Net.sim s.net) in
  Workload.Scenario.run s ~until:(now () +. 0.3);
  check Alcotest.bool "service reports the compiled engine" true
    (Rvaas.Service.engine s.service = `Compiled);
  let plumbing = Option.get (Rvaas.Service.plumbing s.service) in
  Sdnctl.Attack.launch s.net s.addressing
    ~conn:(Sdnctl.Provider.conn s.provider)
    (Sdnctl.Attack.Blackhole { victim_host = 2 });
  Workload.Scenario.run s ~until:(now () +. 0.3);
  let st = Rvaas.Plumbing.stats plumbing in
  check Alcotest.bool "monitor deltas reached the graph" true
    (st.Rvaas.Plumbing.updates > 0);
  let snapshot = Rvaas.Monitor.snapshot (Workload.Scenario.monitor s) in
  let flows_of sw = Rvaas.Snapshot.flows snapshot ~sw in
  List.iter
    (fun (ep : Rvaas.Verifier.endpoint) ->
      let a =
        Rvaas.Service.reach s.service ~src_sw:ep.sw ~src_port:ep.port
          ~hs:(Rvaas.Verifier.ip_traffic_hs ())
      in
      let b =
        Rvaas.Verifier.reach ~flows_of topo ~src_sw:ep.sw ~src_port:ep.port
          ~hs:(Rvaas.Verifier.ip_traffic_hs ())
      in
      check Alcotest.bool "post-attack lookup equals sweep" true
        (results_agree a b))
    (Rvaas.Verifier.access_points topo)

(* ---- field rewrites taint the precomputed source: scoped queries
   must fall back to exact propagation and still match the oracle ---- *)

let test_rewrite_fallback () =
  let topo = Workload.Topogen.linear Workload.Topogen.default_params 3 in
  let ip_match v =
    Ofproto.Match_.with_exact
      (Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Eth_type 0x800)
      Hspace.Field.Ip_dst v
  in
  let flows_of = function
    | 0 ->
      [
        Ofproto.Flow_entry.make_spec ~priority:10 (ip_match 7)
          [ Ofproto.Action.Set_field (Hspace.Field.Ip_dst, 5);
            Ofproto.Action.Flood;
          ];
      ]
    | _ ->
      [ Ofproto.Flow_entry.make_spec ~priority:10 (ip_match 5)
          [ Ofproto.Action.Flood ];
      ]
  in
  let plumbing = Rvaas.Plumbing.compile ~flows_of topo in
  List.iter
    (fun (ep : Rvaas.Verifier.endpoint) ->
      List.iter
        (fun hs ->
          let a =
            Rvaas.Plumbing.reach plumbing ~src_sw:ep.sw ~src_port:ep.port ~hs
          in
          let b =
            Rvaas.Verifier_ref.reach ~flows_of topo ~src_sw:ep.sw
              ~src_port:ep.port ~hs
          in
          check Alcotest.bool "rewriting source equals reference" true
            (results_agree a b))
        [ Rvaas.Verifier.dst_ip_hs 7; Rvaas.Verifier.dst_ip_hs 5 ])
    (Rvaas.Verifier.access_points topo);
  let st = Rvaas.Plumbing.stats plumbing in
  check Alcotest.bool "scoped queries on tainted sources fell back" true
    (st.Rvaas.Plumbing.fallback_sweeps > 0)

(* ---- differential churn: a random event program (rolling upgrades,
   link flaps, transient attacks) runs over a generated world while the
   service's compiled engine answers; after every burst the live memo
   must match the reference verifier, the sweep AND a fresh compile of
   the same believed view ---- *)

let differential_churn topo ~seed =
  let s =
    Workload.Scenario.build
      {
        (Workload.Scenario.default_spec topo) with
        clients = 2;
        seed;
        engine = `Compiled;
        polling = Rvaas.Monitor.Periodic 0.05;
      }
  in
  let now () = Netsim.Sim.now (Netsim.Net.sim s.net) in
  Workload.Scenario.run s ~until:(now () +. 0.3);
  let profile =
    {
      Workload.Churn.default_profile with
      upgrades_per_min = 12.0;
      flaps_per_min = 18.0;
      attacks_per_min = 12.0;
      storms_per_min = 0.0;
      upgrade_outage = 0.4;
      flap_down = 0.3;
      attack_dwell = 0.5;
    }
  in
  let start = now () +. 0.2 in
  let campaign = Workload.Churn.plan s profile ~seed ~start ~duration:12.0 in
  check Alcotest.bool "campaign not empty" true
    (Workload.Churn.event_count campaign > 0);
  let _report = Workload.Churn.schedule s campaign in
  let info = Option.get (Sdnctl.Addressing.host s.addressing ~host:0) in
  let scopes = [ Rvaas.Verifier.ip_traffic_hs (); Rvaas.Verifier.dst_ip_hs info.ip ] in
  let points = Rvaas.Verifier.access_points topo in
  for burst = 1 to 8 do
    Workload.Scenario.run s ~until:(start +. (float_of_int burst *. 1.5));
    let snapshot = Rvaas.Monitor.snapshot (Workload.Scenario.monitor s) in
    let flows_of sw = Rvaas.Snapshot.flows snapshot ~sw in
    let fresh = Rvaas.Plumbing.compile ~flows_of topo in
    List.iter
      (fun (ep : Rvaas.Verifier.endpoint) ->
        List.iter
          (fun hs ->
            let live =
              Rvaas.Service.reach (Workload.Scenario.service s) ~src_sw:ep.sw
                ~src_port:ep.port ~hs
            in
            let sweep =
              Rvaas.Verifier.reach ~flows_of topo ~src_sw:ep.sw
                ~src_port:ep.port ~hs
            in
            let recompiled =
              Rvaas.Plumbing.reach fresh ~src_sw:ep.sw ~src_port:ep.port ~hs
            in
            let reference =
              Rvaas.Verifier_ref.reach ~flows_of topo ~src_sw:ep.sw
                ~src_port:ep.port ~hs
            in
            check Alcotest.bool "compiled equals reference under churn" true
              (results_agree live reference);
            check Alcotest.bool "compiled equals sweep under churn" true
              (results_agree live sweep);
            check Alcotest.bool "incremental equals fresh compile under churn" true
              (results_agree live recompiled))
          scopes)
      points
  done

let test_differential_churn_leaf_spine () =
  differential_churn
    (Workload.Topogen.leaf_spine Workload.Topogen.default_params ~spines:2
       ~leaves:4)
    ~seed:41

let test_differential_churn_backbone () =
  differential_churn
    (Workload.Topogen.scale_free Workload.Topogen.default_params
       (Support.Rng.create 8) ~n:8 ~m:2)
    ~seed:42

(* ---- the core property: width-8 brute-force differential against
   the reference verifier over random topologies and random Flow-Mod
   sequences ---- *)

(* Abstract rule descriptor, materialised once the topology (and so
   the port list) is known.  Matches vary ~8 header bits — Ip_dst low
   nibble under a random mask, Tp_dst low two bits, sometimes the
   ingress port — which keeps the brute-forceable space small while
   exercising shadowing, rewrites and every action shape. *)
type rule_d = {
  rd_prio : int;
  rd_in_port : int option;
  rd_dst_mask : int;
  rd_dst_val : int;
  rd_tp : int option;
  rd_act : int;
  rd_port : int;
  rd_set : int;
}

let materialise ~ports rd =
  let nth k = List.nth ports (k mod List.length ports) in
  let m =
    Ofproto.Match_.with_exact Ofproto.Match_.any Hspace.Field.Eth_type 0x800
  in
  let m =
    match rd.rd_in_port with
    | Some k -> Ofproto.Match_.with_in_port m (nth k)
    | None -> m
  in
  let m =
    if rd.rd_dst_mask = 0 then m
    else
      Ofproto.Match_.with_field m Hspace.Field.Ip_dst
        ~value:(rd.rd_dst_val land rd.rd_dst_mask)
        ~mask:rd.rd_dst_mask
  in
  let m =
    match rd.rd_tp with
    | Some v -> Ofproto.Match_.with_exact m Hspace.Field.Tp_dst (v mod 4)
    | None -> m
  in
  let actions =
    match rd.rd_act mod 6 with
    | 0 -> [ Ofproto.Action.Output (nth rd.rd_port) ]
    | 1 -> [ Ofproto.Action.Flood ]
    | 2 -> [ Ofproto.Action.To_controller ]
    | 3 ->
      [
        Ofproto.Action.Set_field (Hspace.Field.Ip_dst, rd.rd_set land 15);
        Ofproto.Action.Output (nth rd.rd_port);
      ]
    | 4 -> []
    | _ -> [ Ofproto.Action.In_port ]
  in
  Ofproto.Flow_entry.make_spec ~cookie:1 ~priority:rd.rd_prio m actions

let gen_rule =
  QCheck2.Gen.(
    map
      (fun ((prio, in_port, mask, v), (tp, act, port, set)) ->
        {
          rd_prio = prio;
          rd_in_port = in_port;
          rd_dst_mask = mask;
          rd_dst_val = v;
          rd_tp = tp;
          rd_act = act;
          rd_port = port;
          rd_set = set;
        })
      (pair
         (quad (int_range 1 99) (option (int_bound 3)) (int_bound 15)
            (int_bound 15))
         (quad (option (int_bound 3)) (int_bound 5) (int_bound 7) (int_bound 15))))

(* A case: topology selector, a pool of per-switch rule lists, a
   Flow-Mod sequence (switch selector, insert-or-remove, new rule) and
   a destination address for the scoped query. *)
let gen_case =
  QCheck2.Gen.(
    quad (int_bound 4)
      (list_repeat 10 (list_size (int_bound 4) gen_rule))
      (list_size (int_bound 6) (triple (int_bound 7) (int_bound 1) gen_rule))
      (int_bound 15))

let prop_compiled_equals_reference =
  QCheck2.Test.make ~count:30
    ~name:"compiled reach = reference reach under random Flow-Mod sequences"
    gen_case
    (fun (t_sel, rule_pool, mods, dst) ->
      let p = Workload.Topogen.default_params in
      let topo =
        match t_sel mod 5 with
        | 0 -> Workload.Topogen.linear p 2
        | 1 -> Workload.Topogen.linear p 4
        | 2 -> Workload.Topogen.ring p 3
        | 3 -> Workload.Topogen.grid p ~rows:2 ~cols:2
        | _ -> Workload.Topogen.star p 3
      in
      let switches = Netsim.Topology.switches topo in
      let tables : (int, Ofproto.Flow_entry.spec list) Hashtbl.t =
        Hashtbl.create 8
      in
      List.iteri
        (fun i sw ->
          let ports = Netsim.Topology.switch_ports topo sw in
          let rules =
            List.map (materialise ~ports) (List.nth rule_pool (i mod 10))
          in
          Hashtbl.replace tables sw
            (List.sort
               (fun (a : Ofproto.Flow_entry.spec) (b : Ofproto.Flow_entry.spec)
                  -> compare b.priority a.priority)
               rules))
        switches;
      let flows_of sw =
        Option.value ~default:[] (Hashtbl.find_opt tables sw)
      in
      let plumbing = Rvaas.Plumbing.compile ~flows_of topo in
      let points = Rvaas.Verifier.access_points topo in
      let scopes hs_dst =
        [
          Hspace.Hs.full width;
          Rvaas.Verifier.ip_traffic_hs ();
          Rvaas.Verifier.dst_ip_hs hs_dst;
        ]
      in
      let agree plumbing =
        List.for_all
          (fun (ep : Rvaas.Verifier.endpoint) ->
            List.for_all
              (fun hs ->
                results_agree
                  (Rvaas.Plumbing.reach plumbing ~src_sw:ep.sw
                     ~src_port:ep.port ~hs)
                  (Rvaas.Verifier_ref.reach ~flows_of topo ~src_sw:ep.sw
                     ~src_port:ep.port ~hs))
              (scopes dst))
          points
      in
      agree plumbing
      && List.for_all
           (fun (sw_sel, kind, rd) ->
             let sw = List.nth switches (sw_sel mod List.length switches) in
             let ports = Netsim.Topology.switch_ports topo sw in
             (match (kind, Hashtbl.find_opt tables sw) with
             | 1, Some (_ :: rest) -> Hashtbl.replace tables sw rest
             | _, prev ->
               (* Insert keeping the priority-descending invariant
                  (new rule after existing equal priorities, matching
                  a real table's insertion order). *)
               let spec = materialise ~ports rd in
               let higher, lower =
                 List.partition
                   (fun (r : Ofproto.Flow_entry.spec) ->
                     r.priority >= spec.priority)
                   (Option.value ~default:[] prev)
               in
               Hashtbl.replace tables sw (higher @ (spec :: lower)));
             Rvaas.Plumbing.update plumbing ~sw;
             agree plumbing)
           mods
      &&
      (* The incrementally maintained memo and a fresh compile agree
         on every question. *)
      let fresh = Rvaas.Plumbing.compile ~flows_of topo in
      List.for_all
        (fun (ep : Rvaas.Verifier.endpoint) ->
          List.for_all
            (fun hs ->
              results_agree
                (Rvaas.Plumbing.reach plumbing ~src_sw:ep.sw ~src_port:ep.port
                   ~hs)
                (Rvaas.Plumbing.reach fresh ~src_sw:ep.sw ~src_port:ep.port
                   ~hs))
            (scopes dst))
        points)

let () =
  Alcotest.run "plumbing"
    [
      ( "differential",
        [
          Alcotest.test_case "compiled equals sweep on a deployment" `Quick
            test_compiled_matches_scenario;
          Alcotest.test_case "rewriting sources fall back exactly" `Quick
            test_rewrite_fallback;
          QCheck_alcotest.to_alcotest prop_compiled_equals_reference;
          Alcotest.test_case "churn over a leaf-spine fabric" `Quick
            test_differential_churn_leaf_spine;
          Alcotest.test_case "churn over a scale-free backbone" `Quick
            test_differential_churn_backbone;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "service compiled engine stays current" `Quick
            test_service_compiled_engine;
        ] );
    ]
