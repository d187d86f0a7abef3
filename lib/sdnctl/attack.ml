type t =
  | Join of { victim_client : int; attacker_host : int }
  | Divert of { src_host : int; dst_host : int; via_sw : int }
  | Exfiltrate of { victim_host : int; attacker_host : int }
  | Blackhole of { victim_host : int }
  | Meter_squeeze of { victim_host : int; rate_kbps : int }
  | Transient of { attack : t; start : float; duration : float }

let cookie = 0xBAD

let priority = 400

let meter_id = 0xBAD

let host_info_exn addressing host =
  match Addressing.host ~host addressing with
  | Some info -> info
  | None -> invalid_arg "Attack: unknown host"

let attachment_exn topo host =
  match Netsim.Topology.host_attachment topo host with
  | Some { Netsim.Topology.node = Netsim.Topology.Switch sw; port } -> (sw, port)
  | Some _ | None -> invalid_arg "Attack: host is not attached to a switch"

let ip_dst_match ?in_port ip =
  let m = Ofproto.Match_.any in
  let m = match in_port with None -> m | Some p -> Ofproto.Match_.with_in_port m p in
  let m = Ofproto.Match_.with_exact m Hspace.Field.Eth_type Hspace.Header.eth_type_ip in
  Ofproto.Match_.with_exact m Hspace.Field.Ip_dst ip

let add_flow ?meter match_ actions =
  let spec = Ofproto.Flow_entry.make_spec ~cookie ?meter ~priority match_ actions in
  Ofproto.Message.Flow_mod (Ofproto.Message.Add_flow spec)

(* Route action from [sw] towards [dst_host]'s attachment. *)
let towards topo sw dst_host =
  let dst_sw, dst_port = attachment_exn topo dst_host in
  if sw = dst_sw then Ofproto.Action.Output dst_port
  else
    match Netsim.Topology.next_hop_port topo ~from_sw:sw ~to_sw:dst_sw with
    | Some port -> Ofproto.Action.Output port
    | None -> invalid_arg "Attack: destination unreachable in wiring plan"

let join_mods net addressing ~victim_client ~attacker_host =
  let topo = Netsim.Net.topology net in
  let _, attacker_port = attachment_exn topo attacker_host in
  let attacker_sw, _ = attachment_exn topo attacker_host in
  List.map
    (fun (victim : Addressing.host_info) ->
      let match_ = ip_dst_match ~in_port:attacker_port victim.ip in
      (attacker_sw, add_flow match_ [ towards topo attacker_sw victim.host ]))
    (Addressing.hosts_of_client addressing ~client:victim_client)

let divert_mods net addressing ~src_host ~dst_host ~via_sw =
  let topo = Netsim.Net.topology net in
  let src_sw, _ = attachment_exn topo src_host in
  let dst_sw, dst_port = attachment_exn topo dst_host in
  let dst_info = host_info_exn addressing dst_host in
  let path_exn from_sw to_sw =
    match Netsim.Topology.shortest_switch_path topo ~from_sw ~to_sw with
    | Some p -> p
    | None -> invalid_arg "Attack.Divert: no path through the detour switch"
  in
  let first_leg = path_exn src_sw via_sw in
  (* The second leg must not revisit the first (except at the detour
     switch), or the per-destination rules would loop. *)
  let avoid = List.filter (fun sw -> sw <> via_sw) first_leg in
  let second_leg =
    match
      Netsim.Topology.shortest_switch_path_avoiding topo ~from_sw:via_sw ~to_sw:dst_sw
        ~avoid
    with
    | Some p -> p
    | None -> invalid_arg "Attack.Divert: no loop-free detour exists"
  in
  let detour =
    match second_leg with
    | [] -> first_leg
    | _ :: rest -> first_leg @ rest
  in
  let simple =
    List.length (List.sort_uniq compare detour) = List.length detour
  in
  if not simple then invalid_arg "Attack.Divert: detour is not loop-free";
  let rec hops acc = function
    | a :: (b :: _ as rest) ->
      let port =
        match Netsim.Topology.port_towards topo ~sw:a ~neighbor:b with
        | Some p -> p
        | None -> invalid_arg "Attack.Divert: detour uses unwired switches"
      in
      hops ((a, add_flow (ip_dst_match dst_info.ip) [ Ofproto.Action.Output port ]) :: acc) rest
    | [ last ] ->
      (last, add_flow (ip_dst_match dst_info.ip) [ Ofproto.Action.Output dst_port ]) :: acc
    | [] -> acc
  in
  List.rev (hops [] detour)

let exfiltrate_mods net addressing ~victim_host ~attacker_host =
  let topo = Netsim.Net.topology net in
  let victim = host_info_exn addressing victim_host
  and attacker = host_info_exn addressing attacker_host in
  let victim_sw, victim_port = attachment_exn topo victim_host in
  (* Duplicate to the victim as usual, then rewrite the destination so
     ordinary routing carries the copy to the attacker.  The copy's
     next hop may coincide with the packet's ingress port, where a
     plain Output is suppressed — so install one rule per ingress port
     and hairpin with IN_PORT when needed. *)
  let copy_towards_attacker ~in_port =
    match towards topo victim_sw attacker_host with
    | Ofproto.Action.Output p when p = in_port -> Ofproto.Action.In_port
    | action -> action
  in
  List.filter_map
    (fun in_port ->
      if in_port = victim_port then None
      else
        let actions =
          [
            Ofproto.Action.Output victim_port;
            Ofproto.Action.Set_field (Hspace.Field.Ip_dst, attacker.ip);
            copy_towards_attacker ~in_port;
          ]
        in
        Some (victim_sw, add_flow (ip_dst_match ~in_port victim.ip) actions))
    (Netsim.Topology.switch_ports topo victim_sw)

let blackhole_mods net addressing ~victim_host =
  let topo = Netsim.Net.topology net in
  let victim = host_info_exn addressing victim_host in
  let victim_sw, _ = attachment_exn topo victim_host in
  [ (victim_sw, add_flow (ip_dst_match victim.ip) []) ]

let meter_mods net addressing ~victim_host ~rate_kbps =
  let topo = Netsim.Net.topology net in
  let victim = host_info_exn addressing victim_host in
  let victim_sw, victim_port = attachment_exn topo victim_host in
  [
    (victim_sw, Ofproto.Message.Meter_mod { id = meter_id; band = Some { Ofproto.Meter.rate_kbps } });
    ( victim_sw,
      add_flow ~meter:meter_id (ip_dst_match victim.ip)
        [ Ofproto.Action.Output victim_port ] );
  ]

let rec mods net addressing = function
  | Join { victim_client; attacker_host } ->
    join_mods net addressing ~victim_client ~attacker_host
  | Divert { src_host; dst_host; via_sw } ->
    divert_mods net addressing ~src_host ~dst_host ~via_sw
  | Exfiltrate { victim_host; attacker_host } ->
    exfiltrate_mods net addressing ~victim_host ~attacker_host
  | Blackhole { victim_host } -> blackhole_mods net addressing ~victim_host
  | Meter_squeeze { victim_host; rate_kbps } ->
    meter_mods net addressing ~victim_host ~rate_kbps
  | Transient { attack; _ } -> mods net addressing attack

let retract_mods net touched =
  let switches = List.sort_uniq compare (List.map fst touched) in
  ignore net;
  List.concat_map
    (fun sw ->
      [
        (sw, Ofproto.Message.Flow_mod (Ofproto.Message.Delete_by_cookie cookie));
        (sw, Ofproto.Message.Meter_mod { id = meter_id; band = None });
      ])
    switches

let launch net addressing ~conn attack =
  match attack with
  | Transient { attack = inner; start; duration } ->
    let touched = mods net addressing inner in
    let sim = Netsim.Net.sim net in
    Netsim.Sim.schedule_at sim ~time:start (fun () ->
        List.iter (fun (sw, msg) -> Netsim.Net.send net conn ~sw msg) touched);
    Netsim.Sim.schedule_at sim ~time:(start +. duration) (fun () ->
        List.iter
          (fun (sw, msg) -> Netsim.Net.send net conn ~sw msg)
          (retract_mods net touched))
  | _ ->
    List.iter (fun (sw, msg) -> Netsim.Net.send net conn ~sw msg) (mods net addressing attack)

let rec describe = function
  | Join { victim_client; attacker_host } ->
    Printf.sprintf "join(victim_client=%d, attacker_host=%d)" victim_client attacker_host
  | Divert { src_host; dst_host; via_sw } ->
    Printf.sprintf "divert(h%d->h%d via s%d)" src_host dst_host via_sw
  | Exfiltrate { victim_host; attacker_host } ->
    Printf.sprintf "exfiltrate(h%d to h%d)" victim_host attacker_host
  | Blackhole { victim_host } -> Printf.sprintf "blackhole(h%d)" victim_host
  | Meter_squeeze { victim_host; rate_kbps } ->
    Printf.sprintf "meter_squeeze(h%d, %dkbps)" victim_host rate_kbps
  | Transient { attack; start; duration } ->
    Printf.sprintf "transient(%s, t=%.3f..%.3f)" (describe attack) start (start +. duration)
