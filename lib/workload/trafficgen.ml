type flow = {
  src_host : int;
  dst_host : int;
  rate_pps : float;
  size_bytes : int;
  start : float;
  duration : float;
}

type report = { flow : flow; sent : int; delivered : int }

let make_flow (s : Scenario.t) ~src_host ~dst_host ~rate_pps ~size_bytes ~start
    ~duration =
  (match Sdnctl.Addressing.host s.addressing ~host:src_host with
  | None -> invalid_arg "Trafficgen.make_flow: unknown source host"
  | Some _ -> ());
  (match Sdnctl.Addressing.host s.addressing ~host:dst_host with
  | None -> invalid_arg "Trafficgen.make_flow: unknown destination host"
  | Some _ -> ());
  if rate_pps <= 0.0 then invalid_arg "Trafficgen.make_flow: rate must be positive";
  { src_host; dst_host; rate_pps; size_bytes; start; duration }

(* Flows are tagged with a unique source port so receivers can count
   them apart; the base avoids the protocol's magic ports. *)
let flow_port index = 40000 + index

let run (s : Scenario.t) flows ~until =
  let sim = Netsim.Net.sim s.net in
  let sent = Array.make (List.length flows) 0 in
  let delivered = Array.make (List.length flows) 0 in
  (* Count arrivals by flow tag at each destination host. *)
  let by_port = Hashtbl.create 16 in
  List.iteri (fun i flow -> Hashtbl.replace by_port (flow_port i) (i, flow.dst_host)) flows;
  let hosts = List.sort_uniq compare (List.map (fun f -> f.dst_host) flows) in
  List.iter
    (fun host ->
      Netsim.Net.set_host_receiver s.net ~host (fun packet ->
          let port = Hspace.Header.get packet.Netsim.Packet.header Hspace.Field.Tp_src in
          match Hashtbl.find_opt by_port port with
          | Some (i, dst) when dst = host -> delivered.(i) <- delivered.(i) + 1
          | Some _ | None -> ()))
    hosts;
  List.iteri
    (fun i flow ->
      let src = Option.get (Sdnctl.Addressing.host s.addressing ~host:flow.src_host) in
      let dst = Option.get (Sdnctl.Addressing.host s.addressing ~host:flow.dst_host) in
      let header =
        Hspace.Header.udp ~src_ip:src.ip ~dst_ip:dst.ip ~src_port:(flow_port i)
          ~dst_port:9
      in
      let gap = 1.0 /. flow.rate_pps in
      let count = int_of_float (flow.duration /. gap) in
      for k = 0 to count - 1 do
        Netsim.Sim.schedule_at sim
          ~time:(flow.start +. (float_of_int k *. gap))
          (fun () ->
            sent.(i) <- sent.(i) + 1;
            Netsim.Net.host_send s.net ~host:flow.src_host
              (Netsim.Packet.make ~size_bytes:flow.size_bytes ~header "traffic"))
      done)
    flows;
  Scenario.run s ~until;
  List.mapi (fun i flow -> { flow; sent = sent.(i); delivered = delivered.(i) }) flows

let goodput_kbps r =
  if r.flow.duration <= 0.0 then 0.0
  else
    float_of_int (r.delivered * r.flow.size_bytes * 8) /. 1000.0 /. r.flow.duration
