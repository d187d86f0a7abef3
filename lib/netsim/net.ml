type drop_reason = No_rule | Meter_limited | Loop_guard | Unwired_port

type stats = {
  mutable delivered : int;
  mutable dropped_no_rule : int;
  mutable dropped_meter : int;
  mutable dropped_loop : int;
  mutable dropped_unwired : int;
  mutable packet_ins : int;
  mutable flow_mods : int;
  mutable ctrl_faults_lost : int;
  mutable ctrl_faults_duplicated : int;
  mutable link_faults_lost : int;
  mutable link_faults_duplicated : int;
  mutable session_drops : int;
}

type conn = {
  name : string;
  delay : float;
  loss_prob : float;
  faults : Faults.t;
  mutable handler : Ofproto.Message.to_controller -> unit;
  mutable up : bool; (* session alive?  down = crash or partition *)
  mutable sessions : int; (* establishments: 1 + reconnect count *)
  (* Membership sets, not lists: a single controller attaches every
     switch of a generated world, and attach/send/monitor checks run
     per message. *)
  switches : (int, unit) Hashtbl.t;
  monitored : (int, unit) Hashtbl.t;
  mutable tx : int; (* controller -> switch messages sent *)
  mutable rx : int; (* switch -> controller messages delivered *)
  mutable lost : int;
}

type switch_state = {
  sw_id : int;
  flow_table : Ofproto.Flow_table.t;
  meter_table : Ofproto.Meter.t;
  ports : int list;
}

type t = {
  sim : Sim.t;
  topo : Topology.t;
  switch_states : (int, switch_state) Hashtbl.t;
  host_receivers : (int, Packet.t -> unit) Hashtbl.t;
  stats : stats;
  mutable conns : conn list;
  mutable drop_observers : (sw:int -> reason:drop_reason -> Packet.t -> unit) list;
  loss_rng : Support.Rng.t;
  link_faults : (Topology.endpoint, Faults.t) Hashtbl.t;
  mutable default_link_faults : Faults.t;
}

let sim t = t.sim

let topology t = t.topo

let stats t = t.stats

let switch_state t sw =
  match Hashtbl.find_opt t.switch_states sw with
  | Some s -> s
  | None -> raise Not_found

let table t ~sw = (switch_state t sw).flow_table

let meters t ~sw = (switch_state t sw).meter_table

let set_host_receiver t ~host f = Hashtbl.replace t.host_receivers host f

let on_drop t f = t.drop_observers <- f :: t.drop_observers

let record_drop t ~sw ~reason packet =
  (match reason with
  | No_rule -> t.stats.dropped_no_rule <- t.stats.dropped_no_rule + 1
  | Meter_limited -> t.stats.dropped_meter <- t.stats.dropped_meter + 1
  | Loop_guard -> t.stats.dropped_loop <- t.stats.dropped_loop + 1
  | Unwired_port -> t.stats.dropped_unwired <- t.stats.dropped_unwired + 1);
  List.iter (fun f -> f ~sw ~reason packet) t.drop_observers

(* Plan the copies of a controller-connection message under the
   connection's fault config; update the injected-fault counters. *)
let ctrl_copies t conn =
  let copies = Faults.plan conn.faults t.loss_rng in
  (match copies with
  | [] ->
    t.stats.ctrl_faults_lost <- t.stats.ctrl_faults_lost + 1;
    conn.lost <- conn.lost + 1
  | [ _ ] -> ()
  | _ :: extras ->
    t.stats.ctrl_faults_duplicated <- t.stats.ctrl_faults_duplicated + List.length extras);
  copies

(* Deliver a switch->controller message.  Two loss models compose:

   - [loss_prob] (legacy) applies only to fire-and-forget flow-monitor
     events — request/response exchanges are retried by any real
     controller stack and are modelled as reliable by default;
   - [faults] applies uniformly to {e every} message in both
     directions: the degraded-channel regime the retry layers of the
     protocol are built against. *)
let session_drop t conn =
  conn.lost <- conn.lost + 1;
  t.stats.session_drops <- t.stats.session_drops + 1

let to_controller t conn msg =
  let lossy = match msg with Ofproto.Message.Monitor _ -> true | _ -> false in
  if not conn.up then session_drop t conn
  else if lossy && conn.loss_prob > 0.0 && Support.Rng.bernoulli t.loss_rng conn.loss_prob
  then conn.lost <- conn.lost + 1
  else
    List.iter
      (fun extra ->
        Sim.schedule t.sim ~delay:(conn.delay +. extra) (fun () ->
            (* Checked again on delivery: messages in flight when the
               session drops are lost with it. *)
            if not conn.up then session_drop t conn
            else begin
              conn.rx <- conn.rx + 1;
              conn.handler msg
            end))
      (ctrl_copies t conn)

let monitoring_conns t sw =
  List.filter (fun c -> Hashtbl.mem c.monitored sw) t.conns

let attached_conns t sw =
  List.filter (fun c -> Hashtbl.mem c.switches sw) t.conns

(* Per-switch processing latency: lookup + action execution. *)
let switch_latency = 1e-6

let rec arrive_at_switch t sw in_port packet =
  let state = switch_state t sw in
  if packet.Packet.hops >= Packet.max_hops then record_drop t ~sw ~reason:Loop_guard packet
  else
    match Ofproto.Flow_table.lookup state.flow_table ~in_port packet.Packet.header with
    | None -> record_drop t ~sw ~reason:No_rule packet
    | Some entry ->
      let metered_out =
        match entry.Ofproto.Flow_entry.spec.meter with
        | None -> false
        | Some id ->
          not
            (Ofproto.Meter.allows state.meter_table ~id ~now:(Sim.now t.sim)
               ~bytes:packet.Packet.size_bytes)
      in
      if metered_out then record_drop t ~sw ~reason:Meter_limited packet
      else begin
        Ofproto.Flow_entry.account entry ~bytes:packet.Packet.size_bytes;
        let applied =
          Ofproto.Action.apply ~ports:state.ports ~in_port packet.Packet.header
            entry.Ofproto.Flow_entry.spec.actions
        in
        (match applied.Ofproto.Action.to_controller with
        | None -> ()
        | Some header ->
          t.stats.packet_ins <- t.stats.packet_ins + 1;
          let msg =
            Ofproto.Message.Packet_in
              {
                sw;
                in_port;
                reason = Ofproto.Message.Action_to_controller;
                header;
                payload = packet.Packet.payload;
              }
          in
          List.iter (fun conn -> to_controller t conn msg) (attached_conns t sw));
        List.iter
          (fun (out_port, header) -> transmit t sw out_port (Packet.hop packet ~header))
          applied.Ofproto.Action.outputs
      end

and link_copies t here =
  let faults =
    match Hashtbl.find_opt t.link_faults here with
    | Some f -> f
    | None -> t.default_link_faults
  in
  let copies = Faults.plan faults t.loss_rng in
  (match copies with
  | [] -> t.stats.link_faults_lost <- t.stats.link_faults_lost + 1
  | [ _ ] -> ()
  | _ :: extras ->
    t.stats.link_faults_duplicated <- t.stats.link_faults_duplicated + List.length extras);
  copies

and transmit t sw out_port packet =
  let here = Topology.{ node = Switch sw; port = out_port } in
  match Topology.peer t.topo here, Topology.link_delay t.topo here with
  | Some far, Some delay ->
    List.iter
      (fun extra ->
        Sim.schedule t.sim
          ~delay:(delay +. switch_latency +. extra)
          (fun () ->
            match far.Topology.node with
            | Topology.Switch next_sw ->
              arrive_at_switch t next_sw far.Topology.port packet
            | Topology.Host host -> deliver_to_host t host packet))
      (link_copies t here)
  | _ -> record_drop t ~sw ~reason:Unwired_port packet

and deliver_to_host t host packet =
  t.stats.delivered <- t.stats.delivered + 1;
  match Hashtbl.find_opt t.host_receivers host with
  | Some f -> f packet
  | None -> ()

let host_send t ~host packet =
  match Topology.host_attachment t.topo host with
  | None -> invalid_arg "Net.host_send: host is not attached to a switch"
  | Some attachment ->
    let here = Topology.{ node = Host host; port = 0 } in
    let delay = Option.value ~default:0.0 (Topology.link_delay t.topo here) in
    (match attachment.Topology.node with
    | Topology.Switch sw ->
      List.iter
        (fun extra ->
          Sim.schedule t.sim ~delay:(delay +. extra) (fun () ->
              arrive_at_switch t sw attachment.Topology.port packet))
        (link_copies t here)
    | Topology.Host _ -> invalid_arg "Net.host_send: host wired to a host")

(* Schedule hard-timeout expiry sweeps when flows with timeouts are
   installed. *)
let schedule_expiry t sw (spec : Ofproto.Flow_entry.spec) =
  match spec.hard_timeout with
  | None -> ()
  | Some timeout ->
    Sim.schedule t.sim ~delay:(timeout +. 1e-9) (fun () ->
        let state = switch_state t sw in
        let expired = Ofproto.Flow_table.expire state.flow_table ~now:(Sim.now t.sim) in
        List.iter
          (fun spec ->
            let msg = Ofproto.Message.Flow_removed { sw; spec; reason = `Hard_timeout } in
            List.iter (fun conn -> to_controller t conn msg) (attached_conns t sw))
          expired)

let apply_to_switch t conn sw (msg : Ofproto.Message.to_switch) =
  let state = switch_state t sw in
  match msg with
  | Ofproto.Message.Flow_mod fm ->
    t.stats.flow_mods <- t.stats.flow_mods + 1;
    (match fm with
    | Ofproto.Message.Add_flow spec ->
      Ofproto.Flow_table.add state.flow_table spec ~now:(Sim.now t.sim);
      schedule_expiry t sw spec
    | Ofproto.Message.Delete_flow { match_; priority } ->
      ignore (Ofproto.Flow_table.delete state.flow_table ~match_ ?priority ())
    | Ofproto.Message.Delete_by_cookie cookie ->
      ignore (Ofproto.Flow_table.delete_by_cookie state.flow_table cookie))
  | Ofproto.Message.Meter_mod { id; band } ->
    (match band with
    | Some b -> Ofproto.Meter.set state.meter_table ~id b
    | None -> ignore (Ofproto.Meter.remove state.meter_table ~id))
  | Ofproto.Message.Packet_out { port; header; payload } ->
    let packet = Packet.make ~header payload in
    transmit t sw port packet
  | Ofproto.Message.Flow_stats_request { xid } ->
    let flows = Ofproto.Flow_table.specs state.flow_table in
    to_controller t conn (Ofproto.Message.Flow_stats_reply { sw; xid; flows })
  | Ofproto.Message.Meter_stats_request { xid } ->
    let meter_list = Ofproto.Meter.to_list state.meter_table in
    to_controller t conn (Ofproto.Message.Meter_stats_reply { sw; xid; meters = meter_list })
  | Ofproto.Message.Echo_request { xid } ->
    to_controller t conn (Ofproto.Message.Echo_reply { sw; xid })
  | Ofproto.Message.Barrier_request { xid } ->
    to_controller t conn (Ofproto.Message.Barrier_reply { sw; xid })

let register_controller t ~name ~delay ?(loss_prob = 0.0) ?(faults = Faults.none) () =
  if loss_prob < 0.0 || loss_prob > 1.0 then
    invalid_arg "Net.register_controller: loss_prob out of range";
  let conn =
    {
      name;
      delay;
      loss_prob;
      faults;
      handler = (fun _ -> ());
      up = true;
      sessions = 1;
      switches = Hashtbl.create 64;
      monitored = Hashtbl.create 64;
      tx = 0;
      rx = 0;
      lost = 0;
    }
  in
  t.conns <- conn :: t.conns;
  conn

let set_handler conn f = conn.handler <- f

let attach t conn ~sw ~monitor =
  ignore (switch_state t sw);
  Hashtbl.replace conn.switches sw ();
  if monitor then Hashtbl.replace conn.monitored sw ()

let attached _t conn =
  List.sort compare (Hashtbl.fold (fun sw () acc -> sw :: acc) conn.switches [])

let send t conn ~sw msg =
  if not (Hashtbl.mem conn.switches sw) then
    invalid_arg "Net.send: connection not attached to switch";
  conn.tx <- conn.tx + 1;
  if not conn.up then session_drop t conn
  else
    List.iter
      (fun extra ->
        Sim.schedule t.sim ~delay:(conn.delay +. extra) (fun () ->
            if not conn.up then session_drop t conn
            else apply_to_switch t conn sw msg))
      (ctrl_copies t conn)

(* Session teardown/re-establishment.  [disconnect] models a controller
   crash or control-channel partition: the session stays registered (so
   counters and attachment lists survive) but every message in either
   direction — including those already in flight — is dropped until
   [reconnect].  Switch state is untouched: flow tables keep forwarding
   (OpenFlow fail-standalone mode), which is exactly why a recovering
   controller must resynchronise from its journal rather than assume a
   blank network. *)
let disconnect _t conn = conn.up <- false

let reconnect _t conn =
  if not conn.up then begin
    conn.up <- true;
    conn.sessions <- conn.sessions + 1
  end

let conn_up conn = conn.up

let conn_sessions conn = conn.sessions

let set_link_faults t endpoint faults = Hashtbl.replace t.link_faults endpoint faults

(* A per-endpoint entry overrides [default_link_faults] entirely, so
   restoring a flapped link must remove the entry rather than set it
   to [Faults.none]. *)
let clear_link_faults t endpoint = Hashtbl.remove t.link_faults endpoint

let set_default_link_faults t faults = t.default_link_faults <- faults

let conn_name conn = conn.name

let conn_tx conn = conn.tx

let conn_rx conn = conn.rx

let conn_lost conn = conn.lost

let create ~seed topo =
  let sim = Sim.create ~seed ()
  and switch_states = Hashtbl.create 32 in
  let t =
    {
      sim;
      topo;
      switch_states;
      host_receivers = Hashtbl.create 32;
      stats =
        {
          delivered = 0;
          dropped_no_rule = 0;
          dropped_meter = 0;
          dropped_loop = 0;
          dropped_unwired = 0;
          packet_ins = 0;
          flow_mods = 0;
          ctrl_faults_lost = 0;
          ctrl_faults_duplicated = 0;
          link_faults_lost = 0;
          link_faults_duplicated = 0;
          session_drops = 0;
        };
      conns = [];
      drop_observers = [];
      loss_rng = Support.Rng.create (seed lxor 0x10557);
      link_faults = Hashtbl.create 16;
      default_link_faults = Faults.none;
    }
  in
  List.iter
    (fun sw_id ->
      let flow_table = Ofproto.Flow_table.create ()
      and meter_table = Ofproto.Meter.create () in
      let state = { sw_id; flow_table; meter_table; ports = Topology.switch_ports topo sw_id } in
      (* Flow-monitor events: every table mutation notifies monitoring
         connections, as the OpenFlow add-flow-monitor facility does. *)
      Ofproto.Flow_table.on_change flow_table (fun change ->
          let event =
            match change with
            | Ofproto.Flow_table.Added spec -> Ofproto.Message.Flow_added spec
            | Ofproto.Flow_table.Removed (spec, _) -> Ofproto.Message.Flow_deleted spec
            | Ofproto.Flow_table.Modified spec -> Ofproto.Message.Flow_modified spec
          in
          let msg = Ofproto.Message.Monitor { sw = state.sw_id; event } in
          List.iter (fun conn -> to_controller t conn msg) (monitoring_conns t state.sw_id));
      Hashtbl.replace switch_states sw_id state)
    (Topology.switches topo);
  t
