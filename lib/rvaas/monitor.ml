type polling =
  | No_polling
  | Periodic of float
  | Randomized of float

type observation =
  | Event of Ofproto.Message.monitor_event
  | Poll of { flows : int; digest : int64 }
  | Removed of Ofproto.Flow_entry.spec

type history_entry = { at : float; sw : int; what : observation }

type probe_report = {
  probes_sent : int;
  confirmed : int;
  misdelivered : (int * int * int * int) list;
  missing : (int * int) list;
}

(* One in-flight wiring verification. *)
type wiring_run = {
  pending : (string, int * int) Hashtbl.t; (* nonce -> origin (sw, port) *)
  mutable run_confirmed : int;
  mutable run_misdelivered : (int * int * int * int) list;
  probes_sent : int;
}

(* One outstanding stats request, keyed by xid in [t.outstanding]. *)
type poll_track = { poll_sw : int; poll_kind : [ `Flow | `Meter ]; poll_attempt : int }

type t = {
  net : Netsim.Net.t;
  conn : Netsim.Net.conn;
  snapshot : Snapshot.t;
  journal : Journal.t option;
  history : history_entry Support.Ring.t;
  polling : polling;
  poll_retry : float option;
  rng : Support.Rng.t;
  mutable packet_in_handler :
    sw:int -> in_port:int -> header:Hspace.Header.t -> payload:string -> unit;
  mutable polls_sent : int;
  mutable events_seen : int;
  mutable next_xid : int;
  outstanding : (int, poll_track) Hashtbl.t;
  mutable poll_retries : int;
  mutable polling_active : bool;
  mutable wiring : wiring_run option;
  mutable observation_hooks : (sw:int -> observation -> changed:bool -> unit) list;
}

(* Retransmission budget per stats request (first send included). *)
let max_poll_attempts = 3

let now t = Netsim.Sim.now (Netsim.Net.sim t.net)

(* Every snapshot mutation is journalled before recovery can need it;
   the journal itself decides when to image a checkpoint. *)
let journal_record t record =
  match t.journal with
  | None -> ()
  | Some j -> Journal.append j ~at:(now t) ~snapshot:t.snapshot record

(* A wiring probe surfaced at (sw, in_port): check it against the plan. *)
let handle_probe t ~sw ~in_port ~payload =
  match t.wiring with
  | None -> ()
  | Some run -> (
    match String.split_on_char ':' payload with
    | [ "lldp"; nonce ] -> (
      match Hashtbl.find_opt run.pending nonce with
      | None -> ()
      | Some (origin_sw, origin_port) ->
        Hashtbl.remove run.pending nonce;
        let expected =
          Netsim.Topology.peer
            (Netsim.Net.topology t.net)
            { Netsim.Topology.node = Netsim.Topology.Switch origin_sw; port = origin_port }
        in
        let matches =
          match expected with
          | Some { Netsim.Topology.node = Netsim.Topology.Switch esw; port = eport } ->
            esw = sw && eport = in_port
          | Some _ | None -> false
        in
        if matches then run.run_confirmed <- run.run_confirmed + 1
        else
          run.run_misdelivered <-
            (origin_sw, origin_port, sw, in_port) :: run.run_misdelivered)
    | _ -> ())

(* One observation of [sw], after the snapshot took it in: history,
   journal, then the hooks.  Hooks fire on every observation, with
   [changed] telling listeners whether the believed table actually
   differs (digest comparison around the mutation).  Unchanged
   observations — e.g. a poll confirming the current view — must still
   fire: the service's intercept repair is poll-driven and has to run
   even when nothing changed, while cache invalidation keys off
   [changed]. *)
let observed t ~sw ~before what record =
  let changed = not (Int64.equal (Snapshot.switch_digest t.snapshot ~sw) before) in
  Support.Ring.push t.history { at = now t; sw; what };
  journal_record t record;
  List.iter (fun f -> f ~sw what ~changed) t.observation_hooks

let handle_message t (msg : Ofproto.Message.to_controller) =
  match msg with
  | Ofproto.Message.Monitor { sw; event } ->
    t.events_seen <- t.events_seen + 1;
    let before = Snapshot.switch_digest t.snapshot ~sw in
    Snapshot.apply_event t.snapshot ~sw ~now:(now t) event;
    observed t ~sw ~before (Event event) (Journal.Observation { sw; event })
  | Ofproto.Message.Flow_removed { sw; spec; _ } ->
    let before = Snapshot.switch_digest t.snapshot ~sw in
    Snapshot.apply_flow_removed t.snapshot ~sw ~now:(now t) spec;
    observed t ~sw ~before (Removed spec)
      (Journal.Observation { sw; event = Ofproto.Message.Flow_deleted spec })
  | Ofproto.Message.Flow_stats_reply { sw; xid; flows } ->
    Hashtbl.remove t.outstanding xid;
    let before = Snapshot.switch_digest t.snapshot ~sw in
    Snapshot.replace_flows t.snapshot ~sw ~now:(now t) flows;
    observed t ~sw ~before
      (Poll { flows = List.length flows; digest = Snapshot.switch_digest t.snapshot ~sw })
      (Journal.Flows_polled { sw; flows })
  | Ofproto.Message.Meter_stats_reply { sw; xid; meters } ->
    Hashtbl.remove t.outstanding xid;
    Snapshot.replace_meters t.snapshot ~sw meters;
    journal_record t (Journal.Meters_polled { sw; meters })
  | Ofproto.Message.Packet_in { sw; in_port; header; payload; _ } ->
    let dst_port = Hspace.Header.get header Hspace.Field.Tp_dst in
    if dst_port = Wire.lldp_port then handle_probe t ~sw ~in_port ~payload
    else t.packet_in_handler ~sw ~in_port ~header ~payload
  | Ofproto.Message.Echo_reply _ | Ofproto.Message.Barrier_reply _
  | Ofproto.Message.Error _ ->
    ()

(* Send one stats request under a fresh xid, tracked in [t.outstanding]
   until its reply arrives.  With [poll_retry = Some deadline], an
   unanswered request is re-sent (again under a fresh xid) up to
   [max_poll_attempts] total attempts — the recovery path for stats
   exchanges lost on a faulty control channel. *)
let rec send_stats_request t ~sw ~kind ~attempt =
  t.next_xid <- t.next_xid + 1;
  let xid = t.next_xid in
  Hashtbl.replace t.outstanding xid { poll_sw = sw; poll_kind = kind; poll_attempt = attempt };
  let msg =
    match kind with
    | `Flow -> Ofproto.Message.Flow_stats_request { xid }
    | `Meter -> Ofproto.Message.Meter_stats_request { xid }
  in
  Netsim.Net.send t.net t.conn ~sw msg;
  match t.poll_retry with
  | None -> ()
  | Some deadline ->
    Netsim.Sim.schedule (Netsim.Net.sim t.net) ~delay:deadline (fun () ->
        if Hashtbl.mem t.outstanding xid then begin
          Hashtbl.remove t.outstanding xid;
          if attempt + 1 < max_poll_attempts then begin
            t.poll_retries <- t.poll_retries + 1;
            send_stats_request t ~sw ~kind ~attempt:(attempt + 1)
          end
        end)

let poll_all t =
  List.iter
    (fun sw ->
      t.polls_sent <- t.polls_sent + 1;
      (* Each message of a sweep under its own xid: a retry of one must
         not be satisfied (or cancelled) by the reply to the other. *)
      send_stats_request t ~sw ~kind:`Flow ~attempt:0;
      send_stats_request t ~sw ~kind:`Meter ~attempt:0)
    (Netsim.Topology.switches (Netsim.Net.topology t.net))

let next_gap t =
  match t.polling with
  | No_polling -> None
  | Periodic period -> Some period
  | Randomized mean -> Some (Support.Rng.exponential t.rng ~mean)

let rec schedule_poll t =
  match next_gap t with
  | None -> ()
  | Some gap ->
    Netsim.Sim.schedule (Netsim.Net.sim t.net) ~delay:gap (fun () ->
        if t.polling_active then begin
          poll_all t;
          schedule_poll t
        end)

let create net ~conn_delay ?(loss_prob = 0.0) ?faults ?poll_retry
    ?(history_capacity = 4096) ?snapshot ?journal ?(prefill = []) ?conn ~polling () =
  (match poll_retry with
  | Some d when d <= 0.0 -> invalid_arg "Monitor.create: poll_retry must be positive"
  | _ -> ());
  let conn =
    match conn with
    | Some conn -> conn (* a recovering controller re-uses the registered session *)
    | None ->
      Netsim.Net.register_controller net ~name:"rvaas" ~delay:conn_delay ~loss_prob
        ?faults ()
  in
  let t =
    {
      net;
      conn;
      snapshot = (match snapshot with Some s -> s | None -> Snapshot.create ());
      journal;
      history = Support.Ring.create history_capacity;
      polling;
      poll_retry;
      rng = Support.Rng.split (Netsim.Sim.rng (Netsim.Net.sim net));
      packet_in_handler = (fun ~sw:_ ~in_port:_ ~header:_ ~payload:_ -> ());
      polls_sent = 0;
      events_seen = 0;
      next_xid = 0;
      outstanding = Hashtbl.create 32;
      poll_retries = 0;
      polling_active = true;
      wiring = None;
      observation_hooks = [];
    }
  in
  List.iter (fun entry -> Support.Ring.push t.history entry) prefill;
  Netsim.Net.set_handler conn (handle_message t);
  List.iter
    (fun sw -> Netsim.Net.attach net conn ~sw ~monitor:true)
    (Netsim.Topology.switches (Netsim.Net.topology net));
  schedule_poll t;
  t

let verify_wiring t ~timeout ~on_complete =
  (* One run at a time: a concurrent call would clobber the pending
     probe table and mix the two reports. *)
  if t.wiring <> None then
    invalid_arg "Monitor.verify_wiring: a verification run is already in progress";
  let topo = Netsim.Net.topology t.net in
  (* Interception entry for probes, on every switch. *)
  List.iter
    (fun sw ->
      Netsim.Net.send t.net t.conn ~sw
        (Ofproto.Message.Flow_mod (Ofproto.Message.Add_flow (Wire.lldp_intercept_spec ()))))
    (Netsim.Topology.switches topo);
  let pending = Hashtbl.create 32 in
  let nonce_counter = ref 0 in
  let probes =
    List.concat_map
      (fun sw ->
        List.map (fun (port, _, _) -> (sw, port)) (Netsim.Topology.neighbor_switches topo sw))
      (Netsim.Topology.switches topo)
  in
  let run =
    { pending; run_confirmed = 0; run_misdelivered = []; probes_sent = List.length probes }
  in
  t.wiring <- Some run;
  (* Let the interception entries land before probing. *)
  Netsim.Sim.schedule (Netsim.Net.sim t.net) ~delay:(2.0 *. 1e-2) (fun () ->
      List.iter
        (fun (sw, port) ->
          incr nonce_counter;
          let nonce = Printf.sprintf "%d-%d-%d" sw port !nonce_counter in
          Hashtbl.replace pending nonce (sw, port);
          let header =
            Hspace.Header.udp ~src_ip:Wire.service_ip ~dst_ip:0 ~src_port:0
              ~dst_port:Wire.lldp_port
          in
          Netsim.Net.send t.net t.conn ~sw
            (Ofproto.Message.Packet_out { port; header; payload = "lldp:" ^ nonce }))
        probes);
  Netsim.Sim.schedule (Netsim.Net.sim t.net) ~delay:timeout (fun () ->
      t.wiring <- None;
      (* Retire the probe intercepts: they are only needed while a run
         is live, and leaking one per run would grow every flow table
         without bound.  The dedicated cookie leaves the service's
         request/auth intercepts untouched. *)
      List.iter
        (fun sw ->
          Netsim.Net.send t.net t.conn ~sw
            (Ofproto.Message.Flow_mod (Ofproto.Message.Delete_by_cookie Wire.lldp_cookie)))
        (Netsim.Topology.switches topo);
      let missing =
        Hashtbl.fold (fun _ origin acc -> origin :: acc) pending []
        |> List.sort compare
      in
      on_complete
        {
          probes_sent = run.probes_sent;
          confirmed = run.run_confirmed;
          misdelivered = List.rev run.run_misdelivered;
          missing;
        })

let snapshot t = t.snapshot

let conn t = t.conn

let set_packet_in_handler t f = t.packet_in_handler <- f

let on_observation t f = t.observation_hooks <- f :: t.observation_hooks

let on_snapshot_change t f = on_observation t (fun ~sw _ ~changed -> f ~sw ~changed)

let history t = Support.Ring.to_list t.history

let polls_sent t = t.polls_sent

let events_seen t = t.events_seen

let outstanding_polls t = Hashtbl.length t.outstanding

let poll_retries t = t.poll_retries

let stop_polling t = t.polling_active <- false

let poll_now t = poll_all t

let journal t = t.journal
