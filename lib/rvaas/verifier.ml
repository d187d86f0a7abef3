type endpoint = { host : int; sw : int; port : int }

type reach_result = {
  endpoints : (endpoint * Hspace.Hs.t) list;
  controller_hits : (int * Hspace.Hs.t) list;
  traversed : int list;
  sample_paths : (endpoint * int list) list;
  handoffs : (int * int * Hspace.Hs.t) list;
  rule_visits : int;
  rewrote : bool;
}

let width = Hspace.Field.total_width

(* Rules applicable on [port], each with its match cube and the list of
   strictly-higher-priority cubes that overlap it (its "shadow").  The
   shadow is subtracted lazily at propagation time — materialising the
   guard as an explicit cube union blows up combinatorially when
   wide-match rules (e.g. the RVaaS intercepts) sit above everything. *)
type guarded = {
  g_spec : Ofproto.Flow_entry.spec;
  g_cube : Hspace.Tern.t;
  g_shadow : Hspace.Tern.t list;
  g_pre : Hspace.Tern.prefilter;
      (* required-bits view of [g_cube]: lets {!rule_slice} reject an
         incoming space whose bounding cube misses the rule with a
         few word operations, before any cube-product work *)
}

(* One rule of a switch, derived once per configuration change, on the
   switch's first visit.  Each ingress port's guard list is a filter
   over these records. *)
type rule = {
  spec : Ofproto.Flow_entry.spec;
  cube : Hspace.Tern.t;
  above : rule list;
      (* the earlier rules whose match overlaps this one, nearest first;
         rules bound to another ingress port never overlap *)
  mutable guard : guarded option;
      (* built on the first port where the rule is not fully shadowed:
         its prefilter, and its guard, shared, on every port where no
         port-bound rule of [above] applies *)
}

let applies (spec : Ofproto.Flow_entry.spec) port =
  match Ofproto.Match_.in_port spec.match_ with None -> true | Some p -> p = port

let port_free r = Ofproto.Match_.in_port r.spec.match_ = None

(* [flows] is priority-descending (Flow_table invariant): walking down,
   [earlier] holds the rules seen so far, nearest first.  The field-wise
   [Match_.overlaps] also compares in_port constraints and builds no
   cube. *)
let derive flows =
  List.rev
    (List.fold_left
       (fun earlier (spec : Ofproto.Flow_entry.spec) ->
         let above =
           List.filter (fun a -> Ofproto.Match_.overlaps a.spec.match_ spec.match_) earlier
         in
         { spec; cube = Ofproto.Match_.to_tern spec.match_; above; guard = None } :: earlier)
       [] flows)

(* A rule whose cube an earlier rule applicable on [port] contains is
   fully shadowed there and dropped, before anything is built for it. *)
let guards_on rules port =
  let on_port r = applies r.spec port in
  let shadow keep r = List.filter_map (fun a -> if keep a then Some a.cube else None) r.above in
  List.filter_map
    (fun r ->
      let covers a = on_port a && Hspace.Tern.subset r.cube a.cube in
      if (not (on_port r)) || List.exists covers r.above then None
      else
        let g =
          match r.guard with
          | Some g -> g
          | None ->
            let g =
              {
                g_spec = r.spec;
                g_cube = r.cube;
                g_shadow = shadow port_free r;
                g_pre = Hspace.Tern.prefilter r.cube;
              }
            in
            r.guard <- Some g;
            g
        in
        if List.for_all (fun a -> port_free a || not (on_port a)) r.above then Some g
        else Some { g with g_shadow = shadow on_port r })
    rules

(* [hs ∩ cube \ shadow] — the packet set this rule actually handles. *)
let rule_slice hs { g_cube; g_shadow; g_pre; _ } =
  if Hspace.Tern.prefilter_disjoint g_pre (Hspace.Hs.bound hs) then
    Hspace.Hs.empty width
  else
  let matched = Hspace.Hs.inter_cube hs g_cube in
  List.fold_left
    (fun acc c -> if Hspace.Hs.is_empty acc then acc else Hspace.Hs.diff_cube acc c)
    matched g_shadow

let rewrite_hs hs f v =
  Hspace.Hs.of_cubes width
    (List.map (fun c -> Hspace.Field.set_exact c f v) (Hspace.Hs.cubes hs))

type switch_guards = {
  rules : rule list;  (* the whole table, in table order *)
  mutable ports : (int * guarded list) list;  (* ingress ports visited so far *)
}

type ctx = {
  flows_of : int -> Ofproto.Flow_entry.spec list;
  topo : Netsim.Topology.t;
  guards_cache : (int, switch_guards) Hashtbl.t;
      (* per switch, so a Flow-Mod drops the rules and every port's
         guards with one removal *)
}

let context ~flows_of topo = { flows_of; topo; guards_cache = Hashtbl.create 64 }

let topology ctx = ctx.topo

let invalidate_switch ctx ~sw = Hashtbl.remove ctx.guards_cache sw

let guards ctx ~sw ~port =
  let s =
    match Hashtbl.find_opt ctx.guards_cache sw with
    | Some s -> s
    | None ->
      let s = { rules = derive (ctx.flows_of sw); ports = [] } in
      Hashtbl.replace ctx.guards_cache sw s;
      s
  in
  match List.assq_opt port s.ports with
  | Some g -> g
  | None ->
    let g = guards_on s.rules port in
    s.ports <- (port, g) :: s.ports;
    g

type trace = {
  result : reach_result;
  seen : (int * int, Hspace.Hs.t) Hashtbl.t;
  arrivals : (endpoint * Hspace.Hs.t * int list) list;
}

let trace_in ?(boundary = fun _ -> true) ctx ~src_sw ~src_port ~hs =
  let topo = ctx.topo in
  let seen : (int * int, Hspace.Hs.t) Hashtbl.t = Hashtbl.create 64 in
  let handoffs : (int * int, Hspace.Hs.t) Hashtbl.t = Hashtbl.create 8 in
  let endpoints : (endpoint, Hspace.Hs.t) Hashtbl.t = Hashtbl.create 16 in
  let controller : (int, Hspace.Hs.t) Hashtbl.t = Hashtbl.create 16 in
  let paths : (endpoint, int list) Hashtbl.t = Hashtbl.create 16 in
  let traversed : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let arrivals = ref [] in
  let rewrote = ref false in
  let rule_visits = ref 0 in
  let queue = Queue.create () in
  (* [depth] carries [List.length path] explicitly so the hop bound is
     O(1) per dequeue instead of rescanning the witness path. *)
  let enqueue sw port hs path depth =
    if not (Hspace.Hs.is_empty hs) then begin
      let old = Option.value ~default:(Hspace.Hs.empty width) (Hashtbl.find_opt seen (sw, port)) in
      let fresh = Hspace.Hs.diff hs old in
      if not (Hspace.Hs.is_empty fresh) then begin
        Hashtbl.replace seen (sw, port) (Hspace.Hs.union old fresh);
        Queue.add (sw, port, fresh, path, depth) queue
      end
    end
  in
  (* One rule output, resolved through the wiring plan: a host
     delivery, the next switch's queue, or a handoff outside the
     boundary.  [rewritten] says a Set_field shaped [out]. *)
  let emit sw path depth out_port out rewritten =
    let here = Netsim.Topology.{ node = Switch sw; port = out_port } in
    match Netsim.Topology.peer topo here with
    | None -> ()
    | Some far -> (
      if rewritten then rewrote := true;
      match far.Netsim.Topology.node with
      | Netsim.Topology.Host host ->
        let ep = { host; sw; port = out_port } in
        let old =
          Option.value ~default:(Hspace.Hs.empty width) (Hashtbl.find_opt endpoints ep)
        in
        Hashtbl.replace endpoints ep (Hspace.Hs.union old out);
        arrivals := (ep, out, path) :: !arrivals;
        if not (Hashtbl.mem paths ep) then Hashtbl.replace paths ep (List.rev path)
      | Netsim.Topology.Switch next_sw ->
        if boundary next_sw then
          enqueue next_sw far.Netsim.Topology.port out (next_sw :: path) (depth + 1)
        else begin
          let key = (next_sw, far.Netsim.Topology.port) in
          let old =
            Option.value ~default:(Hspace.Hs.empty width) (Hashtbl.find_opt handoffs key)
          in
          Hashtbl.replace handoffs key (Hspace.Hs.union old out)
        end)
  in
  enqueue src_sw src_port hs [ src_sw ] 1;
  while not (Queue.is_empty queue) do
    let sw, port, hs, path, depth = Queue.pop queue in
    Hashtbl.replace traversed sw ();
    if depth <= Netsim.Packet.max_hops then
      List.iter
        (fun guarded ->
          incr rule_visits;
          let matched = rule_slice hs guarded in
          if not (Hspace.Hs.is_empty matched) then begin
            (* The symbolic counterpart of {!Ofproto.Action.apply}:
               outputs carry the space as rewritten up to that point
               of the action list, never back out of the ingress port
               except through [In_port]. *)
            let cur = ref matched
            and rewritten = ref false
            and ctrl = ref (Hspace.Hs.empty width) in
            List.iter
              (fun action ->
                match action with
                | Ofproto.Action.Output p ->
                  if p <> port then emit sw path depth p !cur !rewritten
                | Ofproto.Action.In_port -> emit sw path depth port !cur !rewritten
                | Ofproto.Action.Flood ->
                  List.iter
                    (fun p -> if p <> port then emit sw path depth p !cur !rewritten)
                    (Netsim.Topology.switch_ports topo sw)
                | Ofproto.Action.To_controller ->
                  if !rewritten then rewrote := true;
                  ctrl := Hspace.Hs.union !ctrl !cur
                | Ofproto.Action.Set_field (f, v) ->
                  cur := rewrite_hs !cur f v;
                  rewritten := true
                | Ofproto.Action.Set_queue _ -> ())
              guarded.g_spec.actions;
            if not (Hspace.Hs.is_empty !ctrl) then begin
              let old =
                Option.value ~default:(Hspace.Hs.empty width) (Hashtbl.find_opt controller sw)
              in
              Hashtbl.replace controller sw (Hspace.Hs.union old !ctrl)
            end
          end)
        (guards ctx ~sw ~port)
  done;
  let result =
    {
      endpoints =
        Hashtbl.fold (fun ep hs acc -> (ep, hs) :: acc) endpoints []
        |> List.sort (fun (a, _) (b, _) -> compare a b);
      controller_hits =
        Hashtbl.fold (fun sw hs acc -> (sw, hs) :: acc) controller []
        |> List.sort (fun (a, _) (b, _) -> compare a b);
      traversed = Hashtbl.fold (fun sw () acc -> sw :: acc) traversed [] |> List.sort compare;
      sample_paths =
        Hashtbl.fold (fun ep path acc -> (ep, path) :: acc) paths []
        |> List.sort (fun (a, _) (b, _) -> compare a b);
      handoffs =
        Hashtbl.fold (fun (sw, port) hs acc -> (sw, port, hs) :: acc) handoffs []
        |> List.sort compare;
      rule_visits = !rule_visits;
      rewrote = !rewrote;
    }
  in
  { result; seen; arrivals = !arrivals }

let reach_in ?boundary ctx ~src_sw ~src_port ~hs =
  (trace_in ?boundary ctx ~src_sw ~src_port ~hs).result

let reach ~flows_of topo ~src_sw ~src_port ~hs =
  reach_in (context ~flows_of topo) ~src_sw ~src_port ~hs

let access_points topo =
  List.filter_map
    (fun host ->
      match Netsim.Topology.host_attachment topo host with
      | Some { Netsim.Topology.node = Netsim.Topology.Switch sw; port } ->
        Some { host; sw; port }
      | Some _ | None -> None)
    (Netsim.Topology.hosts topo)

let sources_reaching ~flows_of topo ~dst ~hs =
  let ctx = context ~flows_of topo in
  List.filter_map
    (fun src ->
      if src = dst then None
      else
        let result = reach_in ctx ~src_sw:src.sw ~src_port:src.port ~hs in
        List.find_map
          (fun (ep, arriving) -> if ep = dst then Some (src, arriving) else None)
          result.endpoints)
    (access_points topo)

(* Built once: sets are immutable, and the service restricts every
   request's scope by it. *)
let ip_traffic =
  Hspace.Hs.of_cube
    (Hspace.Field.set_exact (Hspace.Tern.all_x width) Hspace.Field.Eth_type
       Hspace.Header.eth_type_ip)

let ip_traffic_hs () = ip_traffic

let dst_ip_hs ip =
  Hspace.Hs.of_cube
    (Hspace.Field.set_exact
       (Hspace.Field.set_exact (Hspace.Tern.all_x width) Hspace.Field.Eth_type
          Hspace.Header.eth_type_ip)
       Hspace.Field.Ip_dst ip)

let dst_prefix_hs ~value ~prefix_len =
  Hspace.Hs.of_cube
    (Hspace.Field.set_prefix
       (Hspace.Field.set_exact (Hspace.Tern.all_x width) Hspace.Field.Eth_type
          Hspace.Header.eth_type_ip)
       Hspace.Field.Ip_dst ~value ~prefix_len)
