let width = Hspace.Field.total_width

(* Explicit guards: cube_i minus union of higher-priority cubes. *)
let explicit_guards flows_of sw port =
  let applicable =
    List.filter
      (fun (spec : Ofproto.Flow_entry.spec) ->
        match Ofproto.Match_.in_port spec.match_ with
        | None -> true
        | Some p -> p = port)
      (flows_of sw)
  in
  let _, guarded =
    List.fold_left
      (fun (shadow, acc) (spec : Ofproto.Flow_entry.spec) ->
        let cube = Hspace.Hs.of_cube (Ofproto.Match_.to_tern spec.match_) in
        let guard = Hspace.Hs.diff cube shadow in
        let shadow = Hspace.Hs.union shadow cube in
        let acc = if Hspace.Hs.is_empty guard then acc else (spec, guard) :: acc in
        (shadow, acc))
      (Hspace.Hs.empty width, [])
      applicable
  in
  List.rev guarded

(* The outputs, each with whether a Set_field shaped it, and the space
   sent to the controller, with whether a rewritten one was. *)
let symbolic_apply ~ports ~in_port hs actions =
  let flood_ports = List.filter (fun p -> p <> in_port) ports in
  let cur = ref hs
  and rewritten = ref false
  and outs = ref []
  and ctrl = ref (Hspace.Hs.empty width)
  and ctrl_rewritten = ref false in
  List.iter
    (fun action ->
      match action with
      | Ofproto.Action.Output p ->
        if p <> in_port then outs := (p, !cur, !rewritten) :: !outs
      | Ofproto.Action.In_port -> outs := (in_port, !cur, !rewritten) :: !outs
      | Ofproto.Action.Flood ->
        List.iter (fun p -> outs := (p, !cur, !rewritten) :: !outs) flood_ports
      | Ofproto.Action.To_controller ->
        ctrl := Hspace.Hs.union !ctrl !cur;
        if !rewritten then ctrl_rewritten := true
      | Ofproto.Action.Set_field (f, v) ->
        cur :=
          Hspace.Hs.of_cubes width
            (List.map (fun c -> Hspace.Field.set_exact c f v) (Hspace.Hs.cubes !cur));
        rewritten := true
      | Ofproto.Action.Set_queue _ -> ())
    actions;
  (List.rev !outs, !ctrl, !ctrl_rewritten)

let reach ~flows_of topo ~src_sw ~src_port ~hs =
  let seen : (int * int, Hspace.Hs.t) Hashtbl.t = Hashtbl.create 64 in
  let guards_cache = Hashtbl.create 64 in
  let guards sw port =
    match Hashtbl.find_opt guards_cache (sw, port) with
    | Some g -> g
    | None ->
      let g = explicit_guards flows_of sw port in
      Hashtbl.replace guards_cache (sw, port) g;
      g
  in
  let endpoints = Hashtbl.create 16 in
  let controller = Hashtbl.create 16 in
  let paths = Hashtbl.create 16 in
  let traversed = Hashtbl.create 16 in
  let rule_visits = ref 0 in
  let rewrote = ref false in
  let queue = Queue.create () in
  let enqueue sw port hs path =
    if not (Hspace.Hs.is_empty hs) then begin
      let old =
        Option.value ~default:(Hspace.Hs.empty width) (Hashtbl.find_opt seen (sw, port))
      in
      let fresh = Hspace.Hs.diff hs old in
      if not (Hspace.Hs.is_empty fresh) then begin
        Hashtbl.replace seen (sw, port) (Hspace.Hs.union old fresh);
        Queue.add (sw, port, fresh, path) queue
      end
    end
  in
  enqueue src_sw src_port hs [ src_sw ];
  while not (Queue.is_empty queue) do
    let sw, port, hs, path = Queue.pop queue in
    Hashtbl.replace traversed sw ();
    if List.length path <= Netsim.Packet.max_hops then
      List.iter
        (fun ((spec : Ofproto.Flow_entry.spec), guard) ->
          incr rule_visits;
          let matched = Hspace.Hs.inter hs guard in
          if not (Hspace.Hs.is_empty matched) then begin
            let ports = Netsim.Topology.switch_ports topo sw in
            let outs, ctrl, ctrl_rewritten =
              symbolic_apply ~ports ~in_port:port matched spec.actions
            in
            if ctrl_rewritten then rewrote := true;
            if not (Hspace.Hs.is_empty ctrl) then begin
              let old =
                Option.value ~default:(Hspace.Hs.empty width)
                  (Hashtbl.find_opt controller sw)
              in
              Hashtbl.replace controller sw (Hspace.Hs.union old ctrl)
            end;
            List.iter
              (fun (out_port, out, rewritten) ->
                let here = Netsim.Topology.{ node = Switch sw; port = out_port } in
                match Netsim.Topology.peer topo here with
                | None -> ()
                | Some far -> (
                  if rewritten then rewrote := true;
                  match far.Netsim.Topology.node with
                  | Netsim.Topology.Host host ->
                    let ep = { Verifier.host; sw; port = out_port } in
                    let old =
                      Option.value ~default:(Hspace.Hs.empty width)
                        (Hashtbl.find_opt endpoints ep)
                    in
                    Hashtbl.replace endpoints ep (Hspace.Hs.union old out);
                    if not (Hashtbl.mem paths ep) then
                      Hashtbl.replace paths ep (List.rev path)
                  | Netsim.Topology.Switch next_sw ->
                    enqueue next_sw far.Netsim.Topology.port out (next_sw :: path)))
              outs
          end)
        (guards sw port)
  done;
  {
    Verifier.endpoints =
      Hashtbl.fold (fun ep hs acc -> (ep, hs) :: acc) endpoints []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    controller_hits =
      Hashtbl.fold (fun sw hs acc -> (sw, hs) :: acc) controller []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    traversed =
      Hashtbl.fold (fun sw () acc -> sw :: acc) traversed [] |> List.sort compare;
    sample_paths =
      Hashtbl.fold (fun ep path acc -> (ep, path) :: acc) paths []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    handoffs = [];
    rule_visits = !rule_visits;
    rewrote = !rewrote;
  }
