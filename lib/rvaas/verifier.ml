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
   switch's first visit after it.  Each ingress port's guard list is a
   filter over these records.  The switch's next derivation updates in
   place the record of every spec its table still holds, the same
   object in the same order, and keeps its cube and prefilter. *)
type rule = {
  spec : Ofproto.Flow_entry.spec;
  cube : Hspace.Tern.t;
  pre : Hspace.Tern.prefilter;
  ip_dst : int;  (* the Ip_dst value the match fixes exactly, or -1 *)
  mutable pos : int;  (* index in the newest derivation's table *)
  mutable gen : int;  (* the newest derivation holding the rule *)
  mutable above : rule list;
      (* the earlier rules whose match overlaps this one, nearest first;
         rules bound to another ingress port never overlap *)
  mutable guard : guarded option;
      (* built on the first port where the rule is not fully shadowed:
         its guard, shared on every port where no port-bound rule of
         [above] applies *)
}

let applies (spec : Ofproto.Flow_entry.spec) port =
  match Ofproto.Match_.in_port spec.match_ with None -> true | Some p -> p = port

let port_free r = Option.is_none (Ofproto.Match_.in_port r.spec.match_)

let ip_dst_mask = Hspace.Field.prefix_mask Hspace.Field.Ip_dst 32

let exact_ip_dst m =
  match List.assq_opt Hspace.Field.Ip_dst (Ofproto.Match_.fields m) with
  | Some { Ofproto.Match_.value; mask } when mask = ip_dst_mask -> value
  | Some _ | None -> -1

(* Two lists of rules of this derivation, each nearest first, as one. *)
let rec merge a b =
  match a, b with
  | [], l | l, [] -> l
  | x :: ra, y :: rb -> if x.pos > y.pos then x :: merge ra b else y :: merge a rb

module Ints = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x = x
end)

(* The rule of [old] holding [spec], with the rules after it, searched
   among rules of [spec]'s priority and above: both tables are
   priority-descending. *)
let rec find_from (spec : Ofproto.Flow_entry.spec) = function
  | [] -> None
  | r :: rest ->
    if r.spec == spec then Some (r, rest)
    else if r.spec.priority < spec.priority then None
    else find_from spec rest

(* [flows] is priority-descending (Flow_table invariant); [old] is the
   switch's previous derivation, [[]] on its first visit, and [gen]
   numbers this one.  A rule whose spec [old] holds at or after the
   place the previous kept rule held is kept; the [old] rules skipped
   to reach it left the table or moved, and a rule that moved up is
   derived afresh.  A kept rule's overlap list is [old]'s, less the
   rules that left and plus the inserted rules above it that overlap
   it, and an unchanged list keeps the rule's guard.  An inserted rule
   takes its overlaps from the earlier rules: those exact on its Ip_dst
   and those not exact on Ip_dst when it is exact on one (two different
   exact values never overlap), all of them otherwise.  The field-wise
   [Match_.overlaps] also compares in_port constraints and builds no
   cube. *)
let derive ~gen ~old flows =
  let exact = Ints.create 16 and loose = ref [] and earlier = ref [] in
  let inserted = ref [] and cursor = ref old in
  let alive a = a.gen = gen in
  let exact_on ip_dst = Option.value ~default:[] (Ints.find_opt exact ip_dst) in
  List.mapi
    (fun pos (spec : Ofproto.Flow_entry.spec) ->
      let overlaps a = Ofproto.Match_.overlaps a.spec.match_ spec.match_ in
      let r =
        match find_from spec !cursor with
        | Some (r, rest) ->
          cursor := rest;
          r.pos <- pos;
          r.gen <- gen;
          (match List.filter overlaps !inserted with
          | [] when List.for_all alive r.above -> ()
          | fresh ->
            r.above <- merge (List.filter alive r.above) fresh;
            r.guard <- None);
          r
        | None ->
          let cube = Ofproto.Match_.to_tern spec.match_ in
          let ip_dst = exact_ip_dst spec.match_ in
          let above =
            if ip_dst < 0 then List.filter overlaps !earlier
            else merge (List.filter overlaps (exact_on ip_dst)) (List.filter overlaps !loose)
          in
          let r =
            { spec; cube; pre = Hspace.Tern.prefilter cube; ip_dst; pos; gen; above; guard = None }
          in
          inserted := r :: !inserted;
          r
      in
      earlier := r :: !earlier;
      if r.ip_dst < 0 then loose := r :: !loose
      else Ints.replace exact r.ip_dst (r :: exact_on r.ip_dst);
      r)
    flows

(* A rule whose cube an earlier rule applicable on [port] contains is
   fully shadowed there and dropped, before anything is built for it. *)
let guards_on rules port =
  let on_port a = applies a.spec port in
  let shadow keep r = List.filter_map (fun a -> if keep a then Some a.cube else None) r.above in
  List.filter_map
    (fun r ->
      let covers a = on_port a && Hspace.Tern.nonempty_subset r.cube a.cube in
      if (not (on_port r)) || List.exists covers r.above then None
      else
        let g =
          match r.guard with
          | Some g -> g
          | None ->
            let g =
              { g_spec = r.spec; g_cube = r.cube; g_shadow = shadow port_free r; g_pre = r.pre }
            in
            r.guard <- Some g;
            g
        in
        if List.for_all (fun a -> port_free a || not (on_port a)) r.above then Some g
        else Some { g with g_shadow = shadow on_port r })
    rules

(* Shared by every empty result: sets are immutable. *)
let nothing = Hspace.Hs.empty width

(* [hs ∩ cube \ shadow] — the packet set this rule actually handles. *)
let rule_slice hs { g_cube; g_shadow; g_pre; _ } =
  if Hspace.Tern.prefilter_disjoint g_pre (Hspace.Hs.bound hs) then nothing
  else
  let matched = Hspace.Hs.inter_cube hs g_cube in
  List.fold_left
    (fun acc c -> if Hspace.Hs.is_empty acc then acc else Hspace.Hs.diff_cube acc c)
    matched g_shadow

let rewrite_hs hs f v =
  Hspace.Hs.of_cubes width
    (List.map (fun c -> Hspace.Field.set_exact c f v) (Hspace.Hs.cubes hs))

type switch_guards = {
  gen : int;
  rules : rule list;  (* the whole table, in table order *)
  bound : int list;  (* the ingress ports some rule is bound to *)
  mutable stale : bool;  (* the table changed since [rules] *)
  mutable free : guarded list option;  (* the one list of every other port *)
  mutable ports : (int * guarded list) list;  (* bound ports visited so far *)
}

type ctx = {
  flows_of : int -> Ofproto.Flow_entry.spec list;
  topo : Netsim.Topology.t;
  guards_cache : (int, switch_guards) Hashtbl.t;
      (* per switch, so a Flow-Mod marks the rules and every port's
         guards stale at once *)
}

let context ~flows_of topo = { flows_of; topo; guards_cache = Hashtbl.create 64 }

let topology ctx = ctx.topo

let invalidate_switch ctx ~sw =
  match Hashtbl.find_opt ctx.guards_cache sw with
  | Some s ->
    s.stale <- true;
    s.free <- None;
    s.ports <- []
  | None -> ()

let guards ctx ~sw ~port =
  let s =
    match Hashtbl.find_opt ctx.guards_cache sw with
    | Some s when not s.stale -> s
    | prev ->
      let gen, old = match prev with Some p -> (p.gen + 1, p.rules) | None -> (0, []) in
      let rules = derive ~gen ~old (ctx.flows_of sw) in
      let bound =
        List.sort_uniq Int.compare
          (List.filter_map (fun r -> Ofproto.Match_.in_port r.spec.match_) rules)
      in
      let s = { gen; rules; bound; stale = false; free = None; ports = [] } in
      Hashtbl.replace ctx.guards_cache sw s;
      s
  in
  (* On a port no rule is bound to, exactly the port-free rules apply,
     so every such port has the same guards. *)
  if List.mem port s.bound then (
    match List.assq_opt port s.ports with
    | Some g -> g
    | None ->
      let g = guards_on s.rules port in
      s.ports <- (port, g) :: s.ports;
      g)
  else
    match s.free with
    | Some g -> g
    | None ->
      let g = guards_on s.rules port in
      s.free <- Some g;
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
      let old = Option.value ~default:nothing (Hashtbl.find_opt seen (sw, port)) in
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
          Option.value ~default:nothing (Hashtbl.find_opt endpoints ep)
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
            Option.value ~default:nothing (Hashtbl.find_opt handoffs key)
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
            and ctrl = ref nothing in
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
                Option.value ~default:nothing (Hashtbl.find_opt controller sw)
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
