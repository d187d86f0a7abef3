(* A memo over {!Verifier.trace_in}: the full-space reachability of
   every queried source, restricted to each query's scope.

   Exactness of scoped lookups.  Propagation without field rewrites is
   per-concrete-header: a header h propagates through a rule iff h lies
   in the rule's guard slice, independently of which other headers
   travel with it, and the BFS queue is depth-monotone, so the hop
   bound cuts both runs identically.  Hence the restricted run over
   [hs] arrives exactly where the full-space run arrives, intersected
   with [hs] — endpoints, controller captures and traversal all
   restrict by intersection.  A Set_field rewrite breaks this (arrival
   spaces are images, not subsets), so a source whose pass applied any
   rewrite answers scoped queries by traversing the scope instead.

   Freshness.  A result depends only on the rules of the switches its
   pass traversed (the same argument as {!Reach_cache}), so a source
   records their versions and stays valid while none of them moves. *)

let width = Hspace.Field.total_width

type stats = {
  mutable source_compiles : int;
  mutable scoped_lookups : int;
  mutable fallback_sweeps : int;
  mutable updates : int;
  mutable stale_sources : int;
  mutable recompiles : int;
}

(* A memoised source: the full-space propagation from one injection
   point, plus everything needed to restrict it to a scope exactly. *)
type source = {
  s_result : Verifier.reach_result;  (* of [Hs.full width] *)
  s_seen : Hspace.Hs.t list array;
      (* per switch of [s_result.traversed], in that order: the spaces
         that arrived on its ingress ports — scoped traversal needs
         port granularity, which [traversed] has already collapsed *)
  s_paths : (Verifier.endpoint * (Hspace.Tern.t * int list) list) list;
      (* per endpoint: every arriving cube with its witness path, in
         arrival order, so a scoped lookup can pick a path whose
         traffic actually overlaps the scope *)
  s_deps : (int * int) array;  (* (switch, version) per traversed switch *)
  mutable s_global : int;  (* fast-path validity stamp *)
}

type t = {
  ctx : Verifier.ctx;
  versions : (int, int) Hashtbl.t;  (* absent = 0 *)
  mutable global_version : int;
  sources : (int * int, source) Hashtbl.t;  (* (src_sw, src_port) *)
  stats : stats;
}

let stats t = t.stats

let version t sw = Option.value ~default:0 (Hashtbl.find_opt t.versions sw)

(* ---- memoised sources ---- *)

(* Reads [t] only; stats and the install happen in the caller. *)
let compile_source t ~src_sw ~src_port =
  let tr = Verifier.trace_in t.ctx ~src_sw ~src_port ~hs:(Hspace.Hs.full width) in
  let traversed = tr.Verifier.result.Verifier.traversed in
  let by_switch = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (sw, _) space ->
      Hashtbl.replace by_switch sw
        (space :: Option.value ~default:[] (Hashtbl.find_opt by_switch sw)))
    tr.Verifier.seen;
  (* Arrivals come newest first with leaf-first paths: prepending each
     emission's cubes rebuilds arrival order per endpoint. *)
  let paths = Hashtbl.create 16 in
  List.iter
    (fun (ep, out, path) ->
      let witness = List.rev path in
      let later = Option.value ~default:[] (Hashtbl.find_opt paths ep) in
      Hashtbl.replace paths ep
        (List.map (fun c -> (c, witness)) (Hspace.Hs.cubes out) @ later))
    tr.Verifier.arrivals;
  {
    s_result = tr.Verifier.result;
    s_seen = Array.of_list (List.map (Hashtbl.find by_switch) traversed);
    s_paths =
      Hashtbl.fold (fun ep cps acc -> (ep, cps) :: acc) paths []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    s_deps = Array.of_list (List.map (fun sw -> (sw, version t sw)) traversed);
    s_global = t.global_version;
  }

(* A source stays current while no switch it traversed changed; other
   switches' changes only move its stamp forward. *)
let current t s =
  if s.s_global <> t.global_version && Array.for_all (fun (sw, v) -> version t sw = v) s.s_deps
  then s.s_global <- t.global_version;
  s.s_global = t.global_version

let source t ~src_sw ~src_port =
  let key = (src_sw, src_port) in
  match Hashtbl.find_opt t.sources key with
  | Some s when current t s -> s
  | prior ->
    if prior <> None then t.stats.stale_sources <- t.stats.stale_sources + 1;
    let s = compile_source t ~src_sw ~src_port in
    t.stats.source_compiles <- t.stats.source_compiles + 1;
    Hashtbl.replace t.sources key s;
    s

(* ---- scoped lookup ---- *)

let is_full_scope hs =
  match Hspace.Hs.cubes hs with [ c ] -> Hspace.Tern.is_full c | _ -> false

let restrict s hs =
  let endpoints =
    List.filter_map
      (fun (ep, arr) ->
        let i = Hspace.Hs.inter arr hs in
        if Hspace.Hs.is_empty i then None else Some (ep, i))
      s.s_result.Verifier.endpoints
  in
  let controller_hits =
    List.filter_map
      (fun (sw, space) ->
        let i = Hspace.Hs.inter space hs in
        if Hspace.Hs.is_empty i then None else Some (sw, i))
      s.s_result.Verifier.controller_hits
  in
  let traversed =
    List.filteri
      (fun i _ -> List.exists (Hspace.Hs.overlaps hs) s.s_seen.(i))
      s.s_result.Verifier.traversed
  in
  let scope_cubes = Hspace.Hs.cubes hs in
  let sample_paths =
    List.filter_map
      (fun (ep, _) ->
        match List.assoc_opt ep s.s_paths with
        | None -> None
        | Some cps ->
          List.find_map
            (fun (cube, path) ->
              if List.exists (fun c -> Hspace.Tern.overlaps cube c) scope_cubes then
                Some (ep, path)
              else None)
            cps)
      endpoints
  in
  {
    Verifier.endpoints;
    controller_hits;
    traversed;
    sample_paths;
    handoffs = [];
    rule_visits = 0;  (* a lookup visits no rules — that is the point *)
    rewrote = false;  (* only sources that did not rewrite are restricted *)
  }

(* ---- the memo interface ---- *)

let reach t ~src_sw ~src_port ~hs =
  let s = source t ~src_sw ~src_port in
  if is_full_scope hs then s.s_result
  else if s.s_result.Verifier.rewrote then begin
    (* Rewrites make restriction inexact; traverse the scope itself. *)
    t.stats.fallback_sweeps <- t.stats.fallback_sweeps + 1;
    Verifier.reach_in t.ctx ~src_sw ~src_port ~hs
  end
  else begin
    t.stats.scoped_lookups <- t.stats.scoped_lookups + 1;
    restrict s hs
  end

let update t ~sw =
  t.stats.updates <- t.stats.updates + 1;
  t.global_version <- t.global_version + 1;
  Hashtbl.replace t.versions sw t.global_version;
  Verifier.invalidate_switch t.ctx ~sw

let compile ~flows_of topo =
  {
    ctx = Verifier.context ~flows_of topo;
    versions = Hashtbl.create 16;
    global_version = 0;
    sources = Hashtbl.create 16;
    stats =
      {
        source_compiles = 0;
        scoped_lookups = 0;
        fallback_sweeps = 0;
        updates = 0;
        stale_sources = 0;
        recompiles = 0;
      };
  }

let warm t ~points =
  let todo =
    List.filter
      (fun point ->
        match Hashtbl.find_opt t.sources point with
        | Some s -> not (current t s)
        | None -> true)
      (List.sort_uniq compare points)
  in
  List.iter
    (fun (sw, port) ->
      t.stats.source_compiles <- t.stats.source_compiles + 1;
      Hashtbl.replace t.sources (sw, port) (compile_source t ~src_sw:sw ~src_port:port))
    todo

(* ---- instrumentation ---- *)

type graph_stats = { nodes : int; edges : int; ports : int }

(* The plumbing edges: a rule's rewritten match bound against the
   guards of the next hop's ingress port, prefilter-rejected first —
   the (rule, rule) adjacency NetPlumber materialises, derived here on
   demand from the context's guards (deriving any not yet visited). *)
let graph t =
  let topo = Verifier.topology t.ctx in
  let nodes = ref 0 and edges = ref 0 and ports = ref 0 in
  List.iter
    (fun sw ->
      let sw_ports = Netsim.Topology.switch_ports topo sw in
      List.iter
        (fun in_port ->
          incr ports;
          List.iter
            (fun (g : Verifier.guarded) ->
              incr nodes;
              let bound = ref g.Verifier.g_cube in
              let emit p =
                match Netsim.Topology.peer topo { node = Switch sw; port = p } with
                | None -> ()
                | Some { node = Host _; _ } -> incr edges
                | Some { node = Switch next_sw; port = next_port } ->
                  List.iter
                    (fun (tgt : Verifier.guarded) ->
                      if
                        (not (Hspace.Tern.prefilter_disjoint tgt.Verifier.g_pre !bound))
                        && Hspace.Tern.overlaps tgt.Verifier.g_cube !bound
                      then incr edges)
                    (Verifier.guards t.ctx ~sw:next_sw ~port:next_port)
              in
              List.iter
                (fun action ->
                  match action with
                  | Ofproto.Action.Output p -> if p <> in_port then emit p
                  | Ofproto.Action.In_port -> emit in_port
                  | Ofproto.Action.Flood ->
                    List.iter (fun p -> if p <> in_port then emit p) sw_ports
                  | Ofproto.Action.Set_field (f, v) ->
                    bound := Hspace.Field.set_exact !bound f v
                  | Ofproto.Action.To_controller | Ofproto.Action.Set_queue _ -> ())
                g.Verifier.g_spec.Ofproto.Flow_entry.actions)
            (Verifier.guards t.ctx ~sw ~port:in_port))
        sw_ports)
    (Netsim.Topology.switches topo);
  { nodes = !nodes; edges = !edges; ports = !ports }
