(* Compiled plumbing graph (paper §IV-A.2's scale-up lineage): the
   network is compiled once into per-(switch, ingress-port) rule nodes
   whose outputs are resolved through the trusted wiring plan, and the
   full-space reachability of every queried source is precomputed.  A
   steady-state query is then a lookup: intersect the stored
   per-endpoint arrival spaces with the query scope instead of
   re-sweeping the rule graph.

   Exactness of scoped lookups.  Propagation without field rewrites is
   per-concrete-header: a header h propagates through a rule iff h lies
   in the rule's guard slice, independently of which other headers
   travel with it, and the BFS queue is depth-monotone, so the hop
   bound cuts both runs identically.  Hence the restricted run over
   [hs] arrives exactly where the full-space run arrives, intersected
   with [hs] — endpoints, controller captures and traversal all
   restrict by intersection.  A Set_field rewrite breaks this
   (arrival spaces are images, not subsets), so a source whose compile
   pass applied any rewrite answers scoped queries by an exact
   propagation over the compiled tables instead (counted in
   [fallback_sweeps]); full-scope queries always return the stored
   result.

   Incremental maintenance.  Each switch carries a version stamp; a
   Flow-Mod ([update ~sw]) re-derives only that switch's node arrays
   and bumps its stamp.  Precomputed sources record the versions of the
   switches their pass traversed and are revalidated lazily on lookup:
   a source whose traversed switches are all unchanged stays valid (a
   rule on a switch the pass never visited cannot alter the result —
   the same dependency argument as {!Reach_cache}).  When a burst of
   updates between queries touches more distinct switches than
   [churn_threshold], the delta bookkeeping is abandoned and the whole
   graph recompiled. *)

let width = Hspace.Field.total_width

type engine = [ `Sweep | `Compiled ]

(* Where a rule output lands, resolved through the wiring plan at
   compile time.  Nodes are per ingress port, so flood expansion and
   ingress suppression are static. *)
type dest =
  | To_host of Verifier.endpoint
  | To_switch of int * int  (* next switch, its ingress port *)

(* One resolved action effect: the rewrites accumulated up to that
   point of the action list, then an emission or controller capture. *)
type step =
  | Emit of (Hspace.Field.name * int) list * dest
  | Ctrl of (Hspace.Field.name * int) list

type node = { guard : Verifier.guarded; steps : step list }

type stats = {
  mutable source_compiles : int;
  mutable lookups : int;
  mutable scoped_lookups : int;
  mutable fallback_sweeps : int;
  mutable updates : int;
  mutable stale_sources : int;
  mutable recompiles : int;
  mutable pool_warms : int;
}

(* A precomputed source: the full-space propagation from one injection
   point, plus everything needed to restrict it to a scope exactly. *)
type source = {
  s_result : Verifier.reach_result;  (* of [Hs.full width] *)
  s_seen : ((int * int) * Hspace.Hs.t) array;
      (* per-(switch, port) arrived spaces — scoped traversal needs
         port granularity, which [traversed] has already collapsed *)
  s_paths : (Verifier.endpoint * (Hspace.Tern.t * int list) list) list;
      (* per endpoint: every arriving cube with its witness path, in
         arrival order, so a scoped lookup can pick a path whose
         traffic actually overlaps the scope *)
  s_rewrote : bool;  (* a rewrite touched a non-empty space *)
  s_deps : (int * int) array;  (* (switch, version) per traversed switch *)
  mutable s_global : int;  (* fast-path validity stamp *)
}

type t = {
  flows_of : int -> Ofproto.Flow_entry.spec list;
  topo : Netsim.Topology.t;
  churn_threshold : int;
  tables : (int * int, node array) Hashtbl.t;  (* (sw, in_port) -> nodes *)
  versions : (int, int) Hashtbl.t;
  mutable global_version : int;
  sources : (int * int, source) Hashtbl.t;  (* (src_sw, src_port) *)
  dirty : (int, unit) Hashtbl.t;
      (* distinct switches updated since the last recompile or query —
         the churn-threshold trigger *)
  stale : (int, unit) Hashtbl.t;
      (* switches whose node arrays are out of date — re-derived in one
         batch at the next query instead of once per Flow-Mod, so an
         install burst of [k] rules costs one refresh, not [k] *)
  stats : stats;
}

let stats t = t.stats

let compiled_sources t = Hashtbl.length t.sources

let churn_threshold t = t.churn_threshold

(* ---- graph construction ---- *)

let resolve_dest t sw out_port =
  let here = Netsim.Topology.{ node = Switch sw; port = out_port } in
  match Netsim.Topology.peer t.topo here with
  | None -> None
  | Some far -> (
    match far.Netsim.Topology.node with
    | Netsim.Topology.Host host ->
      Some (To_host { Verifier.host; sw; port = out_port })
    | Netsim.Topology.Switch next_sw ->
      Some (To_switch (next_sw, far.Netsim.Topology.port)))

(* Resolve a rule's action list against the wiring, mirroring
   {!Verifier.symbolic_apply} step for step: outputs capture the
   rewrites accumulated so far; outputs to the ingress port are
   suppressed except via [In_port]; flood goes to every wired port but
   the ingress. *)
let compile_steps t sw ~in_port (spec : Ofproto.Flow_entry.spec) =
  let ports = Netsim.Topology.switch_ports t.topo sw in
  let flood_ports = List.filter (fun p -> p <> in_port) ports in
  let rws = ref [] in
  let steps = ref [] in
  let emit p =
    match resolve_dest t sw p with
    | None -> ()
    | Some dest -> steps := Emit (List.rev !rws, dest) :: !steps
  in
  List.iter
    (fun action ->
      match action with
      | Ofproto.Action.Output p -> if p <> in_port then emit p
      | Ofproto.Action.In_port -> emit in_port
      | Ofproto.Action.Flood -> List.iter emit flood_ports
      | Ofproto.Action.To_controller -> steps := Ctrl (List.rev !rws) :: !steps
      | Ofproto.Action.Set_field (f, v) -> rws := (f, v) :: !rws
      | Ofproto.Action.Set_queue _ -> ())
    spec.actions;
  List.rev !steps

let compile_port t sw port =
  Array.of_list
    (List.map
       (fun (g : Verifier.guarded) ->
         { guard = g; steps = compile_steps t sw ~in_port:port g.Verifier.g_spec })
       (Verifier.guarded_rules t.flows_of sw port))

let refresh_switch t sw =
  List.iter
    (fun port -> Hashtbl.replace t.tables (sw, port) (compile_port t sw port))
    (Netsim.Topology.switch_ports t.topo sw)

(* Bring every stale switch's tables current.  Runs at query (and
   instrumentation) entry, so the cost of a churn burst is one
   re-derivation per touched switch regardless of burst length. *)
let flush t =
  if Hashtbl.length t.stale > 0 then begin
    Hashtbl.iter (fun sw () -> refresh_switch t sw) t.stale;
    Hashtbl.reset t.stale
  end

(* ---- propagation over the compiled tables ---- *)

let apply_rewrites rws hs =
  match rws with
  | [] -> hs
  | _ ->
    Hspace.Hs.of_cubes width
      (List.map
         (fun c -> List.fold_left (fun c (f, v) -> Hspace.Field.set_exact c f v) c rws)
         (Hspace.Hs.cubes hs))

type propagation = {
  p_result : Verifier.reach_result;
  p_seen : ((int * int) * Hspace.Hs.t) array;
  p_paths : (Verifier.endpoint * (Hspace.Tern.t * int list) list) list;
  p_rewrote : bool;
}

(* The BFS of {!Verifier.reach_in}, verbatim in its semantics —
   per-(switch, port) seen-set dedup at enqueue, traversal marked on
   dequeue, O(1) depth bound — but walking precompiled node arrays
   instead of deriving guards and resolving wiring per visit. *)
let propagate t ~src_sw ~src_port ~hs =
  let seen : (int * int, Hspace.Hs.t) Hashtbl.t = Hashtbl.create 64 in
  let endpoints : (Verifier.endpoint, Hspace.Hs.t) Hashtbl.t = Hashtbl.create 16 in
  let controller : (int, Hspace.Hs.t) Hashtbl.t = Hashtbl.create 16 in
  let paths : (Verifier.endpoint, int list) Hashtbl.t = Hashtbl.create 16 in
  let cube_paths : (Verifier.endpoint, (Hspace.Tern.t * int list) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let traversed : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let rule_visits = ref 0 in
  let rewrote = ref false in
  let queue = Queue.create () in
  let enqueue sw port hs path depth =
    if not (Hspace.Hs.is_empty hs) then begin
      let old =
        Option.value ~default:(Hspace.Hs.empty width) (Hashtbl.find_opt seen (sw, port))
      in
      let fresh = Hspace.Hs.diff hs old in
      if not (Hspace.Hs.is_empty fresh) then begin
        Hashtbl.replace seen (sw, port) (Hspace.Hs.union old fresh);
        Queue.add (sw, port, fresh, path, depth) queue
      end
    end
  in
  enqueue src_sw src_port hs [ src_sw ] 1;
  while not (Queue.is_empty queue) do
    let sw, port, hs, path, depth = Queue.pop queue in
    Hashtbl.replace traversed sw ();
    if depth <= Netsim.Packet.max_hops then
      Array.iter
        (fun node ->
          incr rule_visits;
          let matched = Verifier.rule_slice hs node.guard in
          if not (Hspace.Hs.is_empty matched) then
            List.iter
              (fun step ->
                match step with
                | Ctrl rws ->
                  if rws <> [] then rewrote := true;
                  let out = apply_rewrites rws matched in
                  let old =
                    Option.value ~default:(Hspace.Hs.empty width)
                      (Hashtbl.find_opt controller sw)
                  in
                  Hashtbl.replace controller sw (Hspace.Hs.union old out)
                | Emit (rws, dest) -> (
                  if rws <> [] then rewrote := true;
                  let out = apply_rewrites rws matched in
                  match dest with
                  | To_host ep ->
                    let old =
                      Option.value ~default:(Hspace.Hs.empty width)
                        (Hashtbl.find_opt endpoints ep)
                    in
                    Hashtbl.replace endpoints ep (Hspace.Hs.union old out);
                    let witness = List.rev path in
                    let cell =
                      match Hashtbl.find_opt cube_paths ep with
                      | Some cell -> cell
                      | None ->
                        let cell = ref [] in
                        Hashtbl.replace cube_paths ep cell;
                        cell
                    in
                    cell :=
                      !cell @ List.map (fun c -> (c, witness)) (Hspace.Hs.cubes out);
                    if not (Hashtbl.mem paths ep) then Hashtbl.replace paths ep witness
                  | To_switch (next_sw, next_port) ->
                    enqueue next_sw next_port out (next_sw :: path) (depth + 1)))
              node.steps)
        (match Hashtbl.find_opt t.tables (sw, port) with Some a -> a | None -> [||])
  done;
  let result =
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
    }
  in
  {
    p_result = result;
    p_seen = Array.of_seq (Hashtbl.to_seq seen);
    p_paths =
      Hashtbl.fold (fun ep cell acc -> (ep, !cell) :: acc) cube_paths []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    p_rewrote = !rewrote;
  }

(* ---- precomputed sources ---- *)

(* Reads [t] only; stats and the install happen in the caller. *)
let compile_source t ~src_sw ~src_port =
  let p = propagate t ~src_sw ~src_port ~hs:(Hspace.Hs.full width) in
  let deps =
    Array.of_list
      (List.map
         (fun sw -> (sw, Option.value ~default:0 (Hashtbl.find_opt t.versions sw)))
         p.p_result.Verifier.traversed)
  in
  {
    s_result = p.p_result;
    s_seen = p.p_seen;
    s_paths = p.p_paths;
    s_rewrote = p.p_rewrote;
    s_deps = deps;
    s_global = t.global_version;
  }

let deps_current t s =
  Array.for_all
    (fun (sw, v) -> Option.value ~default:0 (Hashtbl.find_opt t.versions sw) = v)
    s.s_deps

let source t ~src_sw ~src_port =
  let key = (src_sw, src_port) in
  match Hashtbl.find_opt t.sources key with
  | Some s when s.s_global = t.global_version -> s
  | Some s when deps_current t s ->
    (* Other switches changed, none of them traversed: revalidate. *)
    s.s_global <- t.global_version;
    s
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
    List.filter
      (fun sw ->
        Array.exists
          (fun ((sw', _), space) -> sw' = sw && Hspace.Hs.overlaps space hs)
          s.s_seen)
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
  }

(* ---- the engine interface ---- *)

let reach t ~src_sw ~src_port ~hs =
  (* A query is the settle point of an update burst: the churn window
     for the recompile threshold restarts here. *)
  Hashtbl.reset t.dirty;
  flush t;
  let s = source t ~src_sw ~src_port in
  if is_full_scope hs then begin
    t.stats.lookups <- t.stats.lookups + 1;
    s.s_result
  end
  else if s.s_rewrote then begin
    (* Rewrites make restriction inexact; propagate the scope itself
       over the compiled tables (still no guard derivation). *)
    t.stats.fallback_sweeps <- t.stats.fallback_sweeps + 1;
    (propagate t ~src_sw ~src_port ~hs).p_result
  end
  else begin
    t.stats.lookups <- t.stats.lookups + 1;
    t.stats.scoped_lookups <- t.stats.scoped_lookups + 1;
    restrict s hs
  end

(* ---- incremental maintenance ---- *)

let recompile t =
  t.stats.recompiles <- t.stats.recompiles + 1;
  Hashtbl.reset t.sources;
  Hashtbl.reset t.dirty;
  t.global_version <- t.global_version + 1;
  List.iter
    (fun sw ->
      Hashtbl.replace t.versions sw t.global_version;
      Hashtbl.replace t.stale sw ())
    (Netsim.Topology.switches t.topo)

let update t ~sw =
  t.stats.updates <- t.stats.updates + 1;
  Hashtbl.replace t.dirty sw ();
  if Hashtbl.length t.dirty > t.churn_threshold then recompile t
  else begin
    Hashtbl.replace t.stale sw ();
    t.global_version <- t.global_version + 1;
    Hashtbl.replace t.versions sw t.global_version
  end

(* ---- construction ---- *)

let compile ?churn_threshold ~flows_of topo =
  let switches = Netsim.Topology.switches topo in
  let t =
    {
      flows_of;
      topo;
      churn_threshold =
        (match churn_threshold with
        | Some c -> max 1 c
        | None -> max 4 ((List.length switches + 3) / 4));
      tables = Hashtbl.create 64;
      versions = Hashtbl.create 16;
      global_version = 0;
      sources = Hashtbl.create 16;
      dirty = Hashtbl.create 8;
      stale = Hashtbl.create 8;
      stats =
        {
          source_compiles = 0;
          lookups = 0;
          scoped_lookups = 0;
          fallback_sweeps = 0;
          updates = 0;
          stale_sources = 0;
          recompiles = 0;
          pool_warms = 0;
        };
    }
  in
  List.iter (fun sw -> Hashtbl.replace t.versions sw 0) switches;
  List.iter (refresh_switch t) switches;
  t

let warm t ~points =
  flush t;
  let todo =
    List.filter
      (fun (sw, port) ->
        match Hashtbl.find_opt t.sources (sw, port) with
        | Some s -> not (s.s_global = t.global_version || deps_current t s)
        | None -> true)
      (List.sort_uniq compare points)
  in
  if todo <> [] then t.stats.pool_warms <- t.stats.pool_warms + 1;
  List.iter
    (fun (sw, port) ->
      t.stats.source_compiles <- t.stats.source_compiles + 1;
      Hashtbl.replace t.sources (sw, port) (compile_source t ~src_sw:sw ~src_port:port))
    todo

(* ---- instrumentation ---- *)

type graph_stats = { nodes : int; edges : int; ports : int }

(* The plumbing edges: a rule's rewritten match bound against the
   guards of the next hop's ingress table, prefilter-rejected first —
   the (rule, rule) adjacency NetPlumber materialises, derived here on
   demand for instrumentation. *)
let graph t =
  flush t;
  let nodes = Hashtbl.fold (fun _ arr acc -> acc + Array.length arr) t.tables 0 in
  let ports = Hashtbl.length t.tables in
  let edges = ref 0 in
  Hashtbl.iter
    (fun _ arr ->
      Array.iter
        (fun node ->
          List.iter
            (fun step ->
              match step with
              | Ctrl _ -> ()
              | Emit (rws, dest) -> (
                match dest with
                | To_host _ -> incr edges
                | To_switch (next_sw, next_port) ->
                  let out_bound =
                    List.fold_left
                      (fun c (f, v) -> Hspace.Field.set_exact c f v)
                      node.guard.Verifier.g_cube rws
                  in
                  Array.iter
                    (fun (tgt : node) ->
                      if
                        (not
                           (Hspace.Tern.prefilter_disjoint tgt.guard.Verifier.g_pre
                              out_bound))
                        && Hspace.Tern.overlaps tgt.guard.Verifier.g_cube out_bound
                      then incr edges)
                    (match Hashtbl.find_opt t.tables (next_sw, next_port) with
                    | Some a -> a
                    | None -> [||])))
            node.steps)
        arr)
    t.tables;
  { nodes; edges = !edges; ports }
