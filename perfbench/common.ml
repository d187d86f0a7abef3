(* What every workload shares: the result record, growable sample
   buffers, the answer oracle and the deployment helpers. *)

module Scenario = Workload.Scenario
module Verifier = Rvaas.Verifier
module Query = Rvaas.Query
module Hs = Hspace.Hs

(* Growable float buffer: a run keeps up to a few hundred thousand
   latency samples, which boxed lists would charge to the GC and to
   peak RSS. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* Nearest-rank percentile; [nan] on no samples. *)
let percentile q xs =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))
  end

type result = {
  mutable setups : Drift.timing list;  (** one per deployment set up *)
  timed : Drift.phase;
  mutable attempted : int;
  mutable answered : int;  (** correct answers delivered in the timed phase *)
  mutable failed : int;
  wall_ms : Samples.t;  (** raw *)
  wall_block : Samples.t;  (** the timed block each wall sample was taken in *)
  sim_ms : Samples.t;
  mutable sim_s : float;  (** simulated seconds the timed phase advanced *)
  mutable counts : (string * int) list;  (** the determinism guard *)
  mutable world : (string * int) list;
}

let result timed =
  {
    setups = [];
    timed;
    attempted = 0;
    answered = 0;
    failed = 0;
    wall_ms = Samples.create ();
    wall_block = Samples.create ();
    sim_ms = Samples.create ();
    sim_s = 0.0;
    counts = [];
    world = [];
  }

(* Close the timed phase's current block and move the wall-latency
   samples taken in it into the result, tagged with the block. *)
let end_block r (pending : Samples.t) =
  let b = float_of_int (Drift.block r.timed) in
  for i = 0 to pending.n - 1 do
    Samples.add r.wall_ms pending.a.(i);
    Samples.add r.wall_block b
  done;
  pending.n <- 0;
  Drift.end_block r.timed

(* The wall-latency samples, drift-corrected by their block's factor. *)
let corrected_wall r =
  let f = Drift.factors r.timed in
  Array.init r.wall_ms.n (fun i -> r.wall_ms.a.(i) *. f.(int_of_float r.wall_block.a.(i)))

let mismatch r fmt =
  Printf.ksprintf
    (fun msg ->
      r.failed <- r.failed + 1;
      Printf.printf "mismatch: %s\n%!" msg)
    fmt

let sim s = Netsim.Net.sim s.Scenario.net

let now s = Netsim.Sim.now (sim s)

(* Every call into [Scenario.run] goes through here, so the traced run
   sees each slice. *)
let run s ~until =
  Trace.span ~counted:true "scenario.run" (fun () -> Scenario.run s ~until)

(* Advance in [step]-second slices until [cond] holds; [false] when
   [limit] simulated seconds pass first. *)
let run_until s ?(step = 0.001) ~limit cond =
  let deadline = now s +. limit in
  while (not (cond ())) && now s < deadline do
    run s ~until:(Float.min deadline (now s +. step))
  done;
  cond ()

let build spec = Trace.span ~counted:true "scenario.build" (fun () -> Scenario.build spec)

let host_info s host = Option.get (Sdnctl.Addressing.host s.Scenario.addressing ~host)

let ip_scope (q : Query.t) =
  let ip = Verifier.ip_traffic_hs () in
  match q.scope with None -> ip | Some hs -> Hs.inter hs ip

(* The header space the service's reach pass runs for [q]. *)
let reach_scope (q : Query.t) =
  match q.kind with
  | Query.Path_length { dst_ip } -> Hs.inter (ip_scope q) (Verifier.dst_ip_hs dst_ip)
  | _ -> ip_scope q

(* A host's access point (switch, port). *)
let attachment s host =
  match Netsim.Topology.host_attachment (Netsim.Net.topology s.Scenario.net) host with
  | Some { node = Netsim.Topology.Switch sw; port } -> (sw, port)
  | _ -> invalid_arg "attachment: host not wired to a switch"

(* The hop pair a [Path_length] answer reports for a reach result:
   longest witness path, and the shortest wiring distance to any
   reached endpoint. *)
let hops topo ~sw (r : Verifier.reach_result) =
  let observed =
    List.fold_left (fun acc (_, path) -> max acc (List.length path)) 0 r.sample_paths
  in
  let dist, _ = Netsim.Topology.shortest_paths topo ~from_sw:sw in
  let optimal =
    List.fold_left
      (fun acc ((ep : Verifier.endpoint), _) ->
        match Hashtbl.find_opt dist ep.sw with Some d -> min acc (d + 1) | None -> acc)
      max_int r.sample_paths
  in
  if observed = 0 then None else Some (observed, min observed optimal)

(* Check one answer against the uncached sweep over the switches'
   actual tables.  [None] when it agrees. *)
let oracle s ~sw ~port (q : Query.t) (a : Query.answer) =
  if a.throttled then Some "throttled"
  else if a.degraded then Some "degraded"
  else begin
    let topo = Netsim.Net.topology s.Scenario.net in
    let reach hs =
      Verifier.reach ~flows_of:(Scenario.actual_flows s) topo ~src_sw:sw ~src_port:port ~hs
    in
    let point (e : Verifier.endpoint) = (e.sw, e.port) in
    match q.kind with
    | Query.Reachable_endpoints ->
      let want = List.sort compare (List.map (fun (e, _) -> point e) (reach (ip_scope q)).endpoints) in
      let got =
        List.sort compare (List.map (fun (e : Query.endpoint_report) -> (e.sw, e.port)) a.endpoints)
      in
      if got <> want then Some "endpoints"
      else if List.exists (fun (e : Query.endpoint_report) -> not e.authenticated) a.endpoints
      then Some "unauthenticated endpoint"
      else None
    | Query.Geo ->
      let want =
        List.sort_uniq compare
          (Geo.Registry.jurisdictions_of s.geo_truth ~sws:(reach (ip_scope q)).traversed)
      in
      if List.sort_uniq compare a.jurisdictions <> want then Some "jurisdictions" else None
    | Query.Path_length _ ->
      if a.path_hops <> hops topo ~sw (reach (reach_scope q)) then Some "hops" else None
    | Query.Transfer_summary ->
      let want =
        List.sort compare (List.map (fun (e, hs) -> (point e, hs)) (reach (ip_scope q)).endpoints)
      in
      let got = List.sort compare (List.map (fun (sw, port, hs) -> ((sw, port), hs)) a.transfer) in
      if
        List.length want = List.length got
        && List.for_all2 (fun (p, x) (p', y) -> p = p' && Hs.equal x y) want got
      then None
      else Some "transfer spaces"
    | Query.Sources_reaching_me | Query.Isolation | Query.Fairness -> Some "unexpected kind"
  end

(* The counters a span snapshot records. *)
let counters s () =
  let st = Rvaas.Service.stats (Scenario.service s) in
  let fe = Rvaas.Service.frontend_stats (Scenario.service s) in
  let net = Netsim.Net.stats s.Scenario.net in
  let m = Scenario.monitor s in
  let gc = Gc.quick_stat () in
  [
    ("service.queries", st.queries_received);
    ("service.auth_requests", st.auth_requests_sent);
    ("service.answers", st.answers_sent);
    ("frontend.admitted", fe.admitted);
    ("frontend.entries", fe.entries);
    ("frontend.flushes", fe.flushes);
    ("net.delivered", net.delivered);
    ("net.packet_ins", net.packet_ins);
    ("net.flow_mods", net.flow_mods);
    ("sim.executed", Netsim.Sim.executed (sim s));
    ("monitor.events", Rvaas.Monitor.events_seen m);
    ("monitor.polls", Rvaas.Monitor.polls_sent m);
    ("gc.minor_words", int_of_float gc.minor_words);
    ("gc.major_collections", gc.major_collections);
  ]

(* Counts that two runs with one seed must repeat exactly. *)
let determinism_counts s ~answers =
  let st = Rvaas.Service.stats (Scenario.service s) in
  let fe = Rvaas.Service.frontend_stats (Scenario.service s) in
  let m = Scenario.monitor s in
  [
    ("answers", answers);
    ("auth_requests", st.auth_requests_sent);
    ("sim_events", Netsim.Sim.executed (sim s));
    ("flow_mods", (Netsim.Net.stats s.net).flow_mods);
    ("monitor_observations", Rvaas.Monitor.events_seen m + Rvaas.Monitor.polls_sent m);
    ("frontend_fallbacks", fe.batch_fallbacks + fe.slice_fallbacks);
  ]

let world_sizes s =
  let topo = Netsim.Net.topology s.Scenario.net in
  [
    ("switches", List.length (Netsim.Topology.switches topo));
    ( "rules",
      List.fold_left
        (fun acc sw -> acc + List.length (Scenario.actual_flows s sw))
        0 (Netsim.Topology.switches topo) );
    ("access_points", List.length (Verifier.access_points topo));
  ]

(* Peak resident set (VmHWM) in MB; [nan] where /proc is missing. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> Float.nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> Float.nan
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" float_of_int /. 1024.0
      | _ -> scan ()
    in
    let mb = scan () in
    close_in ic;
    mb

(* Set a deployment up [n] times: [n - 1] times in forked children,
   which report and exit (so their heaps never reach this process's
   peak RSS), then once here, keeping the deployment.  Each set-up is
   timed up to its first answer, with reference samples on both sides
   (children use the helper while this process waits for them), and the
   set-ups are corrected together ([Drift.pooled]); [verify] then checks
   each first answer outside the timing and returns the failures. *)
let setups n ~(setup : unit -> 'a) ~(verify : 'a -> int) =
  let child () =
    let r, w = Unix.pipe ~cloexec:true () in
    flush_all ();
    match Unix.fork () with
    | 0 ->
      Unix.close r;
      let x, raw, refs = Drift.time_once setup in
      let failures = verify x in
      let oc = Unix.out_channel_of_descr w in
      Printf.fprintf oc "%d %h %s\n%!" failures raw
        (String.concat " " (List.map (Printf.sprintf "%h") refs));
      Unix._exit 0
    | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let line = try Some (input_line ic) with End_of_file -> None in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match Option.map (String.split_on_char ' ') line with
      | Some (failures :: raw :: refs) ->
        ((float_of_string raw, List.map float_of_string refs), int_of_string failures)
      | _ -> failwith "set-up child failed")
  in
  let children = List.init (n - 1) (fun _ -> child ()) in
  let x, raw, refs = Drift.time_once setup in
  let failures = verify x in
  ( x,
    Drift.pooled (List.map fst children @ [ (raw, refs) ]),
    List.fold_left (fun acc (_, f) -> acc + f) failures children )
