type alarm =
  | Unknown_access_point of { sw : int; port : int }
  | Unauthenticated_endpoint of { sw : int; port : int }
  | Missing_replies of { expected : int; got : int }
  | Forbidden_jurisdiction of string
  | Path_stretch of { observed : int; optimal : int; bound : float }
  | Throttled of { meter : int; rate_kbps : int; floor_kbps : int }
  | Unreachable_expected of { sw : int; port : int }
  | Config_drift of { at : float; sw : int; detail : string }

type policy = {
  own_points : (int * int) list;
  allowed_peer_points : (int * int) list;
  forbidden_jurisdictions : string list;
  max_path_stretch : float;
  min_rate_kbps : int option;
  expected_reachable : (int * int) list;
}

let default_policy ~own_points =
  {
    own_points;
    allowed_peer_points = [];
    forbidden_jurisdictions = [];
    max_path_stretch = 1.0;
    min_rate_kbps = None;
    expected_reachable = [];
  }

let check_answer policy (a : Query.answer) =
  let alarms = ref [] in
  let add alarm = alarms := alarm :: !alarms in
  let known (sw, port) =
    List.mem (sw, port) policy.own_points || List.mem (sw, port) policy.allowed_peer_points
  in
  List.iter
    (fun (e : Query.endpoint_report) ->
      if not (known (e.sw, e.port)) then add (Unknown_access_point { sw = e.sw; port = e.port });
      if not e.authenticated then
        add (Unauthenticated_endpoint { sw = e.sw; port = e.port }))
    a.endpoints;
  if a.auth_replies < a.total_auth_requests then
    add (Missing_replies { expected = a.total_auth_requests; got = a.auth_replies });
  List.iter
    (fun j ->
      if List.mem j policy.forbidden_jurisdictions then add (Forbidden_jurisdiction j))
    a.jurisdictions;
  (match a.path_hops with
  | Some (observed, optimal)
    when optimal > 0 && float_of_int observed > policy.max_path_stretch *. float_of_int optimal
    ->
    add (Path_stretch { observed; optimal; bound = policy.max_path_stretch })
  | Some _ | None -> ());
  (match policy.min_rate_kbps with
  | None -> ()
  | Some floor_kbps ->
    List.iter
      (fun (meter, rate_kbps) ->
        if rate_kbps < floor_kbps then add (Throttled { meter; rate_kbps; floor_kbps }))
      a.meters);
  (* Only endpoint-style answers can witness reachability. *)
  (match a.kind with
  | Query.Reachable_endpoints | Query.Sources_reaching_me | Query.Isolation ->
    List.iter
      (fun (sw, port) ->
        let present =
          List.exists (fun (e : Query.endpoint_report) -> e.sw = sw && e.port = port)
            a.endpoints
        in
        if not present then add (Unreachable_expected { sw; port }))
      policy.expected_reachable
  | Query.Geo | Query.Path_length _ | Query.Fairness | Query.Transfer_summary -> ());
  List.rev !alarms

(* ---- history-based drift detection ---- *)

(* The baseline as a snapshot: its rules answer event checks, and its
   per-switch digests come from the one digest function the monitor's
   polls record. *)
type baseline = Snapshot.t

let baseline_of_flows flows =
  let base = Snapshot.create () in
  List.iter (fun (sw, specs) -> Snapshot.replace_flows base ~sw ~now:0.0 specs) flows;
  base

let in_baseline base sw spec =
  List.exists (Ofproto.Flow_entry.spec_equal spec) (Snapshot.flows base ~sw)

let check_history base entries =
  let rule spec = Format.asprintf "%a" Ofproto.Flow_entry.pp_spec spec in
  List.filter_map
    (fun { Monitor.at; sw; what } ->
      let drift detail = Some (Config_drift { at; sw; detail }) in
      match what with
      | Monitor.Event (Ofproto.Message.Flow_added spec)
      | Monitor.Event (Ofproto.Message.Flow_modified spec) ->
        if in_baseline base sw spec then None
        else drift (Printf.sprintf "unexpected rule: %s" (rule spec))
      | Monitor.Event (Ofproto.Message.Flow_deleted spec) | Monitor.Removed spec ->
        if in_baseline base sw spec then
          drift (Printf.sprintf "baseline rule removed: %s" (rule spec))
        else None
      | Monitor.Poll { digest; _ } ->
        (* A switch the baseline never listed compares as empty. *)
        if Int64.equal digest (Snapshot.flows_digest (Snapshot.flows base ~sw)) then None
        else drift "poll snapshot diverges from baseline")
    entries

let describe = function
  | Unknown_access_point { sw; port } ->
    Printf.sprintf "unknown access point sw=%d port=%d can reach the client" sw port
  | Unauthenticated_endpoint { sw; port } ->
    Printf.sprintf "endpoint sw=%d port=%d did not authenticate" sw port
  | Missing_replies { expected; got } ->
    Printf.sprintf "only %d of %d auth requests were answered" got expected
  | Forbidden_jurisdiction j -> Printf.sprintf "traffic can traverse jurisdiction %s" j
  | Path_stretch { observed; optimal; bound } ->
    Printf.sprintf "path of %d hops exceeds %.2fx the optimal %d" observed bound optimal
  | Throttled { meter; rate_kbps; floor_kbps } ->
    Printf.sprintf "meter %d limits to %dkbps, below the agreed %dkbps" meter rate_kbps
      floor_kbps
  | Unreachable_expected { sw; port } ->
    Printf.sprintf "expected endpoint sw=%d port=%d is no longer reachable" sw port
  | Config_drift { at; sw; detail } ->
    Printf.sprintf "config drift at t=%.6f on sw%d: %s" at sw detail
