(* Per-layer replay for the traced run: the layers' public functions
   called directly on the inputs the workload generated, each call
   timed.  Sources of the compiled engine compile on first use, as the
   service's lazy path does, except where a flush warms them.  The engine replay runs at each sampled query, on the believed
   view of that moment; the codec, front-end and snapshot replays run
   once the traced phase is over, on what it captured. *)

open Common
module Plumbing = Rvaas.Plumbing
module Codec = Rvaas.Codec

(* Inputs kept per run: enough calls for a stable mean, bounded so the
   capture stays small. *)
let keep = 2000

type t = {
  s : Scenario.t;
  plumbing : Plumbing.t;
  changed : (int, unit) Hashtbl.t;  (** switches whose view moved since the last sync *)
  mutable requests : (int * string * Query.t) list;  (** (client, nonce, query) *)
  mutable n_requests : int;
  mutable answers : Query.answer list;
  mutable n_answers : int;
  mutable batches : (int * int * int * Query.t) list list;  (** front-end submissions *)
  mutable reaches : int;
  mutable stale : int;
  mutable fallback : int;
  mutable rule_visits : int;
}

let current : t option ref = ref None

let believed s sw = Rvaas.Snapshot.flows (Rvaas.Monitor.snapshot (Scenario.monitor s)) ~sw

let start s =
  let topo = Netsim.Net.topology s.Scenario.net in
  let plumbing =
    Trace.time "plumbing.compile" (fun () -> Plumbing.compile ~flows_of:(believed s) topo)
  in
  let t =
    {
      s;
      plumbing;
      changed = Hashtbl.create 64;
      requests = [];
      n_requests = 0;
      answers = [];
      n_answers = 0;
      batches = [];
      reaches = 0;
      stale = 0;
      fallback = 0;
      rule_visits = 0;
    }
  in
  Rvaas.Monitor.on_snapshot_change (Scenario.monitor s) (fun ~sw ~changed ->
      if changed then Hashtbl.replace t.changed sw ());
  current := Some t

let request ~client ~nonce q =
  Option.iter
    (fun t ->
      if t.n_requests < keep then begin
        t.requests <- (client, nonce, q) :: t.requests;
        t.n_requests <- t.n_requests + 1
      end)
    !current

let answer a =
  Option.iter
    (fun t ->
      if t.n_answers < keep then begin
        t.answers <- a :: t.answers;
        t.n_answers <- t.n_answers + 1
      end)
    !current

let batch b = Option.iter (fun t -> t.batches <- b :: t.batches) !current

(* Bring the compiled graph up to the believed view: one incremental
   update per switch that changed since the last query. *)
let sync t =
  Hashtbl.iter
    (fun sw () -> Trace.time "plumbing.update" (fun () -> Plumbing.update t.plumbing ~sw))
    t.changed;
  Hashtbl.reset t.changed

(* The service's per-flush warm under the compiled engine: one call over
   every injection point a flush spans. *)
let warm ~points =
  Option.iter
    (fun t ->
      sync t;
      Trace.time "plumbing.warm" (fun () -> Plumbing.warm t.plumbing ~points))
    !current

(* One question, on the believed view of this moment: the sweep, then
   the compiled engine, its call classified by what it had to do. *)
let engine ~sw ~port hs =
  Option.iter
    (fun t ->
      sync t;
      let topo = Netsim.Net.topology t.s.Scenario.net in
      let r =
        Trace.time "verifier.reach" (fun () ->
            Verifier.reach ~flows_of:(believed t.s) topo ~src_sw:sw ~src_port:port ~hs)
      in
      t.rule_visits <- t.rule_visits + r.rule_visits;
      let st = Plumbing.stats t.plumbing in
      let stale = st.stale_sources
      and fallback = st.fallback_sweeps
      and compiles = st.source_compiles in
      let t0 = Drift.now () in
      ignore (Plumbing.reach t.plumbing ~src_sw:sw ~src_port:port ~hs);
      let dt = Drift.now () -. t0 in
      let st = Plumbing.stats t.plumbing in
      let cls =
        if st.stale_sources > stale then (t.stale <- t.stale + 1; "plumbing.stale_reach")
        else if st.fallback_sweeps > fallback then (
          t.fallback <- t.fallback + 1;
          "plumbing.fallback_reach")
        else if st.source_compiles > compiles then "plumbing.cold_reach"
        else "plumbing.lookup"
      in
      t.reaches <- t.reaches + 1;
      Trace.record cls dt)
    !current

(* After the traced phase: codec, front-end and snapshot replays. *)
let finish t =
  let s = t.s in
  let service = Scenario.service s in
  let keypair = s.service_keypair and public = Rvaas.Service.public service in
  let lookup_key client = Rvaas.Directory.key s.directory ~client in
  List.iter
    (fun (client, nonce, query) ->
      let key = Option.get (lookup_key client) in
      let payload = Codec.encode_request { Codec.client; nonce; query } ~key ~recipient:public in
      match Trace.time "codec.decode_request" (fun () -> Codec.decode_request payload ~keypair ~lookup_key) with
      | Ok _ -> ()
      | Error e -> failwith ("replay: request did not decode: " ^ e))
    t.requests;
  List.iteri
    (fun i (client, _, _) ->
      let challenge = Printf.sprintf "%015x" (Hashtbl.hash (i, client)) in
      ignore
        (Trace.time "codec.encode_auth_request" (fun () ->
             Codec.encode_auth_request ~challenge ~signer:keypair));
      let reply = Codec.encode_auth_reply ~client ~challenge ~key:(Option.get (lookup_key client)) in
      match Trace.time "codec.decode_auth_reply" (fun () -> Codec.decode_auth_reply reply ~lookup_key) with
      | Ok _ -> ()
      | Error e -> failwith ("replay: auth reply did not decode: " ^ e))
    t.requests;
  List.iter
    (fun a -> ignore (Trace.time "codec.encode_answer" (fun () -> Codec.encode_answer a ~signer:keypair)))
    t.answers;
  let cfg = Rvaas.Service.frontend_config service in
  let fe = Rvaas.Frontend.create cfg in
  List.iter
    (fun b ->
      List.iter
        (fun (client, sw, port, (q : Query.t)) ->
          let key = Rvaas.Frontend.key_of ~client ~sw ~port q in
          let scope =
            match q.kind with
            | Query.Reachable_endpoints when cfg.subsume -> Some (ip_scope q)
            | _ -> None
          in
          ignore
            (Trace.time "frontend.submit" (fun () ->
                 Rvaas.Frontend.submit fe ~key ?scope ~client ~sw ~port q ~waiter:())))
        b;
      ignore (Trace.time "frontend.flush" (fun () -> Rvaas.Frontend.flush fe)))
    (List.rev t.batches);
  (* The monitor's recent Flow-Mod events replayed into a fresh view,
     then every switch's actual table as a stats reply. *)
  let snap = Rvaas.Snapshot.create () in
  List.iter
    (fun (h : Rvaas.Monitor.history_entry) ->
      match h.what with
      | Rvaas.Monitor.Event ev ->
        Trace.time "snapshot.apply_event" (fun () ->
            Rvaas.Snapshot.apply_event snap ~sw:h.sw ~now:h.at ev);
        ignore (Trace.time "snapshot.switch_digest" (fun () -> Rvaas.Snapshot.switch_digest snap ~sw:h.sw))
      | _ -> ())
    (Rvaas.Monitor.history (Scenario.monitor s));
  let snap = Rvaas.Snapshot.create () in
  List.iter
    (fun sw ->
      let flows = Scenario.actual_flows s sw in
      Trace.time "snapshot.replace_flows" (fun () ->
          Rvaas.Snapshot.replace_flows snap ~sw ~now:0.0 flows);
      ignore (Trace.time "snapshot.digest" (fun () -> Rvaas.Snapshot.digest snap)))
    (Netsim.Topology.switches (Netsim.Net.topology s.net))
