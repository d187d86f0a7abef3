type stats = {
  mutable queries_received : int;
  mutable queries_rejected : int;
  mutable queries_throttled : int;
  mutable queries_duplicate : int;
  mutable auth_requests_sent : int;
  mutable auth_retransmissions : int;
  mutable auth_replies_accepted : int;
  mutable auth_replies_duplicate : int;
  mutable auth_replies_rejected : int;
  mutable answers_sent : int;
  mutable intercepts_reinstalled : int;
  mutable queries_reissued : int;
}

type retry = { attempts : int; base_delay : float }

let no_retry = { attempts = 1; base_delay = 0.0 }

type probe = {
  target : Verifier.endpoint;
  mutable challenge : string;
      (* re-keyed on retransmission after a session loss: a challenge
         that may have leaked with the dead session is never re-used *)
  mutable attempts_made : int;
  mutable seen_authenticated : bool;
  mutable seen_ip : int option;
  mutable seen_client : int option;
}

(* One client waiting on a computation.  Coalescing makes the
   pending-to-requester relation one-to-many: each requester gets its
   own signed answer (under its own nonce, at its own access point)
   when the shared computation finalizes. *)
type requester = {
  r_nonce : string;
  r_client : int;
  r_sw : int;
  r_port : int;
  r_ip : int;
}

(* A narrower query riding a broader computation: its endpoints are
   the subset of the subsumer's probes whose arrival space overlaps
   the slice scope, its answer sliced out at the shared finalize. *)
type slice_pending = {
  sp_query : Query.t;  (* the sliced query, journalled for re-issue *)
  sp_base : Query.answer;
  sp_targets : Verifier.endpoint list;  (* subset of the subsumer's *)
  mutable sp_waiters : requester list;  (* newest first *)
}

(* What makes an in-flight computation joinable by narrower queries:
   its injection point, the effective scope it evaluated, and the
   arrival space per endpoint (exact — rewrite-tainted results are
   never indexed). *)
type cover = {
  c_point : int * int;
  c_scope : Hspace.Hs.t;
  c_arrivals : (Verifier.endpoint * Hspace.Hs.t) list;
}

type pending = {
  key : Frontend.key option;
      (* coalescing key while this computation is in flight; [Some]
         iff it was opened through a coalescing front-end (recovery
         re-issues bypass the front-end and never coalesce) *)
  base : Query.answer;  (** logical part, endpoints filled at finalize *)
  query : Query.t;  (** the parsed query, journalled for re-issue *)
  probes : probe list;
  mutable requesters : requester list;  (* newest first *)
  mutable slices : slice_pending list;  (* newest first *)
  cover : cover option;
      (* [Some] iff indexed in [t.subsumable] for in-flight joins *)
  mutable finalized : bool;
      (* an early finalize (full quorum) races the scheduled one *)
  mutable deadline_at : float;
      (* the currently-armed finalize deadline; a timer firing for an
         older deadline (pre-retransmission) must not finalize with
         partial results *)
}

type t = {
  net : Netsim.Net.t;
  monitor : Monitor.t;
  directory : Directory.t;
  geo : Geo.Registry.t;
  keypair : Cryptosim.Keys.keypair;
  auth_timeout : float;
  retry : retry;
  mutable live : bool;
      (* cleared by [kill]: a crashed controller's queued timers and
         handlers must become no-ops, not ghost answers *)
  stats : stats;
  rng : Support.Rng.t;
  pending : (string, pending) Hashtbl.t; (* keyed by challenge *)
  open_queries : (string, pending) Hashtbl.t;
      (* keyed by requester nonce, until answered; many nonces can map
         to one coalesced pending *)
  frontend : requester Frontend.t;
      (* admission + coalescing + batching policy in front of
         evaluation; default config = admit all, no coalescing, no
         settle tick (the seed behaviour) *)
  coalesced : pending Frontend.Key_table.t;
      (* in-flight computations by coalescing key: a query identical
         to one already evaluating joins it as an extra requester *)
  subsumable : (int * int, pending list ref) Hashtbl.t;
      (* in-flight [Reachable_endpoints] computations by injection
         point whose arrival spaces are exact (untainted): a narrower
         query at the same point joins one as a slice waiter *)
  queued_nonces : (string, unit) Hashtbl.t;
      (* nonces waiting in the front-end queue (batch_window > 0),
         not yet in [open_queries] — consulted by the duplicate-
         delivery check, cleared at each flush *)
  measurement : Cryptosim.Attest.measurement;
  ctx : Verifier.ctx;
      (* the one incremental verification context: guards cached
         across queries, invalidated per switch when the monitored
         snapshot changes, whichever engine serves *)
  cache : Reach_cache.t;
      (* reach results keyed by (src, scope); the snapshot-change hook
         evicts only entries that traversed the changed switch *)
  plumbing : Plumbing.t option;
      (* the compiled engine, present iff [engine = `Compiled]: a
         memo over [ctx] that turns reach questions into lookups *)
  intercepts_sent : (int, (Ofproto.Flow_entry.spec * float) list) Hashtbl.t;
      (* per switch: intercept installs in flight (sent, not yet in
         the believed table) with their send times *)
}

let code_identity = "rvaas-service-v1"

let public t = Cryptosim.Keys.public t.keypair

let stats t = t.stats

let measurement t = t.measurement

let attest t ~nonce = Cryptosim.Attest.quote ~measurement:t.measurement ~nonce

let now t = Netsim.Sim.now (Netsim.Net.sim t.net)

let fresh_hex t = Printf.sprintf "%015x" (Support.Rng.bits t.rng)

let topo t = Netsim.Net.topology t.net

let reach_cache t = t.cache

let plumbing t = t.plumbing

let engine t : Plumbing.engine =
  match t.plumbing with Some _ -> `Compiled | None -> `Sweep

let reach t ~src_sw ~src_port ~hs =
  match t.plumbing with
  | Some p -> Plumbing.reach p ~src_sw ~src_port ~hs
  | None -> (
    let key = Reach_cache.key ~src_sw ~src_port ~hs in
    match Reach_cache.find t.cache key with
    | Some r -> r
    | None ->
      let r = Verifier.reach_in t.ctx ~src_sw ~src_port ~hs in
      Reach_cache.add t.cache key r;
      r)

(* Restrict a client scope to IP traffic; queries never see non-IP
   control frames. *)
let effective_scope scope =
  let ip = Verifier.ip_traffic_hs () in
  match scope with None -> ip | Some hs -> Hspace.Hs.inter hs ip

let empty_answer t ~nonce ~kind =
  {
    Query.nonce;
    kind;
    endpoints = [];
    total_auth_requests = 0;
    auth_replies = 0;
    auth_attempts = 0;
    degraded = false;
    jurisdictions = [];
    path_hops = None;
    meters = [];
    transfer = [];
    snapshot_age = Snapshot.age (Monitor.snapshot t.monitor) ~now:(now t);
    throttled = false;
  }

(* Meters whose owning rule can touch the client's traffic: any rule
   with a meter whose match overlaps the client's subnet (either
   direction). *)
let fairness_meters t ~client =
  match Directory.find t.directory ~client with
  | None | Some { subnet = None; _ } -> []
  | Some { subnet = Some (value, prefix_len); _ } ->
    let width = Hspace.Field.total_width in
    let subnet_dst =
      Hspace.Field.set_prefix (Hspace.Tern.all_x width) Hspace.Field.Ip_dst ~value
        ~prefix_len
    and subnet_src =
      Hspace.Field.set_prefix (Hspace.Tern.all_x width) Hspace.Field.Ip_src ~value
        ~prefix_len
    in
    let snapshot = Monitor.snapshot t.monitor in
    List.concat_map
      (fun sw ->
        let meters = Snapshot.meters snapshot ~sw in
        List.filter_map
          (fun (spec : Ofproto.Flow_entry.spec) ->
            match spec.meter with
            | None -> None
            | Some id ->
              let cube = Ofproto.Match_.to_tern spec.match_ in
              if Hspace.Tern.overlaps cube subnet_dst || Hspace.Tern.overlaps cube subnet_src
              then
                Option.map
                  (fun band -> (id, band.Ofproto.Meter.rate_kbps))
                  (List.assoc_opt id meters)
              else None)
          (Snapshot.flows snapshot ~sw))
      (Snapshot.switches snapshot)
    |> List.sort_uniq compare

let jurisdictions_of t sws = Geo.Registry.jurisdictions_of t.geo ~sws

(* The logical evaluation shared by the in-band path and by direct
   calls from tests/benchmarks. *)
let evaluate t ~client ~sw ~port (query : Query.t) =
  let nonce = fresh_hex t in
  let answer = empty_answer t ~nonce ~kind:query.kind in
  let scope = effective_scope query.scope in
  match query.kind with
  | Query.Reachable_endpoints ->
    let r = reach t ~src_sw:sw ~src_port:port ~hs:scope in
    (answer, List.map fst r.endpoints)
  | Query.Sources_reaching_me | Query.Isolation ->
    (* Isolation ignores any client-narrowed scope: the question is
       whether *any* traffic can enter the client's domain. *)
    let hs =
      match query.kind with Query.Isolation -> Verifier.ip_traffic_hs () | _ -> scope
    in
    let points = Verifier.access_points (topo t) in
    let targets =
      List.filter
        (fun (ep : Verifier.endpoint) ->
          Directory.client_of_host t.directory ~host:ep.host = Some client)
        points
    in
    (* One forward reachability pass per candidate access point — the
       system's hot path, answered by [reach] (cache-first under the
       sweep engine, a graph lookup under the compiled one).  A point
       is a source when its traffic can arrive at any of the client's
       own points. *)
    let sources =
      List.filter
        (fun (src : Verifier.endpoint) ->
          (not (List.mem src targets))
          && List.exists
               (fun (ep, _) -> List.mem ep targets)
               (reach t ~src_sw:src.sw ~src_port:src.port ~hs).endpoints)
        points
    in
    (* The client's own points always belong in the report (they can
       reach the client by definition of its isolation domain). *)
    (answer, targets @ sources)
  | Query.Geo ->
    let r = reach t ~src_sw:sw ~src_port:port ~hs:scope in
    ({ answer with jurisdictions = jurisdictions_of t r.traversed }, [])
  | Query.Path_length { dst_ip } ->
    let hs = Hspace.Hs.inter scope (Verifier.dst_ip_hs dst_ip) in
    let r = reach t ~src_sw:sw ~src_port:port ~hs in
    let observed =
      List.fold_left
        (fun acc ((_ : Verifier.endpoint), path) -> max acc (List.length path))
        0 r.sample_paths
    in
    let optimal =
      List.fold_left
        (fun acc ((ep : Verifier.endpoint), _) ->
          let dist, _ = Netsim.Topology.shortest_paths (topo t) ~from_sw:sw in
          match Hashtbl.find_opt dist ep.sw with
          | Some d -> min acc (d + 1)
          | None -> acc)
        max_int r.sample_paths
    in
    let path_hops = if observed = 0 then None else Some (observed, min observed optimal) in
    ({ answer with path_hops }, [])
  | Query.Fairness -> ({ answer with meters = fairness_meters t ~client }, [])
  | Query.Transfer_summary ->
    let r = reach t ~src_sw:sw ~src_port:port ~hs:scope in
    let transfer =
      List.map
        (fun ((ep : Verifier.endpoint), arriving) -> (ep.sw, ep.port, arriving))
        r.endpoints
    in
    ({ answer with transfer }, [])

(* ---- in-band protocol ---- *)

let packet_out t ~sw ~port header payload =
  Netsim.Net.send t.net (Monitor.conn t.monitor) ~sw
    (Ofproto.Message.Packet_out { port; header; payload })

(* The shared (requester-independent) part of an answer over a probe
   subset — built once per computation (or per slice, over the slice's
   targets), then re-nonced, re-signed and fanned out to every
   requester. *)
let answer_of ~(base : Query.answer) probes =
  let endpoints =
    List.map
      (fun probe ->
        {
          Query.sw = probe.target.Verifier.sw;
          port = probe.target.Verifier.port;
          ip = probe.seen_ip;
          authenticated = probe.seen_authenticated;
          client = probe.seen_client;
        })
      probes
  in
  let replies = List.length (List.filter (fun pr -> pr.seen_authenticated) probes) in
  {
    base with
    Query.endpoints;
    total_auth_requests = List.length probes;
    auth_replies = replies;
    auth_attempts = List.fold_left (fun acc pr -> acc + pr.attempts_made) 0 probes;
    degraded = replies < List.length probes;
  }

let answer_template (p : pending) = answer_of ~base:p.base p.probes

let send_answer t answer (r : requester) =
  let payload = Codec.encode_answer answer ~signer:t.keypair in
  let header =
    Hspace.Header.udp ~src_ip:Wire.service_ip ~dst_ip:r.r_ip ~src_port:0
      ~dst_port:Wire.answer_port
  in
  t.stats.answers_sent <- t.stats.answers_sent + 1;
  packet_out t ~sw:r.r_sw ~port:r.r_port header payload

let journal_record t record =
  match Monitor.journal t.monitor with
  | None -> ()
  | Some j -> Journal.append j ~at:(now t) ~snapshot:(Monitor.snapshot t.monitor) record

(* Remove a finalized (or torn-down) computation from the in-flight
   subsumption index. *)
let drop_cover t (p : pending) =
  match p.cover with
  | None -> ()
  | Some c -> (
    match Hashtbl.find_opt t.subsumable c.c_point with
    | Some cell ->
      cell := List.filter (fun q -> q != p) !cell;
      if !cell = [] then Hashtbl.remove t.subsumable c.c_point
    | None -> ())

let finalize t (p : pending) =
  if t.live && not p.finalized then
    if not (Netsim.Net.conn_up (Monitor.conn t.monitor)) then
      (* Session down: the answer Packet-Out would vanish with it.
         Hold the query open — [retransmit_pending] re-drives it once
         the session is back (or a standby re-issues it from the
         journal). *)
      ()
    else begin
      p.finalized <- true;
      List.iter (fun probe -> Hashtbl.remove t.pending probe.challenge) p.probes;
      drop_cover t p;
      (match p.key with
      | Some k -> (
        (* Only drop the coalescing slot if it is still ours — a
           later computation may have taken the key over. *)
        match Frontend.Key_table.find_opt t.coalesced k with
        | Some q when q == p -> Frontend.Key_table.remove t.coalesced k
        | _ -> ())
      | None -> ());
      let answer_out template (r : requester) =
        (* Guarded removal: never evict a nonce that a newer pending
           owns (the duplicate-replay corruption this fan-out
           replaced). *)
        (match Hashtbl.find_opt t.open_queries r.r_nonce with
        | Some q when q == p -> Hashtbl.remove t.open_queries r.r_nonce
        | _ -> ());
        send_answer t { template with Query.nonce = r.r_nonce } r;
        journal_record t (Journal.Query_closed { nonce = r.r_nonce })
      in
      let template = answer_template p in
      List.iter (answer_out template) (List.rev p.requesters);
      (* Slice fan-out: each riding query's answer is the subsumer's
         probe results restricted to the slice's own targets, under the
         slice's own logical base. *)
      List.iter
        (fun sp ->
          let probes =
            List.filter (fun pr -> List.mem pr.target sp.sp_targets) p.probes
          in
          let template = answer_of ~base:sp.sp_base probes in
          List.iter (answer_out template) (List.rev sp.sp_waiters))
        (List.rev p.slices)
    end

let quorum_complete (p : pending) =
  List.for_all (fun pr -> pr.seen_authenticated) p.probes

let send_auth_request t (probe : probe) =
  let dst_ip =
    Option.value ~default:0 (Directory.host_ip t.directory ~host:probe.target.Verifier.host)
  in
  let payload = Codec.encode_auth_request ~challenge:probe.challenge ~signer:t.keypair in
  let header =
    Hspace.Header.udp ~src_ip:Wire.service_ip ~dst_ip ~src_port:0
      ~dst_port:Wire.auth_request_port
  in
  t.stats.auth_requests_sent <- t.stats.auth_requests_sent + 1;
  if probe.attempts_made > 0 then
    t.stats.auth_retransmissions <- t.stats.auth_retransmissions + 1;
  probe.attempts_made <- probe.attempts_made + 1;
  packet_out t ~sw:probe.target.Verifier.sw ~port:probe.target.Verifier.port header payload

(* Attempt [k] retransmits every probe still unanswered; attempt [k+1]
   follows after [base_delay * 2^k] (exponential backoff).  The answer
   is finalized [auth_timeout] after the last attempt, or as soon as
   the reply quorum is complete — a lossless run with retries enabled
   costs no extra latency or messages. *)
(* Arm (or re-arm) the finalize deadline.  A timer armed before a
   retransmission round must not finalize with the partial results of
   the old round: each timer only fires [finalize] when its own
   deadline is still the current one. *)
let arm_finalize t (p : pending) =
  let deadline = now t +. t.auth_timeout in
  p.deadline_at <- deadline;
  Netsim.Sim.schedule (Netsim.Net.sim t.net) ~delay:t.auth_timeout (fun () ->
      if p.deadline_at <= deadline then finalize t p)

let dispatch_probes t (p : pending) =
  let sim = Netsim.Net.sim t.net in
  let rec attempt k =
    if t.live && not p.finalized then begin
      List.iter
        (fun probe -> if not probe.seen_authenticated then send_auth_request t probe)
        p.probes;
      if k + 1 < t.retry.attempts then
        Netsim.Sim.schedule sim
          ~delay:(t.retry.base_delay *. (2.0 ** float_of_int k))
          (fun () -> attempt (k + 1))
      else arm_finalize t p
    end
  in
  attempt 0

(* A nonce about to be (re-)opened that still maps to an older
   pending: detach that requester from the old computation.  When it
   was the last one, tear the old computation down — challenges out of
   [t.pending], timers neutered, coalescing slot released — so nothing
   of it can fire again (the replace path that used to orphan
   challenges and double-send answers). *)
let supersede t nonce =
  match Hashtbl.find_opt t.open_queries nonce with
  | None -> ()
  | Some old ->
    old.requesters <-
      List.filter (fun r -> not (String.equal r.r_nonce nonce)) old.requesters;
    List.iter
      (fun sp ->
        sp.sp_waiters <-
          List.filter
            (fun (r : requester) -> not (String.equal r.r_nonce nonce))
            sp.sp_waiters)
      old.slices;
    old.slices <- List.filter (fun sp -> sp.sp_waiters <> []) old.slices;
    if old.requesters = [] && old.slices = [] then begin
      old.finalized <- true;
      List.iter (fun probe -> Hashtbl.remove t.pending probe.challenge) old.probes;
      drop_cover t old;
      match old.key with
      | Some k -> (
        match Frontend.Key_table.find_opt t.coalesced k with
        | Some q when q == old -> Frontend.Key_table.remove t.coalesced k
        | _ -> ())
      | None -> ()
    end

(* Open one computation for [requesters] (already evaluated to [base]
   + probe [targets]) — plus any [slices] riding it — and drive its
   auth-probe round.  A [cover] indexes the computation in
   [t.subsumable] so later narrower queries can join it in flight. *)
let open_with t ~key ~query ~base ~targets ?(slices = []) ?cover ~requesters () =
  let probes =
    List.map
      (fun target ->
        {
          target;
          challenge = fresh_hex t;
          attempts_made = 0;
          seen_authenticated = false;
          seen_ip = None;
          seen_client = None;
        })
      targets
  in
  let p =
    {
      key;
      base;
      query;
      probes;
      requesters;
      slices;
      cover;
      finalized = false;
      deadline_at = 0.0;
    }
  in
  let register query (r : requester) =
    supersede t r.r_nonce;
    Hashtbl.replace t.open_queries r.r_nonce p;
    journal_record t
      (Journal.Query_opened
         {
           q_nonce = r.r_nonce;
           q_client = r.r_client;
           q_sw = r.r_sw;
           q_port = r.r_port;
           q_ip = Some r.r_ip;
           q_query = query;
         })
  in
  List.iter (register query) (List.rev requesters);
  (* Slice waiters journal their own (narrower) query: a recovering
     standby re-issues the question the client actually asked, not the
     broader computation it happened to ride. *)
  List.iter
    (fun sp -> List.iter (register sp.sp_query) (List.rev sp.sp_waiters))
    (List.rev slices);
  (match key with Some k -> Frontend.Key_table.replace t.coalesced k p | None -> ());
  (match cover with
  | Some c ->
    let cell =
      match Hashtbl.find_opt t.subsumable c.c_point with
      | Some cell -> cell
      | None ->
        let cell = ref [] in
        Hashtbl.replace t.subsumable c.c_point cell;
        cell
    in
    cell := p :: !cell
  | None -> ());
  if probes = [] then finalize t p
  else begin
    List.iter (fun probe -> Hashtbl.replace t.pending probe.challenge p) probes;
    dispatch_probes t p
  end

(* Evaluate a query and drive its auth-probe round.  Used by [reissue]
   (a recovering controller re-driving a query recorded in the
   journal) — recovery bypasses admission and coalescing. *)
let open_query t ~client ~nonce ~sw ~port ~ip query =
  let base, targets = evaluate t ~client ~sw ~port query in
  open_with t ~key:None ~query ~base ~targets
    ~requesters:[ { r_nonce = nonce; r_client = client; r_sw = sw; r_port = port; r_ip = ip } ]
    ()

(* A rewrite anywhere on the swept region makes the union split
   unsound: arrival spaces of the pooled sweep may mix headers that
   entered under different members' scopes.  Conservative and cheap —
   scan the traversed switches (a superset of any member's traversal)
   for rewriting actions. *)
let union_tainted t (r : Verifier.reach_result) =
  let snapshot = Monitor.snapshot t.monitor in
  List.exists
    (fun sw ->
      List.exists
        (fun (spec : Ofproto.Flow_entry.spec) ->
          Ofproto.Action.rewrites spec.actions <> [])
        (Snapshot.flows snapshot ~sw))
    r.Verifier.traversed

(* Open a [Reachable_endpoints] computation whose arrival spaces are
   in hand, together with the slices riding it.  Untainted results are
   indexed ([cover]) for in-flight subsumption.  A rewrite on the
   region makes the slice intersection unsound, so — mirroring
   [open_batch]'s fallback — the subsumer still answers its own
   waiters exactly while every slice re-runs as its own per-query
   computation. *)
let open_reach t ~key ~(query : Query.t) ~sw ~port ~scope ~arrivals ~tainted
    ~(requesters : requester list) ~(slices : requester Frontend.slice list) =
  let base = empty_answer t ~nonce:(fresh_hex t) ~kind:query.Query.kind in
  let targets = List.map fst arrivals in
  if tainted && slices <> [] then begin
    Frontend.note_slice_fallback t.frontend (List.length slices);
    open_with t ~key ~query ~base ~targets ~requesters ();
    List.iter
      (fun (sl : requester Frontend.slice) ->
        match sl.Frontend.sl_waiters with
        | [] -> ()
        | lead :: _ ->
          let b, tg =
            evaluate t ~client:lead.r_client ~sw ~port sl.Frontend.sl_query
          in
          open_with t ~key:None ~query:sl.Frontend.sl_query ~base:b ~targets:tg
            ~requesters:sl.Frontend.sl_waiters ())
      slices
  end
  else begin
    let slices =
      List.map
        (fun (sl : requester Frontend.slice) ->
          {
            sp_query = sl.Frontend.sl_query;
            sp_base =
              empty_answer t ~nonce:(fresh_hex t)
                ~kind:sl.Frontend.sl_query.Query.kind;
            sp_targets =
              List.filter_map
                (fun (ep, arrival) ->
                  if Hspace.Hs.overlaps arrival sl.Frontend.sl_scope then Some ep
                  else None)
                arrivals;
            sp_waiters = sl.Frontend.sl_waiters;
          })
        slices
    in
    let cover =
      if tainted then None
      else Some { c_point = (sw, port); c_scope = scope; c_arrivals = arrivals }
    in
    open_with t ~key ~query ~base ~targets ~slices ?cover ~requesters ()
  end

(* A flushed front-end entry: one evaluation with the leader's
   coordinates, answers fanned out to every attached waiter.  With
   subsumption on, [Reachable_endpoints] evaluates through [reach]
   directly so the arrival spaces are in hand for the entry's slices
   and the in-flight index — same [base], same [targets], byte for
   byte, as the [evaluate] path it bypasses. *)
let open_entry t (e : requester Frontend.entry) =
  let cfg = Frontend.config t.frontend in
  let key = if cfg.coalesce then Some e.e_key else None in
  match e.e_query.Query.kind with
  | Query.Reachable_endpoints when cfg.subsume ->
    let scope = effective_scope e.e_query.Query.scope in
    let r = reach t ~src_sw:e.e_sw ~src_port:e.e_port ~hs:scope in
    open_reach t ~key ~query:e.e_query ~sw:e.e_sw ~port:e.e_port ~scope
      ~arrivals:r.Verifier.endpoints ~tainted:(union_tainted t r)
      ~requesters:e.e_waiters ~slices:e.e_slices
  | _ ->
    let base, targets =
      evaluate t ~client:e.e_client ~sw:e.e_sw ~port:e.e_port e.e_query
    in
    open_with t ~key ~query:e.e_query ~base ~targets ~requesters:e.e_waiters ()

(* A batch of [Reachable_endpoints] entries sharing one injection
   point: union the scopes, run one sweep over the union, split the
   arrival spaces back per member.  Exact absent rewrites — forward
   propagation is linear in the injected set, so
   [arrival(S1) = arrival(S1 ∪ S2) ∩ S1] cube by cube; with rewrites
   on the region, fall back to per-entry evaluation. *)
let open_batch t (es : requester Frontend.entry list) =
  match es with
  | [] -> ()
  | (first : requester Frontend.entry) :: _ ->
    let cfg = Frontend.config t.frontend in
    let scopes =
      List.map
        (fun (e : requester Frontend.entry) -> effective_scope e.e_query.Query.scope)
        es
    in
    let b = Hspace.Hs.Builder.create Hspace.Field.total_width in
    List.iter
      (fun s -> List.iter (Hspace.Hs.Builder.add b) (Hspace.Hs.cubes s))
      scopes;
    let union = Hspace.Hs.Builder.build b in
    let r = reach t ~src_sw:first.e_sw ~src_port:first.e_port ~hs:union in
    if union_tainted t r then begin
      Frontend.note_fallback t.frontend (List.length es);
      List.iter (open_entry t) es
    end
    else
      List.iter2
        (fun (e : requester Frontend.entry) scope ->
          let key = if cfg.coalesce then Some e.e_key else None in
          if cfg.subsume then
            (* Per-member arrival spaces by intersection — same
               endpoint set as the [overlaps] filter, but exact
               arrivals to feed this member's slices and the
               in-flight subsumption index. *)
            let arrivals =
              List.filter_map
                (fun ((ep : Verifier.endpoint), arrival) ->
                  let i = Hspace.Hs.inter arrival scope in
                  if Hspace.Hs.is_empty i then None else Some (ep, i))
                r.Verifier.endpoints
            in
            open_reach t ~key ~query:e.e_query ~sw:e.e_sw ~port:e.e_port ~scope
              ~arrivals ~tainted:false ~requesters:e.e_waiters
              ~slices:e.e_slices
          else
            let targets =
              List.filter_map
                (fun ((ep : Verifier.endpoint), arrival) ->
                  if Hspace.Hs.overlaps arrival scope then Some ep else None)
                r.Verifier.endpoints
            in
            let base =
              empty_answer t ~nonce:(fresh_hex t) ~kind:e.e_query.Query.kind
            in
            open_with t ~key ~query:e.e_query ~base ~targets
              ~requesters:e.e_waiters ())
        es scopes

let flush_frontend t =
  if t.live then begin
    Hashtbl.reset t.queued_nonces;
    let groups = Frontend.flush t.frontend in
    (* Cross-source warm: one warm over every injection point this
       flush evaluates, so each cold compiled source derives once,
       before any group opens, instead of on its group's first
       lookup. *)
    (match t.plumbing with
    | Some plumbing ->
      let points =
        List.sort_uniq compare
          (List.concat_map
             (List.filter_map (fun (e : requester Frontend.entry) ->
                  match e.e_query.Query.kind with
                  | Query.Reachable_endpoints -> Some (e.e_sw, e.e_port)
                  | _ -> None))
             groups)
      in
      if List.length points > 1 then Plumbing.warm plumbing ~points
    | None -> ());
    List.iter
      (function
        | [] -> ()
        | [ e ] -> open_entry t e
        | es -> open_batch t es)
      groups
  end

(* Join an in-flight computation: the new requester rides the probes
   already in the air and is answered at the shared finalize. *)
let try_join t key (r : requester) =
  match Frontend.Key_table.find_opt t.coalesced key with
  | Some p when not p.finalized ->
    p.requesters <- r :: p.requesters;
    Hashtbl.replace t.open_queries r.r_nonce p;
    journal_record t
      (Journal.Query_opened
         {
           q_nonce = r.r_nonce;
           q_client = r.r_client;
           q_sw = r.r_sw;
           q_port = r.r_port;
           q_ip = Some r.r_ip;
           q_query = p.query;
         });
    Frontend.note_coalesced t.frontend;
    true
  | _ -> false

(* Ride an in-flight broader computation at the same injection point:
   the narrower query becomes a slice answered at the shared finalize,
   costing no evaluation and no probes of its own. *)
let try_subsume t ~sw ~port ~scope query (r : requester) =
  match Hashtbl.find_opt t.subsumable (sw, port) with
  | None -> false
  | Some cell -> (
    match
      List.find_opt
        (fun p ->
          (not p.finalized)
          &&
          match p.cover with
          | Some c -> Hspace.Hs.subset scope c.c_scope
          | None -> false)
        !cell
    with
    | None -> false
    | Some p ->
      let c = Option.get p.cover in
      let targets =
        List.filter_map
          (fun (ep, arrival) ->
            if Hspace.Hs.overlaps arrival scope then Some ep else None)
          c.c_arrivals
      in
      p.slices <-
        {
          sp_query = query;
          sp_base = empty_answer t ~nonce:(fresh_hex t) ~kind:query.Query.kind;
          sp_targets = targets;
          sp_waiters = [ r ];
        }
        :: p.slices;
      Hashtbl.replace t.open_queries r.r_nonce p;
      journal_record t
        (Journal.Query_opened
           {
             q_nonce = r.r_nonce;
             q_client = r.r_client;
             q_sw = r.r_sw;
             q_port = r.r_port;
             q_ip = Some r.r_ip;
             q_query = query;
           });
      Frontend.note_subsumed t.frontend;
      true)

let send_throttled t ~nonce ~sw ~port ~ip ~kind =
  let answer = { (empty_answer t ~nonce ~kind) with Query.throttled = true } in
  send_answer t answer { r_nonce = nonce; r_client = -1; r_sw = sw; r_port = port; r_ip = ip }

(* The post-decode request path: duplicate suppression, admission,
   coalescing, then the front-end queue.  Shared by the in-band
   Packet-In handler and by [inject_query] (benchmarks driving the
   serving layer without per-packet request crypto). *)
let accept_request t ~client ~nonce ~sw ~port ~ip (query : Query.t) =
  if Hashtbl.mem t.open_queries nonce || Hashtbl.mem t.queued_nonces nonce then
    (* A duplicated or replayed delivery of an in-flight request —
       exactly the fault [Netsim.Faults] injects.  The original
       computation is already running and will answer under this
       nonce; re-opening would orphan its challenges and double-send
       answers.  Costs no token: the client did not ask twice. *)
    t.stats.queries_duplicate <- t.stats.queries_duplicate + 1
  else if not (Frontend.admit t.frontend ~client ~now:(now t)) then begin
    t.stats.queries_throttled <- t.stats.queries_throttled + 1;
    send_throttled t ~nonce ~sw ~port ~ip ~kind:query.Query.kind
  end
  else begin
    let r = { r_nonce = nonce; r_client = client; r_sw = sw; r_port = port; r_ip = ip } in
    let cfg = Frontend.config t.frontend in
    let key = Frontend.key_of ~client ~sw ~port query in
    if cfg.coalesce && try_join t key r then ()
    else begin
      (* Subsumption works on the effective scope the evaluation would
         run — computed here only for the batchable kind, only when
         the policy is on. *)
      let scope =
        match query.Query.kind with
        | Query.Reachable_endpoints when cfg.subsume ->
          Some (effective_scope query.Query.scope)
        | _ -> None
      in
      match scope with
      | Some s when try_subsume t ~sw ~port ~scope:s query r -> ()
      | _ -> (
        match
          Frontend.submit t.frontend ~key ?scope ~client ~sw ~port query ~waiter:r
        with
        | `Coalesced | `Subsumed | `Queued `Later ->
          Hashtbl.replace t.queued_nonces nonce ()
        | `Queued `First ->
          if cfg.batch_window > 0.0 then begin
            Hashtbl.replace t.queued_nonces nonce ();
            Netsim.Sim.schedule (Netsim.Net.sim t.net) ~delay:cfg.batch_window
              (fun () -> flush_frontend t)
          end
          else
            (* No settle tick: flush synchronously, exactly the
               pre-frontend per-request behaviour. *)
            flush_frontend t)
    end
  end

let inject_query t ~client ~nonce ~sw ~port ~ip query =
  t.stats.queries_received <- t.stats.queries_received + 1;
  accept_request t ~client ~nonce ~sw ~port ~ip query

let handle_request t ~sw ~in_port ~header ~payload =
  t.stats.queries_received <- t.stats.queries_received + 1;
  match
    Codec.decode_request payload ~keypair:t.keypair
      ~lookup_key:(fun client -> Directory.key t.directory ~client)
  with
  | Error _ -> t.stats.queries_rejected <- t.stats.queries_rejected + 1
  | Ok request ->
    let requester_ip = Hspace.Header.get header Hspace.Field.Ip_src in
    accept_request t ~client:request.client ~nonce:request.nonce ~sw ~port:in_port
      ~ip:requester_ip request.query

let handle_auth_reply t ~sw ~in_port ~header ~payload =
  match
    Codec.decode_auth_reply payload ~lookup_key:(fun client ->
        Directory.key t.directory ~client)
  with
  | Error _ -> t.stats.auth_replies_rejected <- t.stats.auth_replies_rejected + 1
  | Ok { reply_client; challenge } -> (
    match Hashtbl.find_opt t.pending challenge with
    | None -> t.stats.auth_replies_rejected <- t.stats.auth_replies_rejected + 1
    | Some p -> (
      match
        List.find_opt (fun probe -> String.equal probe.challenge challenge) p.probes
      with
      | None -> t.stats.auth_replies_rejected <- t.stats.auth_replies_rejected + 1
      | Some probe ->
        (* The Packet-In ingress point is the authoritative access
           point: a reply is only accepted from the probed port. *)
        if probe.target.Verifier.sw = sw && probe.target.Verifier.port = in_port then
          if probe.seen_authenticated then
            (* A duplicated delivery, or the reply to a retransmitted
               challenge: counted once. *)
            t.stats.auth_replies_duplicate <- t.stats.auth_replies_duplicate + 1
          else begin
            t.stats.auth_replies_accepted <- t.stats.auth_replies_accepted + 1;
            probe.seen_authenticated <- true;
            probe.seen_ip <- Some (Hspace.Header.get header Hspace.Field.Ip_src);
            probe.seen_client <- Some reply_client;
            if quorum_complete p then finalize t p
          end
        else t.stats.auth_replies_rejected <- t.stats.auth_replies_rejected + 1))

let handle_packet_in t ~sw ~in_port ~header ~payload =
  let dst_port = Hspace.Header.get header Hspace.Field.Tp_dst in
  if dst_port = Wire.request_port then handle_request t ~sw ~in_port ~header ~payload
  else if dst_port = Wire.auth_reply_port then
    handle_auth_reply t ~sw ~in_port ~header ~payload

let same_slot (a : Ofproto.Flow_entry.spec) (b : Ofproto.Flow_entry.spec) =
  a.cookie = b.cookie && a.priority = b.priority && Ofproto.Match_.equal a.match_ b.match_

let send_intercept t ~sw spec =
  Netsim.Net.send t.net (Monitor.conn t.monitor) ~sw
    (Ofproto.Message.Flow_mod (Ofproto.Message.Add_flow spec))

let install_intercepts t =
  let sent_at = now t in
  List.iter
    (fun sw ->
      let specs = Wire.intercept_specs () in
      List.iter (send_intercept t ~sw) specs;
      Hashtbl.replace t.intercepts_sent sw (List.map (fun spec -> (spec, sent_at)) specs))
    (Netsim.Topology.switches (topo t))

(* The intercept Flow_mods travel the same faulty channel as every
   other control message; a lost Add_flow would leave that switch
   permanently blind to client requests and auth replies — a failure
   mode no protocol-level retry can recover from.  So every
   observation of a switch checks its believed table for the
   intercepts, and a missing one is re-sent unless an install of it is
   already in flight.  An in-flight install counts as lost — and is
   re-sent — only on evidence: a poll that still lacks it, its own
   deletion, or any observation a control round trip ([auth_timeout])
   after it was sent.  The in-flight rule matters at set-up, where the
   provider's rule events reach the monitor before the service's own
   install is observed.  Installs are idempotent (same match + priority
   replaces), and the next poll re-checks, so repair converges even
   when the repair itself is lost. *)
let repair_intercepts t ~sw (what : Monitor.observation) =
  let flows = Snapshot.flows (Monitor.snapshot t.monitor) ~sw in
  let sent = Option.value ~default:[] (Hashtbl.find_opt t.intercepts_sent sw) in
  let now = now t in
  let lost spec sent_at =
    match what with
    | Monitor.Poll _ -> true
    | Monitor.Event (Ofproto.Message.Flow_deleted d) | Monitor.Removed d
      when same_slot d spec ->
      true
    | Monitor.Event _ | Monitor.Removed _ -> now -. sent_at >= t.auth_timeout
  in
  let in_flight =
    List.filter_map
      (fun spec ->
        if List.exists (same_slot spec) flows then None
        else
          match List.find_opt (fun (s, _) -> same_slot s spec) sent with
          | Some (_, sent_at) when not (lost spec sent_at) -> Some (spec, sent_at)
          | Some _ | None ->
            t.stats.intercepts_reinstalled <- t.stats.intercepts_reinstalled + 1;
            send_intercept t ~sw spec;
            Some (spec, now))
      (Wire.intercept_specs ())
  in
  if in_flight = [] then Hashtbl.remove t.intercepts_sent sw
  else Hashtbl.replace t.intercepts_sent sw in_flight

let create ?(retry = no_retry) ?(engine : Plumbing.engine = `Sweep)
    ?(frontend = Frontend.default_config) net monitor ~directory ~geo ~keypair
    ~auth_timeout () =
  if retry.attempts < 1 then invalid_arg "Service.create: retry.attempts must be >= 1";
  if retry.base_delay < 0.0 then invalid_arg "Service.create: negative retry.base_delay";
  let ctx =
    Verifier.context
      ~flows_of:(fun sw -> Snapshot.flows (Monitor.snapshot monitor) ~sw)
      (Netsim.Net.topology net)
  in
  let t =
    {
      net;
      monitor;
      directory;
      geo;
      keypair;
      auth_timeout;
      retry;
      live = true;
      stats =
        {
          queries_received = 0;
          queries_rejected = 0;
          queries_throttled = 0;
          queries_duplicate = 0;
          auth_requests_sent = 0;
          auth_retransmissions = 0;
          auth_replies_accepted = 0;
          auth_replies_duplicate = 0;
          auth_replies_rejected = 0;
          answers_sent = 0;
          intercepts_reinstalled = 0;
          queries_reissued = 0;
        };
      rng = Support.Rng.split (Netsim.Sim.rng (Netsim.Net.sim net));
      pending = Hashtbl.create 16;
      open_queries = Hashtbl.create 16;
      frontend = Frontend.create frontend;
      coalesced = Frontend.Key_table.create 16;
      subsumable = Hashtbl.create 16;
      queued_nonces = Hashtbl.create 16;
      measurement = Cryptosim.Attest.measure ~code_identity;
      ctx;
      cache = Reach_cache.create ();
      intercepts_sent = Hashtbl.create 64;
      plumbing =
        (match engine with `Sweep -> None | `Compiled -> Some (Plumbing.create ctx));
    }
  in
  Monitor.on_observation monitor (fun ~sw what ~changed ->
      if changed then begin
        (* Delta invalidation: only entries whose reach pass traversed
           [sw] can be stale; everything else survives the Flow-Mod. *)
        Reach_cache.invalidate_switch t.cache ~sw;
        (* [sw]'s guards leave the one context; the compiled memo also
           bumps [sw]'s version, so only sources that traversed it
           re-derive. *)
        match t.plumbing with
        | Some plumbing -> Plumbing.update plumbing ~sw
        | None -> Verifier.invalidate_switch t.ctx ~sw
      end;
      (* Intercept repair runs on every observation, changed or not:
         it is poll-driven and must converge even when the repair
         Flow-Mod itself was lost (see [repair_intercepts]). *)
      repair_intercepts t ~sw what);
  Monitor.set_packet_in_handler monitor (fun ~sw ~in_port ~header ~payload ->
      handle_packet_in t ~sw ~in_port ~header ~payload);
  install_intercepts t;
  t

(* ---- crash recovery ---- *)

let kill t = t.live <- false

let live t = t.live

let open_query_count t = Hashtbl.length t.open_queries

let pending_probe_count t = Hashtbl.length t.pending

let frontend_stats t = Frontend.stats t.frontend

let frontend_config t = Frontend.config t.frontend

let coalesce_rate t = Frontend.coalesce_rate t.frontend

let subsume_rate t = Frontend.subsume_rate t.frontend

let reinstall_intercepts t = install_intercepts t

(* Re-drive an integrity query recovered from the journal: fresh
   challenges (the old ones died — possibly observably — with the old
   session), a fresh evaluation against the resynchronised snapshot,
   and a fresh finalize deadline. *)
let reissue t (q : Journal.query_open) =
  t.stats.queries_reissued <- t.stats.queries_reissued + 1;
  open_query t ~client:q.q_client ~nonce:q.q_nonce ~sw:q.q_sw ~port:q.q_port
    ~ip:(Option.value ~default:0 q.q_ip) q.q_query

(* After a session re-establishment on the *same* controller instance
   (partition healed): every still-open query retransmits its
   unanswered challenges — re-keyed, so a reply to a challenge that
   leaked during the partition is rejected — and re-arms its finalize
   deadline. *)
let retransmit_pending t =
  (* Coalescing maps many nonces to one pending: dedupe by physical
     identity so a shared computation retransmits (and re-arms) once,
     not once per waiting requester. *)
  let open_now =
    Hashtbl.fold
      (fun _ p acc -> if List.memq p acc then acc else p :: acc)
      t.open_queries []
  in
  List.iter
    (fun p ->
      if not p.finalized then
        if p.probes = [] then finalize t p
        else begin
          List.iter
            (fun probe ->
              if not probe.seen_authenticated then begin
                Hashtbl.remove t.pending probe.challenge;
                probe.challenge <- fresh_hex t;
                Hashtbl.replace t.pending probe.challenge p;
                send_auth_request t probe
              end)
            p.probes;
          arm_finalize t p
        end)
    open_now
