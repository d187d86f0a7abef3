type config = {
  heartbeat_period : float;
  takeover_timeout : float;
  check_period : float;
  checkpoint_every : int;
  standbys : int;
  auto_compact : bool;
  replica_lag : int; (* record bound on each standby's replica tail *)
  replica_delay : float; (* in-transit delay of replica frames (sim time) *)
}

let default_config =
  {
    heartbeat_period = 0.01;
    takeover_timeout = 0.05;
    check_period = 0.01;
    checkpoint_every = 64;
    standbys = 1;
    auto_compact = false;
    replica_lag = 8;
    replica_delay = 0.0;
  }

type report = {
  crashed_at : float;
  detected_at : float;
  taken_over_at : float;
  mutable resynced_at : float;
  replayed_entries : int;
  reissued_queries : int;
  reconciled_records : int; (* replica frames the winner applied pre-takeover *)
  generation : int;
  winner : int;
}

type build =
  journal:Journal.t ->
  snapshot:Snapshot.t option ->
  prefill:Monitor.history_entry list ->
  conn:Netsim.Net.conn option ->
  Monitor.t * Service.t

(* One warm standby.  [sb_claim] is set while it has a journalled
   claim pending decision; [sb_next_claim] implements the post-loss
   back-off that lets a stale claim expire before re-claiming.
   [sb_replica] is the standby's own lag-bounded tail of the primary's
   journal — every read in the election (staleness, competing claims)
   goes through it, never through the primary's memory. *)
type standby = {
  sid : int;
  sb_replica : Support.Replica.t;
  mutable sb_partitioned : bool;
  mutable sb_claim : (float * int) option; (* claimed_at, generation then *)
  mutable sb_next_claim : float;
}

type t = {
  net : Netsim.Net.t;
  config : config;
  journal : Journal.t;
  build : build;
  mutable monitor : Monitor.t;
  mutable service : Service.t;
  mutable crashed_at : float option;
  mutable takeovers : report list; (* newest first *)
  mutable resyncs : int; (* same-instance session re-establishments *)
  mutable standby_pool : standby list; (* ascending sid *)
}

let sim t = Netsim.Net.sim t.net

let now t = Netsim.Sim.now (sim t)

let monitor t = t.monitor

let service t = t.service

let journal t = t.journal

let generation t = Support.Journal.generation (Journal.log t.journal)

let takeovers t = List.rev t.takeovers

let last_takeover t = match t.takeovers with [] -> None | r :: _ -> Some r

let resyncs t = t.resyncs

(* Observations in the journal's valid prefix, as history entries: a
   recovered controller keeps the audit trail the detector reads. *)
let prefill_of_journal log =
  List.filter_map
    (fun (e : Support.Journal.entry) ->
      match Journal.decode_entry e with
      | Ok (Journal.Observation { sw; event }) ->
        Some { Monitor.at = e.at; sw; what = Monitor.Event event }
      | Ok _ | Error _ -> None)
    (Support.Journal.valid_prefix log)

(* The heartbeat keeps [last_at] of the journal fresh while this
   incarnation lives — its silence is what a standby's staleness check
   detects. *)
let arm_heartbeat t =
  let service = t.service in
  Netsim.Sim.every (sim t) ~period:t.config.heartbeat_period (fun () ->
      if Service.live service then begin
        Journal.heartbeat t.journal ~at:(now t);
        true
      end
      else false)

(* Same-instance session guard: a partition (session down, service
   still live) is healed by re-establishing the session and
   resynchronising — fresh stats sweep, interception re-install,
   retransmission of every unanswered challenge under fresh
   challenges. *)
let arm_session_guard t =
  let service = t.service in
  Netsim.Sim.every (sim t) ~period:t.config.check_period (fun () ->
      if not (Service.live service) then false
      else begin
        let conn = Monitor.conn t.monitor in
        if not (Netsim.Net.conn_up conn) then begin
          t.resyncs <- t.resyncs + 1;
          Netsim.Net.reconnect t.net conn;
          Service.reinstall_intercepts service;
          Monitor.poll_now t.monitor;
          Service.retransmit_pending service
        end;
        true
      end)

let arm_resync_watch t (r : report) =
  let monitor = t.monitor in
  Netsim.Sim.every (sim t) ~period:t.config.check_period (fun () ->
      if Monitor.outstanding_polls monitor = 0 then begin
        if r.resynced_at < r.detected_at then r.resynced_at <- now t;
        false
      end
      else true)

(* Takeover: bump the generation (journalled — the log is an audit
   trail of incarnations), replay the valid prefix into a fresh
   snapshot, re-attach over the existing session registration,
   re-install interception, resynchronise with an immediate poll
   sweep, and re-issue every query that was in flight at the crash. *)
let takeover ?(reconciled = 0) t ~detected_at ~winner =
  let log = Journal.log t.journal in
  let generation = Support.Journal.begin_generation log ~at:(now t) in
  let recovery = Journal.recover log in
  let old_conn = Monitor.conn t.monitor in
  Netsim.Net.reconnect t.net old_conn;
  let monitor, service =
    t.build ~journal:t.journal ~snapshot:(Some recovery.snapshot)
      ~prefill:(prefill_of_journal log) ~conn:(Some old_conn)
  in
  t.monitor <- monitor;
  t.service <- service;
  Monitor.poll_now monitor;
  List.iter (fun q -> Service.reissue service q) recovery.open_queries;
  Journal.checkpoint t.journal ~at:(now t) ~snapshot:(Monitor.snapshot monitor);
  let report =
    {
      crashed_at = Option.value ~default:(now t) t.crashed_at;
      detected_at;
      taken_over_at = now t;
      resynced_at = 0.0;
      replayed_entries = recovery.replayed;
      reissued_queries = List.length recovery.open_queries;
      reconciled_records = reconciled;
      generation;
      winner;
    }
  in
  t.takeovers <- report :: t.takeovers;
  t.crashed_at <- None;
  arm_heartbeat t;
  arm_session_guard t;
  arm_resync_watch t report;
  report

let restart t = takeover t ~detected_at:(now t) ~winner:(-1)

(* ---- quorum takeover ----

   Several warm standbys each tail their own lag-bounded replica of
   the primary's journal ([Support.Replica]); every election read —
   staleness, competing claims — goes through the standby's replica
   view, never the primary's memory.  Staleness is judged by the
   freshest {e non-claim} entry the replica holds (claims are standby
   writes and must not mask a dead primary).  A standby that observes
   staleness journals a claim, waits one claim window ([check_period]
   plus the replica delay, so lagging replicas see competing claims)
   for rivals to land, then decides over the {e merge} of every
   non-partitioned standby's replica view: the lowest standby id among
   unexpired claims wins — a replica may lag and still vote and win —
   reconciles its replica to the longest verified chain prefix
   ([Replica.catch_up]) and takes over; losers back off one claim TTL
   so expired claims drain before anyone re-claims.  Two generations
   can never run concurrently: the decision re-checks that no takeover
   happened since the claim (generation guard) and that the service is
   still dead, and a partitioned standby's replica neither receives
   frames nor contributes to the merge, so it can never win an
   election it did not observe. *)

let claim_window t = t.config.check_period +. t.config.replica_delay

let claim_ttl t =
  Float.max t.config.takeover_timeout (2.0 *. t.config.check_period)
  +. t.config.replica_delay

(* Judged from the standby's own replica: a lagging replica sees an
   older tail, so its staleness estimate is conservative (it can only
   over-estimate, never miss a genuinely dead primary). *)
let primary_stale t (s : standby) ~now:now_ =
  match
    Support.Journal.find_newest (Support.Replica.view s.sb_replica) ~f:(fun e ->
        not (String.equal e.tag Journal.claim_tag))
  with
  | None -> false
  | Some e -> now_ -. e.at > t.config.takeover_timeout

(* Standby ids with an unexpired claim, merged over every
   non-partitioned standby's replica view: no single replica needs to
   hold all claims for the election to see them. *)
let claimants t ~now:now_ =
  let ttl = claim_ttl t in
  List.concat_map
    (fun (s : standby) ->
      if s.sb_partitioned then []
      else
        List.filter_map
          (fun (e : Support.Journal.entry) ->
            if String.equal e.tag Journal.claim_tag && now_ -. e.at <= ttl then
              match Journal.decode_entry e with
              | Ok (Journal.Claim { sid }) -> Some sid
              | Ok _ | Error _ -> None
            else None)
          (Support.Journal.entries (Support.Replica.view s.sb_replica)))
    t.standby_pool
  |> List.sort_uniq compare

let standby_tick t (s : standby) () =
  if s.sb_partitioned then true
  else begin
    let now_ = now t in
    let delivered0 = Support.Replica.delivered s.sb_replica in
    Support.Replica.pump s.sb_replica ~now:now_;
    if Service.live t.service then begin
      (* healthy primary (possibly a fresh winner): drop any claim *)
      s.sb_claim <- None;
      true
    end
    else if not (primary_stale t s ~now:now_) then begin
      s.sb_claim <- None;
      true
    end
    else begin
      match s.sb_claim with
      | None ->
        if now_ >= s.sb_next_claim then begin
          Journal.claim t.journal ~at:now_ ~sid:s.sid;
          s.sb_claim <- Some (now_, generation t)
        end;
        true
      | Some (claimed_at, claim_gen) ->
        if now_ -. claimed_at < claim_window t then true
        else if generation t <> claim_gen then begin
          (* someone took over while we waited: rejoin as standby *)
          s.sb_claim <- None;
          true
        end
        else begin
          let lowest = List.fold_left min s.sid (claimants t ~now:now_) in
          s.sb_claim <- None;
          if lowest = s.sid then begin
            (* winner reconciliation: apply every replica frame still
               in transit, so takeover recovers from the longest
               verified chain prefix this standby can reach.  The
               count covers the whole decision tick — a lagging
               replica's backlog drains partly in this tick's pump,
               partly in the explicit catch-up. *)
            ignore (Support.Replica.catch_up s.sb_replica);
            let reconciled =
              Support.Replica.delivered s.sb_replica - delivered0
            in
            ignore (takeover t ~detected_at:claimed_at ~winner:s.sid ~reconciled)
          end
          else s.sb_next_claim <- now_ +. claim_ttl t;
          true
        end
    end
  end

(* Arm standbys [0 .. count-1] (adding to any already armed).  Each
   gets its own watchdog timer; [?phase] staggers their first tick —
   tests use it to randomize which standby observes staleness first.
   Standbys stay armed across takeovers: after a winner recovers, the
   losers (and any healed partitioned standby) keep tailing the
   journal, guarding the new incarnation too. *)
let enable_standbys ?phase t ~count =
  if count < 1 then invalid_arg "Failover.enable_standbys: count must be >= 1";
  let existing = List.length t.standby_pool in
  for sid = existing to count - 1 do
    let sb_replica =
      Support.Replica.create ~max_lag:t.config.replica_lag
        ~delay:t.config.replica_delay
        (Journal.log t.journal)
    in
    let s =
      { sid; sb_replica; sb_partitioned = false; sb_claim = None; sb_next_claim = 0.0 }
    in
    t.standby_pool <- t.standby_pool @ [ s ];
    let delay =
      match phase with
      | Some f -> Float.max 0.0 (f sid)
      | None -> 0.0
    in
    let arm () =
      Netsim.Sim.every (sim t) ~period:t.config.check_period (standby_tick t s)
    in
    if delay > 0.0 then Netsim.Sim.schedule (sim t) ~delay arm else arm ()
  done

let enable_standby t = enable_standbys t ~count:(max 1 t.config.standbys)

let standby_count t = List.length t.standby_pool

let find_standby t ~sid fn_name =
  match List.find_opt (fun s -> s.sid = sid) t.standby_pool with
  | Some s -> s
  | None -> invalid_arg (fn_name ^ ": unknown standby id")

(* A partitioned standby is cut off from the journal wholesale: its
   replica stops receiving frames (in-flight ones are lost), it
   neither observes staleness nor writes claims, and its view is
   excluded from the claim merge until healed. *)
let partition_standby t ~sid =
  let s = find_standby t ~sid "Failover.partition_standby" in
  s.sb_partitioned <- true;
  Support.Replica.partition s.sb_replica

let heal_standby t ~sid =
  let s = find_standby t ~sid "Failover.heal_standby" in
  s.sb_partitioned <- false;
  (* the replica resyncs wholesale; anything it believed before the
     partition is stale *)
  Support.Replica.heal s.sb_replica;
  s.sb_claim <- None

let standby_replica t ~sid =
  (find_standby t ~sid "Failover.standby_replica").sb_replica

let crash t =
  if Service.live t.service then begin
    t.crashed_at <- Some (now t);
    Service.kill t.service;
    Monitor.stop_polling t.monitor;
    Netsim.Net.disconnect t.net (Monitor.conn t.monitor)
  end

let partition t = Netsim.Net.disconnect t.net (Monitor.conn t.monitor)

let start ?journal:existing ?(config = default_config) ~build net =
  if config.heartbeat_period <= 0.0 || config.takeover_timeout <= 0.0
     || config.check_period <= 0.0
  then invalid_arg "Failover.start: periods must be positive";
  if config.standbys < 0 then invalid_arg "Failover.start: standbys must be >= 0";
  let journal =
    match existing with
    | Some j -> j
    | None ->
      Journal.create ~checkpoint_every:config.checkpoint_every
        ~auto_compact:config.auto_compact ()
  in
  let log = Journal.log journal in
  let fresh = Support.Journal.length log = 0 in
  let monitor, service =
    if fresh then build ~journal ~snapshot:None ~prefill:[] ~conn:None
    else begin
      (* Restart from a persisted journal: replay, then attach fresh. *)
      ignore (Support.Journal.begin_generation log ~at:0.0);
      let recovery = Journal.recover log in
      build ~journal ~snapshot:(Some recovery.snapshot)
        ~prefill:(prefill_of_journal log) ~conn:None
    end
  in
  let t =
    {
      net;
      config;
      journal;
      build;
      monitor;
      service;
      crashed_at = None;
      takeovers = [];
      resyncs = 0;
      standby_pool = [];
    }
  in
  (* The log always opens with an image: recovery never has to replay
     from an empty snapshot across the whole history. *)
  Journal.checkpoint journal ~at:(now t) ~snapshot:(Monitor.snapshot monitor);
  arm_heartbeat t;
  arm_session_guard t;
  (* Warm standbys tail the journal from the start; [standbys = 0]
     opts out (tests arm explicitly with their own phasing). *)
  if config.standbys > 0 then enable_standbys t ~count:config.standbys;
  t
