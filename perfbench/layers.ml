(* The traced run and its per-layer metrics.

   One deployment is set up (traced, so [Scenario.build] gets a span),
   then driven three times with the same amount of work: with tracing
   off (the source of every count), with spans on and the replays
   capturing, and with tracing off again.  The overhead is the traced
   pass against the mean of the two untraced ones.
   Timings are drift-corrected with the factor of the phase they were
   taken in. *)

open Common

(* The end-to-end metrics the JSON result carries (BENCHMARK.json).
   Printed but left out: the simulated-latency percentiles, which on
   these drives reduce to a few protocol constants that read the same
   for every seed, and the wall-latency tails: over ten runs p99 spread
   20-24 % between seeds on the probe workloads (a sparse
   Transfer_summary tail) and p95 34 % on churn-ingest (sub-millisecond
   noise), too wide for any bound the benchmark may set. *)
let end_to_end_names =
  [ "setup_s"; "answers_per_s"; "answer_wall_p50_ms"; "sim_per_wall"; "peak_rss_mb" ]

let factor (t : Drift.timing) = if t.raw > 0.0 then t.corrected /. t.raw else 1.0

let traced set_up drive scenario =
  Trace.enabled := true;
  let phases, failed = set_up 1 in
  Trace.enabled := false;
  let s = scenario () in
  let build_s =
    match List.assoc_opt "scenario.build" (Trace.self_times ()) with
    | Some (_, dur, _) -> dur *. factor (List.hd phases)
    | None -> 0.0
  in
  (* Untraced pass: counts, and the reference for the overhead. *)
  let before = counters s () in
  let r0 = result (Drift.phase ()) in
  r0.setups <- phases;
  r0.failed <- failed;
  drive r0;
  let after = counters s () in
  let count k = List.assoc k after - List.assoc k before in
  (* Traced pass. *)
  Replay.start s;
  let since = Drift.now () in
  Trace.enabled := true;
  let r1 = result (Drift.phase ()) in
  r1.setups <- phases;
  drive r1;
  Trace.enabled := false;
  let t = Option.get !Replay.current in
  Replay.current := None;
  (* A second untraced pass, so warm-up over the three passes cancels
     out of the overhead. *)
  let r2 = result (Drift.phase ()) in
  drive r2;
  let (), _, refs = Drift.time_once (fun () -> Replay.finish t) in
  let f1 = factor (Drift.timing r1.timed) and frp = Drift.nominal_ref_ms /. Drift.median refs in
  let spans = Trace.self_times ~since () in
  let self name =
    match List.assoc_opt name spans with
    | Some (n, _, self) when n > 0 -> (1e6 *. self *. f1 /. float_of_int n, n)
    | _ -> (0.0, 0)
  in
  let replayed ?(f = frp) name =
    let us, n = Trace.mean_us name in
    (us *. f, n)
  in
  let answers = float_of_int (max 1 r0.answered) in
  let per_answer k = (float_of_int (count k) /. answers, r0.answered) in
  let share k = (float_of_int k /. float_of_int (max 1 t.reaches), t.reaches) in
  let run_self, _ = self "scenario.run" in
  let run_spans = match List.assoc_opt "scenario.run" spans with Some (n, _, _) -> n | None -> 0 in
  let run_events = Trace.delta ~since "scenario.run" "sim.executed" in
  let plumbing = Rvaas.Plumbing.stats t.plumbing in
  let service = Scenario.service s in
  let gc = Gc.quick_stat () in
  let layers =
    [
      ("codec.decode_request_us", replayed "codec.decode_request", "us");
      ("codec.encode_auth_request_us", replayed "codec.encode_auth_request", "us");
      ("codec.decode_auth_reply_us", replayed "codec.decode_auth_reply", "us");
      ("codec.encode_answer_us", replayed "codec.encode_answer", "us");
      ( "service.signatures_per_answer",
        ( float_of_int (count "service.answers" + count "service.auth_requests") /. answers,
          r0.answered ),
        "count" );
      ("service.inject_us", self "service.inject_query", "us");
      ("service.auth_requests_per_answer", per_answer "service.auth_requests", "count");
      ("frontend.submit_us", replayed "frontend.submit", "us");
      ("frontend.flush_us", replayed "frontend.flush", "us");
      ("frontend.computations_per_answer", per_answer "frontend.entries", "count");
      ("frontend.coalesce_rate", (Rvaas.Service.coalesce_rate service, r0.answered), "ratio");
      ("frontend.subsume_rate", (Rvaas.Service.subsume_rate service, r0.answered), "ratio");
      ("verifier.reach_us", replayed ~f:f1 "verifier.reach", "us");
      ( "verifier.rule_visits_per_query",
        (float_of_int t.rule_visits /. float_of_int (max 1 t.reaches), t.reaches),
        "count" );
      ("plumbing.compile_s", (fst (replayed ~f:f1 "plumbing.compile") /. 1e6, 1), "s");
      ("plumbing.stale_reach_us", replayed ~f:f1 "plumbing.stale_reach", "us");
      ("plumbing.stale_share", share t.stale, "ratio");
      ("plumbing.fallback_reach_us", replayed ~f:f1 "plumbing.fallback_reach", "us");
      ("plumbing.fallback_share", share t.fallback, "ratio");
      ("plumbing.lookup_us", replayed ~f:f1 "plumbing.lookup", "us");
      ("plumbing.warm_us", replayed ~f:f1 "plumbing.warm", "us");
      ("plumbing.update_us", replayed ~f:f1 "plumbing.update", "us");
      ("plumbing.recompiles", (float_of_int plumbing.recompiles, plumbing.updates), "count");
      ("snapshot.apply_event_us", replayed "snapshot.apply_event", "us");
      ("snapshot.switch_digest_us", replayed "snapshot.switch_digest", "us");
      ("snapshot.replace_flows_us", replayed "snapshot.replace_flows", "us");
      ("snapshot.digest_us", replayed "snapshot.digest", "us");
      ( "monitor.observations_per_sim_s",
        ( float_of_int (count "monitor.events" + count "monitor.polls") /. Float.max r0.sim_s 1e-9,
          count "monitor.events" + count "monitor.polls" ),
        "1/s" );
      ("scenario.build_s", (build_s, 1), "s");
      ("provider.flow_mods", (float_of_int (Sdnctl.Provider.rule_count s.provider), 1), "count");
      ("sim.events_per_answer", per_answer "sim.executed", "count");
      ( "net.packets_per_answer",
        ( float_of_int (count "net.delivered" + count "net.packet_ins") /. answers,
          r0.answered ),
        "count" );
      ( "sim.run_us_per_event",
        (run_self *. float_of_int run_spans /. float_of_int (max 1 run_events), run_events),
        "us" );
      ("client.callback_us", self "client.callback", "us");
      ("gc.minor_words_per_answer", per_answer "gc.minor_words", "count");
      ("gc.major_collections", (float_of_int (count "gc.major_collections"), 1), "count");
      ("gc.top_heap_mb", (float_of_int gc.top_heap_words *. 8.0 /. 1048576.0, 1), "MB");
      ( "trace.overhead_pct",
        ( 100.0
          *. ((2.0 *. Drift.corrected r1.timed
              /. (Drift.corrected r0.timed +. Drift.corrected r2.timed))
             -. 1.0),
          1 ),
        "%" );
    ]
  in
  r0.counts <- r0.counts @ [ ("plumbing_fallbacks", t.fallback) ];
  r0.failed <- r0.failed + r1.failed + r2.failed;
  r0.attempted <- r0.attempted + r1.attempted + r2.attempted;
  (r0, List.map (fun (name, (v, n), unit) -> (name, v, unit, n)) layers, spans)

let print spans layers =
  List.iter
    (fun (name, (n, dur, self)) ->
      Printf.printf "span %-22s count=%-8d total_ms=%.3f self_ms=%.3f\n" name n (1000.0 *. dur)
        (1000.0 *. self))
    spans;
  List.iter
    (fun (name, v, unit, n) -> Printf.printf "layer %-34s %14.4f %-5s n=%d\n" name v unit n)
    layers
