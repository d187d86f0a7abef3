(* perfbench: the repository's benchmark.  See README.md.

   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Prints a human-readable report, then, as the last line of stdout, one
   JSON object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   per-layer ones from a separate traced pass. *)

open Common

let workloads = [ "flash-crowd"; "tenant-probe"; "rewrite-attack"; "churn-ingest" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload <flash-crowd|tenant-probe|rewrite-attack|churn-ingest> --seed <n> \
     --seconds <s> --trace <0|1>";
  exit 2

let parse argv =
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let seconds = int "seconds" in
  if seconds < 1 then usage ();
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  (workload, int "seed", float_of_int seconds, trace)

(* The commit of a git checkout, read from [.git] directly; "unknown"
   elsewhere. *)
let commit () =
  let read path =
    match open_in path with
    | exception Sys_error _ -> None
    | ic ->
      let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
      close_in ic;
      line
  in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    let name = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" name) with
    | Some sha -> sha
    | None -> (
      match open_in ".git/packed-refs" with
      | exception Sys_error _ -> "unknown"
      | ic ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> "unknown"
          | l -> (
            match String.split_on_char ' ' l with
            | [ sha; r ] when r = name -> sha
            | _ -> scan ())
        in
        let sha = scan () in
        close_in ic;
        sha))
  | Some sha -> sha
  | None -> "unknown"

(* A workload, its state hidden behind closures. *)
type workload = {
  set_ups : int;  (** deployments set up per untraced run *)
  set_up : int -> Drift.timing list * int;  (** set-up timings, failures *)
  drive : result -> unit;
  scenario : unit -> Scenario.t;
}

let pack (type a) ~set_ups ~(setup : unit -> a) ~(verify : result -> a -> int) ~(drive : result -> a -> unit)
    ~(scenario : a -> Scenario.t) =
  let state = ref None in
  let get () = Option.get !state in
  {
    set_ups;
    set_up =
      (fun n ->
        let x, phases, failed = setups n ~setup ~verify:(verify (result (Drift.phase ()))) in
        state := Some x;
        (phases, failed));
    drive = (fun r -> drive r (get ()));
    scenario = (fun () -> scenario (get ()));
  }

let workload name ~seed ~seconds =
  let open Workloads in
  match name with
  | "flash-crowd" ->
    pack ~set_ups:Flash.set_ups ~setup:(Flash.setup seed) ~verify:Flash.verify ~drive:(Flash.drive ~seed ~seconds)
      ~scenario:(fun (st, _) -> st.Flash.s)
  | "tenant-probe" | "rewrite-attack" ->
    pack ~set_ups:Probe.set_ups
      ~setup:(Probe.setup ~attack:(name = "rewrite-attack") seed)
      ~verify:Probe.verify ~drive:(Probe.drive ~seconds)
      ~scenario:(fun (st, _) -> st.Probe.s)
  | _ ->
    pack ~set_ups:Ingest.set_ups ~setup:(Ingest.setup seed) ~verify:Ingest.verify ~drive:(Ingest.drive ~seed ~seconds)
      ~scenario:(fun (st, _) -> st.Ingest.s)

let fmt_list f xs = "[" ^ String.concat " " (List.map f xs) ^ "]"

(* End-to-end metrics: (name, value, unit, sample count). *)
let end_to_end (r : result) =
  let wall = corrected_wall r and simv = Samples.to_array r.sim_ms in
  let timed = Drift.corrected r.timed in
  let setup = Drift.median (List.map (fun (t : Drift.timing) -> t.corrected) r.setups) in
  [
    ("setup_s", setup, "s", List.length r.setups);
    ("answers_per_s", float_of_int r.answered /. timed, "1/s", r.answered);
    ("answer_wall_p50_ms", percentile 0.5 wall, "ms", Array.length wall);
    ("answer_wall_p95_ms", percentile 0.95 wall, "ms", Array.length wall);
    ("answer_wall_p99_ms", percentile 0.99 wall, "ms", Array.length wall);
    ("answer_sim_p50_ms", percentile 0.5 simv, "ms", Array.length simv);
    ("answer_sim_p99_ms", percentile 0.99 simv, "ms", Array.length simv);
    ("sim_per_wall", r.sim_s /. timed, "s/s", 1);
    ("peak_rss_mb", peak_rss_mb (), "MB", 1);
  ]

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, v, unit, _) -> Printf.sprintf "%S: {\"value\": %.10g, \"unit\": %S}" name v unit)
       ms)

let print_report workload ~seed ~seconds ~trace (r : result) metrics =
  Printf.printf "perfbench workload=%s seed=%d seconds=%.0f trace=%d\n" workload seed seconds
    (if trace then 1 else 0);
  Printf.printf "env: commit=%s nproc=%d pool=%d ocaml=%s %s ref_nominal_ms=%.3f ref_ms=%.3f\n"
    (commit ())
    (Domain.recommended_domain_count ())
    (Support.Pool.default_size ())
    Sys.ocaml_version
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.world))
    Drift.nominal_ref_ms (Drift.ref_ms r.timed);
  Printf.printf "setup: raw_s=%s corrected_s=%s ref_ms=%s\n"
    (fmt_list (Printf.sprintf "%.4f") (List.map (fun (t : Drift.timing) -> t.raw) r.setups))
    (fmt_list (Printf.sprintf "%.4f") (List.map (fun (t : Drift.timing) -> t.corrected) r.setups))
    (fmt_list (Printf.sprintf "%.3f") (List.map (fun (t : Drift.timing) -> t.ref_ms) r.setups));
  Printf.printf "timed: raw_wall_s=%.4f corrected_s=%.4f ref_ms=%.3f blocks=%d sim_s=%.3f\n"
    (Drift.raw r.timed) (Drift.corrected r.timed) (Drift.ref_ms r.timed) (Drift.block r.timed)
    r.sim_s;
  List.iter
    (fun (name, v, unit, n) -> Printf.printf "metric %-20s %14.4f %-5s n=%d\n" name v unit n)
    metrics;
  let raw = Samples.to_array r.wall_ms in
  Printf.printf
    "raw: setup_s=%.6g answers_per_s=%.6g answer_wall_p50_ms=%.6g answer_wall_p95_ms=%.6g \
     answer_wall_p99_ms=%.6g sim_per_wall=%.6g\n"
    (Drift.median (List.map (fun (t : Drift.timing) -> t.raw) r.setups))
    (float_of_int r.answered /. Drift.raw r.timed)
    (percentile 0.5 raw) (percentile 0.95 raw) (percentile 0.99 raw) (r.sim_s /. Drift.raw r.timed);
  Printf.printf "metric %-20s %14.6f %-5s n=%d\n" "failed_frac"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    "ratio" r.attempted;
  Printf.printf "counts: %s\n%!"
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.counts))

let json ~failed ~attempted metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) (max 1 attempted) failed (json_metrics metrics)

let untraced w =
  let phases, failed = w.set_up w.set_ups in
  let r = result (Drift.phase ()) in
  r.setups <- phases;
  r.failed <- failed;
  w.drive r;
  r

let () =
  let name, seed, seconds, trace = parse Sys.argv in
  Drift.start ();
  let w = workload name ~seed ~seconds in
  if not trace then begin
    let r = untraced w in
    let metrics = end_to_end r in
    print_report name ~seed ~seconds ~trace r metrics;
    json ~failed:r.failed ~attempted:r.attempted
      (List.filter (fun (m, _, _, _) -> List.mem m Layers.end_to_end_names) metrics)
  end
  else begin
    let r, layers, spans = Layers.traced w.set_up w.drive w.scenario in
    print_report name ~seed ~seconds ~trace r (end_to_end r);
    Layers.print spans layers;
    let dir = ".perfbench_out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Printf.sprintf "%s/spans-%s-%d.jsonl" dir name seed in
    Trace.write path;
    Printf.printf "spans: %d written to %s\n" (List.length !Trace.spans) path;
    json ~failed:r.failed ~attempted:r.attempted layers
  end
