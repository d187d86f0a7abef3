(* Spans and per-layer accumulators for the traced run.

   A span is recorded around every call the benchmark makes into the
   program: [Scenario.build], each [Scenario.run] slice,
   [Service.inject_query], [Client_agent.send_query], and the
   benchmark's own callbacks that run inside [run].  Spans of one query
   share a request id.  Coarse spans (build, run slices, query rounds)
   also carry the deltas of the program's counters between their
   boundaries.  Everything stays in memory until [write] at exit.  With
   tracing off every entry point is a direct call. *)

let enabled = ref false

type span = {
  id : int;
  parent : int;
  name : string;
  req : int;
  t0 : float;
  t1 : float;
  deltas : (string * int) list;
}

let spans = ref []

let next_id = ref 0

let stack = ref []

(* The workload registers a snapshot of the counters it can read
   ([Service.stats], front-end and [Net] stats, [Sim.executed], the
   monitor counters, [Gc.quick_stat]). *)
let counters : (unit -> (string * int) list) ref = ref (fun () -> [])

(* Counters registered while the span was open have no start value. *)
let diff before after =
  if List.compare_lengths before after <> 0 then []
  else
    List.map2 (fun (k, a) (_, b) -> (k, b - a)) before after
    |> List.filter (fun (_, d) -> d <> 0)

(* [req] defaults to the enclosing span's request id. *)
let span ?req ?(counted = false) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent, inherited = match !stack with (p, r) :: _ -> (p, r) | [] -> (-1, -1) in
    let req = Option.value req ~default:inherited in
    let before = if counted then !counters () else [] in
    stack := (id, req) :: !stack;
    let t0 = Drift.now () in
    let finish () =
      let t1 = Drift.now () in
      stack := List.tl !stack;
      let deltas = if counted then diff before (!counters ()) else [] in
      spans := { id; parent; name; req; t0; t1; deltas } :: !spans
    in
    match f () with
    | x ->
      finish ();
      x
    | exception e ->
      finish ();
      raise e
  end

(* Per name: (count, total duration, total self time), in seconds, over
   the spans opened at or after [since].  Self time is a span's
   duration minus what its children cover. *)
let self_times ?(since = Float.neg_infinity) () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) +. (s.t1 -. s.t0)))
    !spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.t0 >= since then begin
        let dur = s.t1 -. s.t0 in
        let self = dur -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
        let n, d, sf = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name) in
        Hashtbl.replace by_name s.name (n + 1, d +. dur, sf +. self)
      end)
    !spans;
  List.sort compare (List.of_seq (Hashtbl.to_seq by_name))

(* Summed counter deltas over the spans of [name] opened at or after
   [since]. *)
let delta ~since name key =
  List.fold_left
    (fun acc s ->
      if s.name = name && s.t0 >= since then
        acc + Option.value ~default:0 (List.assoc_opt key s.deltas)
      else acc)
    0 !spans

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"req\":%d,\"start_us\":%.3f,\"end_us\":%.3f,\"deltas\":{%s}}\n"
        s.id s.parent s.name s.req (1e6 *. s.t0) (1e6 *. s.t1)
        (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%d" k v) s.deltas)))
    (List.rev !spans);
  close_out oc

(* Replay timings: name -> (calls, total seconds). *)
let layer_tbl : (string, int * float) Hashtbl.t = Hashtbl.create 32

let record name dt =
  let n, total = Option.value ~default:(0, 0.0) (Hashtbl.find_opt layer_tbl name) in
  Hashtbl.replace layer_tbl name (n + 1, total +. dt)

let time name f =
  let t0 = Drift.now () in
  let x = f () in
  record name (Drift.now () -. t0);
  x

(* Mean time per call in microseconds, and the call count. *)
let mean_us name =
  match Hashtbl.find_opt layer_tbl name with
  | Some (n, total) when n > 0 -> (1e6 *. total /. float_of_int n, n)
  | _ -> (0.0, 0)
