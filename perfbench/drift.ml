(* Drift correction.

   The machines this benchmark runs on change speed by up to 1.5x over
   tens of seconds, and the slowdown hits allocation-heavy code: a pure
   pointer chase does not track it, a kernel that allocates and chases
   pointers through a fresh heap, like the program, does.  A helper
   process, forked before any world is built, runs such a kernel on
   request; the benchmark asks for samples at the block boundaries of
   every timed phase, outside every timed interval, while it is itself
   blocked, so the two never compete for a CPU.  A block's timing is
   corrected as

     corrected = raw * nominal_ref_ms / measured_ref_ms

   where [measured_ref_ms] is the median of the samples around the block
   (see [factors]).  The kernel shares no code with the program, and
   running it in its own process keeps its heap out of the program's
   peak RSS and the program's heap size out of the reference. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Fixed once: the kernel's median time on the machine the bounds were
   set on (2 vCPU Xeon, OCaml 5.1.1).  Corrected timings are expressed
   at that reference speed. *)
let nominal_ref_ms = 8.0

(* A fresh heap of linked records per run: a string-keyed table over
   them, short-lived lists and strings, and a pointer chase through the
   records (about 5 MiB allocated, most of it promoted). *)
type node = { id : int; key : string; items : int list; mutable next : node option }

let records = 10_000

let kernel () =
  let live =
    Array.init records (fun i ->
        { id = i; key = string_of_int i; items = List.init 4 (fun k -> i + k); next = None })
  in
  let tbl = Hashtbl.create 16 in
  Array.iter (fun r -> Hashtbl.replace tbl r.key r) live;
  Array.iteri (fun i r -> r.next <- Some live.(i * 7919 mod records)) live;
  let acc = ref 0 in
  for i = 0 to records - 1 do
    match Hashtbl.find_opt tbl (string_of_int (i * 104_729 mod records)) with
    | Some r -> acc := !acc + List.fold_left ( + ) 0 r.items
    | None -> ()
  done;
  let cur = ref live.(1) in
  for _ = 1 to records do
    cur := match !cur.next with Some r -> r | None -> live.(1)
  done;
  !acc + !cur.id

type helper = { pid : int; req : out_channel; resp : in_channel }

let helper = ref None

let serve req resp =
  let ic = Unix.in_channel_of_descr req and oc = Unix.out_channel_of_descr resp in
  ignore (Sys.opaque_identity (kernel ()));
  (try
     while true do
       ignore (input_char ic);
       Gc.full_major ();
       let t0 = now () in
       ignore (Sys.opaque_identity (kernel ()));
       Printf.fprintf oc "%.6f\n%!" (1000.0 *. (now () -. t0))
     done
   with End_of_file -> ());
  Unix._exit 0

let stop () =
  match !helper with
  | None -> ()
  | Some h ->
    helper := None;
    close_out_noerr h.req;
    close_in_noerr h.resp;
    ignore (Unix.waitpid [] h.pid)

(* Fork the helper.  Must run before the program spawns any domain. *)
let start () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close resp_r;
    serve req_r resp_w
  | pid ->
    Unix.close req_r;
    Unix.close resp_w;
    helper :=
      Some
        {
          pid;
          req = Unix.out_channel_of_descr req_w;
          resp = Unix.in_channel_of_descr resp_r;
        };
    at_exit stop

(* One reference sample in ms.  The caller is blocked meanwhile. *)
let sample () =
  match !helper with
  | None -> failwith "Drift.sample: helper not started"
  | Some h ->
    output_char h.req 's';
    flush h.req;
    float_of_string (input_line h.resp)

(* A timed phase: wall time accumulated over slices, in blocks.  Each
   block boundary takes one reference sample.  A block is corrected by
   the median of the samples at its own two boundaries and the two
   beyond each side: the drift moves over tens of seconds, so smoothing
   over a few blocks removes the noise of single samples (which a tail
   percentile would otherwise pick up) without losing the drift. *)
type phase = {
  mutable blocks : float list;  (** raw seconds of each closed block, newest first *)
  mutable boundaries : float list;  (** the sample at each boundary, newest first *)
  mutable block_raw : float;  (** seconds inside slices of the open block *)
  mutable started : float;  (** start of the open slice, or nan *)
}

let take n = List.init n (fun _ -> sample ())

let phase () = { blocks = []; boundaries = [ sample () ]; block_raw = 0.0; started = Float.nan }

let open_slice p = p.started <- now ()

let close_slice p =
  p.block_raw <- p.block_raw +. (now () -. p.started);
  p.started <- Float.nan

(* Index of the open block. *)
let block p = List.length p.blocks

let end_block p =
  p.blocks <- p.block_raw :: p.blocks;
  p.block_raw <- 0.0;
  p.boundaries <- sample () :: p.boundaries

let raw p = List.fold_left ( +. ) 0.0 p.blocks

(* Wall time spent inside slices so far, the open slice included. *)
let elapsed p =
  raw p +. p.block_raw +. if Float.is_nan p.started then 0.0 else now () -. p.started

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Correction factor of each closed block, oldest first. *)
let factors p =
  let bounds = Array.of_list (List.rev p.boundaries) in
  let nb = Array.length bounds in
  Array.init (List.length p.blocks) (fun b ->
      let lo = max 0 (b - 2) and hi = min (nb - 1) (b + 3) in
      nominal_ref_ms /. median (Array.to_list (Array.sub bounds lo (hi - lo + 1))))

let corrected p =
  let f = factors p in
  List.fold_left ( +. ) 0.0 (List.mapi (fun b raw -> raw *. f.(b)) (List.rev p.blocks))

let ref_ms p = List.fold_left ( +. ) 0.0 p.boundaries /. float_of_int (List.length p.boundaries)

(* A finished phase in three numbers. *)
type timing = { raw : float; corrected : float; ref_ms : float }

let timing p = { raw = raw p; corrected = corrected p; ref_ms = ref_ms p }

(* Time one call, with five samples on each side: it cannot be split
   into blocks.  Returns the result, the raw seconds and the samples. *)
let time_once f =
  let before = take 5 in
  let t0 = now () in
  let x = f () in
  let raw = now () -. t0 in
  (x, raw, before @ take 5)

(* Single calls of one run, corrected together by the median of all
   their samples: the ends of one long call say less about the machine
   during it than the whole run's samples do. *)
let pooled calls =
  let m = median (List.concat_map snd calls) in
  List.map (fun (raw, _) -> { raw; corrected = raw *. nominal_ref_ms /. m; ref_ms = m }) calls
