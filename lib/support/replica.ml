(* Lag-bounded replica tail of a journal.

   A replica models the stream a warm standby receives from the
   primary's journal: frames arrive in order but may sit "in transit"
   — bounded by [max_lag] records and [delay] seconds — before they
   are applied to the replica's local view.  The view is a real
   [Journal.t] built with [Journal.ingest], so the standby's election
   logic reads claims and heartbeats from its own (possibly stale)
   replica, not from the primary's memory.

   Time is the entries' own [at] stamps (simulated time), matching the
   rest of the failover machinery: [pump ~now] applies every queued
   frame older than [delay], and the record bound applies frames
   eagerly once more than [max_lag] are queued, so a live replica
   never falls further behind than both bounds allow.

   Partition: a partitioned replica receives nothing (frames in flight
   and frames sent while partitioned are lost).
   Healing performs a full resync from the source — a state snapshot
   transfer — because the chain cannot be re-joined across a gap
   ([Journal.ingest] refuses gaps).  A mid-stream gap from any other
   cause triggers the same resync.

   Compaction on the source enqueues a [Reset] carrying the compacted
   image; on apply the view is replaced wholesale (the replica cannot
   compact incrementally — its base must match the source's).

   [catch_up] applies everything queued regardless of [delay] — the
   reconciliation step a lagging election winner runs before takeover
   — and returns how many frames were applied. *)

type event =
  | Frame of Journal.entry
  | Reset of string (* encoded post-compaction image *)

type t = {
  source : Journal.t;
  mutable view : Journal.t;
  max_lag : int;
  delay : float;
  faults : Storefault.t option;
  mutable queue : (float * event) list; (* (arrival stamp, event), oldest first *)
  mutable partitioned : bool;
  mutable delivered : int; (* frames applied to the view *)
  mutable resyncs : int; (* full snapshot transfers *)
}

let view t = t.view

let partitioned t = t.partitioned

let delivered t = t.delivered

let resyncs t = t.resyncs

let queued t =
  List.fold_left
    (fun n (_, ev) -> match ev with Frame _ -> n + 1 | Reset _ -> n)
    0 t.queue

let held t = match t.faults with Some f -> f.Storefault.hold_frames | None -> false

(* Full state transfer: copy the source wholesale (encode/decode keeps
   base, chain and generations) and forget everything in flight. *)
let resync t =
  (match Journal.decode (Journal.encode t.source) with
  | Ok j -> t.view <- j
  | Error _ -> ());
  t.queue <- [];
  t.resyncs <- t.resyncs + 1

let apply t ev =
  match ev with
  | Frame e -> (
    match Journal.ingest t.view e with
    | () -> t.delivered <- t.delivered + 1
    | exception Invalid_argument _ ->
      (* gap: frames were lost somewhere — snapshot resync *)
      resync t)
  | Reset img -> (
    match Journal.decode img with
    | Ok j -> t.view <- j
    | Error _ -> resync t)

let apply_oldest t =
  match t.queue with
  | [] -> ()
  | (_, ev) :: rest ->
    t.queue <- rest;
    apply t ev

(* Record bound: never let more than [max_lag] frames sit queued. *)
let enforce_record_bound t =
  if not (held t) then
    while queued t > t.max_lag do
      apply_oldest t
    done

let handle_append t e =
  if not t.partitioned then begin
    t.queue <- t.queue @ [ (e.Journal.at, Frame e) ];
    enforce_record_bound t
  end

let handle_compact t =
  if not t.partitioned then
    (* stamp with the source tail so the image is applied on the next
       pump (it is never younger than the frames it replaces) *)
    let at = match Journal.last_at t.source with Some a -> a | None -> 0.0 in
    t.queue <- t.queue @ [ (at, Reset (Journal.encode t.source)) ]

let pump t ~now =
  if not (held t) then begin
    let rec go () =
      match t.queue with
      | (stamp, _) :: _ when now -. stamp >= t.delay ->
        apply_oldest t;
        go ()
      | _ -> ()
    in
    go ();
    enforce_record_bound t
  end

let catch_up t =
  let before = t.delivered in
  while t.queue <> [] do
    apply_oldest t
  done;
  t.delivered - before

let partition t =
  if not t.partitioned then begin
    (* frames in flight die with the link *)
    t.queue <- [];
    t.partitioned <- true
  end

let heal t =
  if t.partitioned then begin
    t.partitioned <- false;
    resync t
  end

let create ?faults ?(max_lag = 8) ?(delay = 0.0) source =
  if max_lag < 0 then invalid_arg "Replica.create: max_lag must be >= 0";
  if delay < 0.0 then invalid_arg "Replica.create: delay must be >= 0";
  let view =
    match Journal.decode (Journal.encode source) with
    | Ok j -> j
    | Error _ -> Journal.create ()
  in
  let t =
    {
      source;
      view;
      max_lag;
      delay;
      faults;
      queue = [];
      partitioned = false;
      delivered = 0;
      resyncs = 0;
    }
  in
  let sink =
    {
      Journal.on_append = (fun e -> handle_append t e);
      on_sync = (fun () -> ());
      on_roll = (fun () -> ());
      on_compact = (fun () -> handle_compact t);
    }
  in
  Journal.attach source sink;
  t
