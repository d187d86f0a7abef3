type limits = { rate : float; burst : float }

type config = {
  limits : limits option;
  coalesce : bool;
  batch_window : float;
  subsume : bool;
}

let default_config =
  { limits = None; coalesce = false; batch_window = 0.0; subsume = false }

let coalescing ?limits ?(batch_window = 0.0) ?(subsume = false) () =
  { limits; coalesce = true; batch_window; subsume }

(* The coalescing key mirrors [Reach_cache.key] (injection point plus
   the scope, hashed once) extended with the query kind and, for the
   kinds whose evaluation reads the requesting tenant, the client. *)
type key = {
  k_kind : int;
  k_dst : int;  (* Path_length destination, 0 otherwise *)
  k_client : int;  (* -1 for client-independent kinds *)
  k_sw : int;
  k_port : int;
  k_scope : Hspace.Hs.t option;
  k_hash : int;  (* of every field above *)
}

let key_of ~client ~sw ~port (query : Query.t) =
  let k_kind, k_dst, k_client, k_scope =
    match query.kind with
    | Query.Reachable_endpoints -> (0, 0, -1, query.scope)
    | Query.Sources_reaching_me -> (1, 0, client, query.scope)
    (* Isolation and Fairness ignore their scope at evaluation; keying
       on it would only split identical questions. *)
    | Query.Isolation -> (2, 0, client, None)
    | Query.Geo -> (3, 0, -1, query.scope)
    | Query.Path_length { dst_ip } -> (4, dst_ip, -1, query.scope)
    | Query.Fairness -> (5, 0, client, None)
    | Query.Transfer_summary -> (6, 0, -1, query.scope)
  in
  let h =
    (match k_scope with None -> 0 | Some hs -> Hspace.Hs.hash hs)
    lxor (sw * 0x9E3779B1) lxor (port * 0x85EBCA77) lxor (k_kind * 0x27D4EB2F)
    lxor (k_client * 0x165667B1) lxor (k_dst * 0x61C88647)
  in
  { k_kind; k_dst; k_client; k_sw = sw; k_port = port; k_scope; k_hash = h lxor (h lsr 27) }

module Key = struct
  type t = key

  (* The hash is a prefilter: colliding scopes are cheap to build, so
     a hash match is confirmed on the scope itself. *)
  let equal a b =
    a.k_hash = b.k_hash && a.k_kind = b.k_kind && a.k_dst = b.k_dst && a.k_client = b.k_client
    && a.k_sw = b.k_sw && a.k_port = b.k_port
    && Option.equal Hspace.Hs.equal a.k_scope b.k_scope

  let hash k = k.k_hash
end

module Key_table = Hashtbl.Make (Key)

(* A narrower query riding a broader computation: answered at the
   subsumer's finalize by intersecting its arrival spaces with
   [sl_scope].  Waiters are newest-first, like [e_waiters]. *)
type 'w slice = {
  sl_key : key;
  sl_scope : Hspace.Hs.t;  (* effective scope of the sliced query *)
  sl_query : Query.t;
  mutable sl_waiters : 'w list;
}

type 'w entry = {
  e_key : key;
  e_client : int;
  e_sw : int;
  e_port : int;
  e_query : Query.t;
  e_scope : Hspace.Hs.t option;
      (* effective scope, supplied by the service for batchable kinds;
         the containment checks of subsumption run on it *)
  mutable e_waiters : 'w list;
  mutable e_slices : 'w slice list;
}

type stats = {
  mutable admitted : int;
  mutable throttled : int;
  mutable coalesced : int;
  mutable subsumed : int;
  mutable entries : int;
  mutable batches : int;
  mutable batched : int;
  mutable batch_fallbacks : int;
  mutable slice_fallbacks : int;
  mutable flushes : int;
}

type bucket = { mutable tokens : float; mutable refilled_at : float }

type 'w t = {
  cfg : config;
  buckets : (int, bucket) Hashtbl.t;
  queue : 'w entry Queue.t;  (* arrival order, drained whole at flush *)
  by_key : 'w entry Key_table.t;  (* queued entries, for coalescing *)
  by_point : (int * int, 'w entry list ref) Hashtbl.t;
      (* queued batchable entries per injection point (newest first),
         the subsumption scan's index; cleared with the queue *)
  stats : stats;
}

let create cfg =
  (match cfg.limits with
  | Some { rate; burst } ->
    if rate <= 0.0 then invalid_arg "Frontend.create: limits.rate must be positive";
    if burst < 1.0 then invalid_arg "Frontend.create: limits.burst must be >= 1"
  | None -> ());
  if not (Float.is_finite cfg.batch_window && cfg.batch_window >= 0.0) then
    invalid_arg "Frontend.create: batch_window must be finite and >= 0";
  {
    cfg;
    buckets = Hashtbl.create 16;
    queue = Queue.create ();
    by_key = Key_table.create 16;
    by_point = Hashtbl.create 16;
    stats =
      {
        admitted = 0;
        throttled = 0;
        coalesced = 0;
        subsumed = 0;
        entries = 0;
        batches = 0;
        batched = 0;
        batch_fallbacks = 0;
        slice_fallbacks = 0;
        flushes = 0;
      };
  }

let config t = t.cfg

let stats t = t.stats

let coalesce_rate t =
  if t.stats.admitted = 0 then 0.0
  else float_of_int t.stats.coalesced /. float_of_int t.stats.admitted

let subsume_rate t =
  if t.stats.admitted = 0 then 0.0
  else float_of_int t.stats.subsumed /. float_of_int t.stats.admitted

let admit t ~client ~now =
  match t.cfg.limits with
  | None ->
    t.stats.admitted <- t.stats.admitted + 1;
    true
  | Some { rate; burst } ->
    let b =
      match Hashtbl.find_opt t.buckets client with
      | Some b -> b
      | None ->
        (* A client's first query always passes: fresh buckets start
           full, so admission only bites sustained over-rate use. *)
        let b = { tokens = burst; refilled_at = now } in
        Hashtbl.replace t.buckets client b;
        b
    in
    let elapsed = Float.max 0.0 (now -. b.refilled_at) in
    b.tokens <- Float.min burst (b.tokens +. (rate *. elapsed));
    b.refilled_at <- now;
    if b.tokens >= 1.0 then begin
      b.tokens <- b.tokens -. 1.0;
      t.stats.admitted <- t.stats.admitted + 1;
      true
    end
    else begin
      t.stats.throttled <- t.stats.throttled + 1;
      false
    end

let note_coalesced t = t.stats.coalesced <- t.stats.coalesced + 1

let note_fallback t n =
  t.stats.batch_fallbacks <- t.stats.batch_fallbacks + n;
  t.stats.batches <- t.stats.batches - 1;
  t.stats.batched <- t.stats.batched - n

let note_slice_fallback t n = t.stats.slice_fallbacks <- t.stats.slice_fallbacks + n

let batchable (q : Query.t) =
  (* Only [Reachable_endpoints] pools soundly and profitably: Geo
     needs the per-query traversed set, Path_length the per-query
     sample paths, Transfer_summary the per-query arrival spaces
     (whose normal forms a union split would not reproduce byte for
     byte), and the client-dependent kinds are per-tenant anyway. *)
  match q.kind with Query.Reachable_endpoints -> true | _ -> false

(* Attach a query to a queued container entry as a slice waiter:
   queries identical to an existing slice share it, new scopes open a
   fresh one.  Every attach counts in [subsumed]. *)
let attach_slice t (entry : 'w entry) ~key ~scope query ~waiter =
  (match List.find_opt (fun sl -> Key.equal sl.sl_key key) entry.e_slices with
  | Some sl -> sl.sl_waiters <- waiter :: sl.sl_waiters
  | None ->
    entry.e_slices <-
      { sl_key = key; sl_scope = scope; sl_query = query; sl_waiters = [ waiter ] }
      :: entry.e_slices);
  t.stats.subsumed <- t.stats.subsumed + 1

(* A new entry absorbs the queued entries at its injection point whose
   scope it contains — strictly, since an equal or wider one would
   have taken it as a slice.  Each absorbed entry's waiters become one
   slice of the new entry, followed by the slices it carried; it
   leaves the indexes and stays queued with no waiters, which [flush]
   skips.  So the queued scopes at a point never contain one another.
   [queued] is newest first, so the absorbed entries' slices follow
   one another in arrival order.  Returns the entries not absorbed. *)
let absorb t entry scope queued =
  List.filter
    (fun e ->
      let s = Option.get e.e_scope in
      let inside = Hspace.Hs.subset s scope in
      if inside then begin
        entry.e_slices <-
          ({ sl_key = e.e_key; sl_scope = s; sl_query = e.e_query; sl_waiters = e.e_waiters }
          :: e.e_slices)
          @ entry.e_slices;
        t.stats.subsumed <- t.stats.subsumed + List.length e.e_waiters;
        if t.cfg.coalesce then Key_table.remove t.by_key e.e_key;
        e.e_waiters <- [];
        e.e_slices <- []
      end;
      not inside)
    queued

let submit t ~key ?scope ~client ~sw ~port query ~waiter =
  match if t.cfg.coalesce then Key_table.find_opt t.by_key key else None with
  | Some entry ->
    entry.e_waiters <- waiter :: entry.e_waiters;
    t.stats.coalesced <- t.stats.coalesced + 1;
    `Coalesced
  | None -> (
    let e_scope = if batchable query then scope else None in
    (* The scope and this injection point's index cell, when the
       subsumption scan applies. *)
    let index =
      match e_scope with
      | Some s when t.cfg.subsume ->
        let cell =
          match Hashtbl.find_opt t.by_point (sw, port) with
          | Some cell -> cell
          | None ->
            let cell = ref [] in
            Hashtbl.replace t.by_point (sw, port) cell;
            cell
        in
        Some (s, cell)
      | _ -> None
    in
    let contains s e = Hspace.Hs.subset s (Option.get e.e_scope) in
    match Option.bind index (fun (s, cell) -> List.find_opt (contains s) !cell) with
    | Some entry ->
      attach_slice t entry ~key ~scope:(Option.get e_scope) query ~waiter;
      `Subsumed
    | None ->
      let first = Queue.is_empty t.queue in
      let entry =
        {
          e_key = key;
          e_client = client;
          e_sw = sw;
          e_port = port;
          e_query = query;
          e_scope;
          e_waiters = [ waiter ];
          e_slices = [];
        }
      in
      Queue.add entry t.queue;
      if t.cfg.coalesce then Key_table.replace t.by_key key entry;
      Option.iter (fun (s, cell) -> cell := entry :: absorb t entry s !cell) index;
      `Queued (if first then `First else `Later))

(* Entries an absorption emptied stay in the queue until the flush. *)
let queued t = Queue.fold (fun n e -> if e.e_waiters = [] then n else n + 1) 0 t.queue

let flush t =
  if Queue.is_empty t.queue then []
  else begin
    t.stats.flushes <- t.stats.flushes + 1;
    (* Drain in arrival order, pooling batchable entries that share an
       injection point into the group opened by their first arrival.
       An absorbed entry joins no group but still opens its point's,
       so the groups keep their order. *)
    let groups : 'w entry list ref list ref = ref [] in
    let pools : (int * int, 'w entry list ref) Hashtbl.t = Hashtbl.create 8 in
    Queue.iter
      (fun e ->
        if t.cfg.coalesce then Key_table.remove t.by_key e.e_key;
        if batchable e.e_query then begin
          let point = (e.e_sw, e.e_port) in
          let cell =
            match Hashtbl.find_opt pools point with
            | Some cell -> cell
            | None ->
              let cell = ref [] in
              Hashtbl.replace pools point cell;
              groups := cell :: !groups;
              cell
          in
          if e.e_waiters <> [] then cell := e :: !cell
        end
        else groups := ref [ e ] :: !groups)
      t.queue;
    Queue.clear t.queue;
    Hashtbl.reset t.by_point;
    List.rev_map
      (fun cell ->
        let group = List.rev !cell in
        t.stats.entries <- t.stats.entries + List.length group;
        (match group with
        | _ :: _ :: _ ->
          t.stats.batches <- t.stats.batches + 1;
          t.stats.batched <- t.stats.batched + List.length group
        | _ -> ());
        group)
      !groups
  end
