type key = { k_sw : int; k_port : int; k_hash : int; k_hs : Hspace.Hs.t }

module Key = struct
  type t = key

  (* The hash is a prefilter: colliding scopes are cheap to build, so
     a hash match is confirmed on the scope itself. *)
  let equal a b =
    a.k_hash = b.k_hash && a.k_sw = b.k_sw && a.k_port = b.k_port
    && Hspace.Hs.equal a.k_hs b.k_hs

  let hash k = k.k_hash
end

module Table = Hashtbl.Make (Key)

type entry = {
  result : Verifier.reach_result;
      (* its [traversed] list is the entry's complete freshness
         dependency set *)
  mutable referenced : bool;  (* second-chance bit, set on every hit *)
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable invalidated : int;
  mutable delta_evictions : int;
  mutable capacity_evictions : int;
  mutable clock_purged : int;
}

type t = {
  table : entry Table.t;
  clock : key Queue.t;
      (* insertion-ordered ring for the second-chance sweep; may hold
         stale keys of already-evicted entries, skipped when popped *)
  capacity : int;
  stats : stats;
}

let create ?(capacity = 4096) () =
  {
    table = Table.create 64;
    clock = Queue.create ();
    capacity = max 1 capacity;
    stats =
      {
        hits = 0;
        misses = 0;
        invalidations = 0;
        invalidated = 0;
        delta_evictions = 0;
        capacity_evictions = 0;
        clock_purged = 0;
      };
  }

let key ~src_sw ~src_port ~hs =
  let h = Hspace.Hs.hash hs lxor (src_sw * 0x9E3779B1) lxor (src_port * 0x85EBCA77) in
  { k_sw = src_sw; k_port = src_port; k_hash = h lxor (h lsr 27); k_hs = hs }

let find t key =
  match Table.find_opt t.table key with
  | Some e ->
    e.referenced <- true;
    t.stats.hits <- t.stats.hits + 1;
    Some e.result
  | None ->
    t.stats.misses <- t.stats.misses + 1;
    None

(* Pop clock keys until one names a live, not-recently-hit entry; that
   entry is evicted.  Referenced entries get their bit cleared and a
   second chance at the back of the ring, so the loop terminates: every
   pass over the ring clears bits and the ring holds at least one live
   entry when the table is non-empty. *)
let evict_one t =
  let evicted = ref false in
  while not !evicted && not (Queue.is_empty t.clock) do
    let k = Queue.pop t.clock in
    match Table.find_opt t.table k with
    | None -> () (* stale: already removed by a delta invalidation *)
    | Some e ->
      if e.referenced then begin
        e.referenced <- false;
        Queue.add k t.clock
      end
      else begin
        Table.remove t.table k;
        t.stats.capacity_evictions <- t.stats.capacity_evictions + 1;
        evicted := true
      end
  done

let add t key (result : Verifier.reach_result) =
  if not (Table.mem t.table key) then begin
    if Table.length t.table >= t.capacity then evict_one t;
    Table.replace t.table key { result; referenced = false };
    Queue.add key t.clock
  end

(* Delta invalidation removes table entries without touching the
   clock ring, so under delta-heavy workloads that never reach
   capacity the ring accumulates keys of dead entries indefinitely
   (the sweep only skips them when it actually runs).  Once the ring
   outgrows ~2x the live table, rebuild it: keep the first occurrence
   of every key still present in the table (preserving sweep order and
   second-chance fairness), drop dead keys and later duplicates. *)
let purge_clock t =
  let live = Table.length t.table in
  if Queue.length t.clock > (2 * live) + 16 then begin
    let kept = Queue.create () in
    let seen : unit Table.t = Table.create (live + 1) in
    Queue.iter
      (fun k ->
        if Table.mem t.table k && not (Table.mem seen k) then begin
          Table.replace seen k ();
          Queue.add k kept
        end
        else t.stats.clock_purged <- t.stats.clock_purged + 1)
      t.clock;
    Queue.clear t.clock;
    Queue.transfer kept t.clock
  end

let invalidate_switch t ~sw =
  let stale =
    Table.fold
      (fun k e acc ->
        if List.exists (Int.equal sw) e.result.Verifier.traversed then k :: acc else acc)
      t.table []
  in
  List.iter (Table.remove t.table) stale;
  if stale <> [] then t.stats.invalidated <- t.stats.invalidated + 1;
  t.stats.delta_evictions <- t.stats.delta_evictions + List.length stale;
  purge_clock t

let invalidate t =
  if Table.length t.table > 0 then begin
    Table.reset t.table;
    Queue.clear t.clock;
    t.stats.invalidations <- t.stats.invalidations + 1
  end

let stats t = t.stats

let hit_rate t =
  let total = t.stats.hits + t.stats.misses in
  if total = 0 then 0.0 else float_of_int t.stats.hits /. float_of_int total

let length t = Table.length t.table

let clock_length t = Queue.length t.clock
