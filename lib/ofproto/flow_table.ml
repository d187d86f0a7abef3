type change =
  | Added of Flow_entry.spec
  | Removed of Flow_entry.spec * [ `Delete | `Hard_timeout ]
  | Modified of Flow_entry.spec

type t = {
  mutable entries : Flow_entry.t list; (* priority desc, FIFO within priority *)
  mutable version : int;
  mutable observers : (change -> unit) list;
}

let create () = { entries = []; version = 0; observers = [] }

let version t = t.version

let on_change t f = t.observers <- f :: t.observers

let notify t change =
  t.version <- t.version + 1;
  List.iter (fun f -> f change) t.observers

(* One pass over the priority-descending list: higher priorities are
   kept as they are, an entry in [spec]'s slot (same priority, equal
   match) is dropped, and the new entry goes last among its priority
   (FIFO).  Only same-priority entries pay for a match comparison. *)
let add t (spec : Flow_entry.spec) ~now =
  let p = spec.priority in
  let replaced = ref false in
  let rec go acc = function
    | (e : Flow_entry.t) :: rest when e.spec.priority > p -> go (e :: acc) rest
    | (e : Flow_entry.t) :: rest when e.spec.priority = p ->
      if Match_.equal e.spec.match_ spec.match_ then begin
        replaced := true;
        go acc rest
      end
      else go (e :: acc) rest
    | rest -> List.rev_append acc (Flow_entry.install spec ~now :: rest)
  in
  t.entries <- go [] t.entries;
  notify t (if !replaced then Modified spec else Added spec)

module Slots = Hashtbl.Make (struct
  type t = int * Match_.t

  let equal (p, m) (q, n) = p = q && Match_.equal m n

  let hash (p, m) = Hashtbl.hash (p, Match_.hash m)
end)

(* What [add] one spec at a time would leave: a stable sort keeps
   arrival order within a priority, and of the specs sharing a slot
   only the last survives, at its own position. *)
let replace t specs ~now =
  let sorted =
    List.stable_sort
      (fun (a : Flow_entry.spec) (b : Flow_entry.spec) -> Int.compare b.priority a.priority)
      specs
  in
  let seen = Slots.create 64 in
  t.entries <-
    List.fold_left
      (fun acc (spec : Flow_entry.spec) ->
        let slot = (spec.priority, spec.match_) in
        if Slots.mem seen slot then acc
        else begin
          Slots.add seen slot ();
          Flow_entry.install spec ~now :: acc
        end)
      [] (List.rev sorted);
  t.version <- t.version + 1

let remove_matching t ~reason pred =
  let removed, kept = List.partition pred t.entries in
  t.entries <- kept;
  List.iter (fun (e : Flow_entry.t) -> notify t (Removed (e.spec, reason))) removed;
  List.length removed

let delete t ~match_ ?priority () =
  let pred (e : Flow_entry.t) =
    (match priority with None -> true | Some p -> e.spec.priority = p)
    && Match_.subset e.spec.match_ match_
  in
  remove_matching t ~reason:`Delete pred

let delete_by_cookie t cookie =
  remove_matching t ~reason:`Delete (fun e -> e.Flow_entry.spec.cookie = cookie)

let expire t ~now =
  let expired (e : Flow_entry.t) =
    match e.spec.hard_timeout with
    | None -> false
    | Some timeout -> now >= e.installed_at +. timeout
  in
  let specs =
    List.filter_map
      (fun (e : Flow_entry.t) -> if expired e then Some e.spec else None)
      t.entries
  in
  let _count = remove_matching t ~reason:`Hard_timeout expired in
  specs

let lookup t ~in_port header =
  List.find_opt
    (fun (e : Flow_entry.t) -> Match_.matches e.spec.match_ ~in_port header)
    t.entries

let entries t = t.entries

let specs t = List.map (fun (e : Flow_entry.t) -> e.spec) t.entries

let size t = List.length t.entries
