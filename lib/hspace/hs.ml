(* A header space is a normalised cube list plus its bounding cube
   (the join of all cubes, all-z when empty).  The bound makes
   disjointness of two sets — by far the most common relationship in
   rule-table sweeps — a handful of word operations, short-circuiting
   the quadratic cube products below. *)
type t = { width : int; cubes : Tern.t list; bound : Tern.t }

let empty width = { width; cubes = []; bound = Tern.none width }

let join_all width cubes =
  List.fold_left Tern.join (Tern.none width) cubes

(* Reference normaliser: the original per-operation O(n²) sweep, kept
   verbatim as the oracle for differential tests of the batch builder
   (drop empty cubes and cubes subsumed by another; among equal cubes
   keep the first). *)
let normalise_ref width cubes =
  let nonempty = List.filter (fun c -> not (Tern.is_empty c)) cubes in
  let rec keep acc = function
    | [] -> List.rev acc
    | c :: rest ->
      let subsumed_later = List.exists (fun d -> Tern.subset c d) rest in
      let subsumed_earlier = List.exists (fun d -> Tern.subset c d) acc in
      if subsumed_later || subsumed_earlier then keep acc rest
      else keep (c :: acc) rest
  in
  let cubes = keep [] nonempty in
  { width; cubes; bound = join_all width cubes }

(* Mutable batch builder.  Cubes are accumulated raw; [build] drops
   empties, dedups structurally via [Tern.hash], sorts by ascending
   fixed-bit count and runs one subsumption sweep.  Sorting makes a
   single pass sufficient: [c ⊆ d] forces every fixed bit of [d] to be
   fixed in [c], so a cube can only be subsumed by one of equal or
   lower fixed count — i.e. by a cube already kept.  Equal-count
   subsumption means structural equality, which dedup removed, so the
   sweep tests a cube only against the kept cubes of strictly lower
   count: the cubes one set difference splits off all fix one more bit
   than their source, and need no test against each other. *)
module Builder = struct
  type builder = {
    b_width : int;
    mutable items : Tern.t list;
    mutable count : int;
  }

  let create width = { b_width = width; items = []; count = 0 }

  let add b c =
    b.items <- c :: b.items;
    b.count <- b.count + 1

  (* Below this size, pairwise [Tern.equal] dedup beats paying for a
     hash table (word-compare with early exit vs. hashing every word
     plus table allocation on every set operation). *)
  let small = 12

  (* Non-empty cubes only: dedup has dropped the empty ones. *)
  let rec subsumed c = function
    | [] -> false
    | d :: rest -> Tern.nonempty_subset c d || subsumed c rest

  let build b =
    match b.items with
    | [] -> empty b.b_width
    | [ c ] ->
      if Tern.is_empty c then empty b.b_width
      else { width = b.b_width; cubes = [ c ]; bound = c }
    | items ->
      let uniq = ref [] and n = ref 0 in
      (if b.count <= small then
         let kept = ref [] in
         List.iter
           (fun c ->
             if
               (not (Tern.is_empty c))
               && not (List.exists (Tern.equal c) !kept)
             then begin
               kept := c :: !kept;
               uniq := (Tern.count_fixed c, c) :: !uniq;
               incr n
             end)
           items
       else
         let seen = Hashtbl.create (2 * b.count) in
         List.iter
           (fun c ->
             if not (Tern.is_empty c) then begin
               let h = Tern.hash c in
               if not (List.exists (Tern.equal c) (Hashtbl.find_all seen h))
               then begin
                 Hashtbl.add seen h c;
                 uniq := (Tern.count_fixed c, c) :: !uniq;
                 incr n
               end
             end)
           items);
      if !n = 0 then empty b.b_width
      else begin
        let arr = Array.of_list !uniq in
        Array.sort (fun (a, _) (b, _) -> Int.compare a b) arr;
        (* [kept] is newest first; [fewer] is the part of it kept before
           the current fixed-bit count began. *)
        let kept = ref [] and fewer = ref [] and count = ref (-1) in
        Array.iter
          (fun (k, c) ->
            if k <> !count then begin
              count := k;
              fewer := !kept
            end;
            if not (subsumed c !fewer) then kept := c :: !kept)
          arr;
        let cubes = List.rev !kept in
        { width = b.b_width; cubes; bound = join_all b.b_width cubes }
      end
end

let normalise width cubes =
  let b = Builder.create width in
  List.iter (Builder.add b) cubes;
  Builder.build b

let full width = { width; cubes = [ Tern.all_x width ]; bound = Tern.all_x width }

let of_cube c =
  let width = Tern.width c in
  if Tern.is_empty c then empty width else { width; cubes = [ c ]; bound = c }

let check_cubes name width cs =
  List.iter
    (fun c -> if Tern.width c <> width then invalid_arg (name ^ ": width mismatch"))
    cs

let of_cubes width cs =
  check_cubes "Hs.of_cubes" width cs;
  normalise width cs

let of_cubes_ref width cs =
  check_cubes "Hs.of_cubes_ref" width cs;
  normalise_ref width cs

let cubes t = t.cubes

let bound t = t.bound

let cube_count t = List.length t.cubes

let is_empty t = t.cubes = []

let is_full t = match t.cubes with [ c ] -> Tern.is_full c | _ -> false

let check_width name a b =
  if a.width <> b.width then invalid_arg (name ^ ": width mismatch")

let union a b =
  check_width "Hs.union" a b;
  if is_empty a then b
  else if is_empty b then a
  else if is_full a then a
  else if is_full b then b
  else if Tern.disjoint a.bound b.bound then
    (* Disjoint bounds: no cube of one can intersect — let alone
       subsume — a cube of the other, and both sides are already
       normalised, so plain concatenation is normalised too. *)
    {
      width = a.width;
      cubes = a.cubes @ b.cubes;
      bound = Tern.join a.bound b.bound;
    }
  else normalise a.width (a.cubes @ b.cubes)

let inter a b =
  check_width "Hs.inter" a b;
  (* Every broad query scope is the service's one shared IP-traffic
     set, which it intersects with that same set. *)
  if a == b then a
  else if is_empty a || is_empty b then empty a.width
  else if is_full a then b
  else if is_full b then a
  else if Tern.disjoint a.bound b.bound then empty a.width
  else begin
    let builder = Builder.create a.width in
    List.iter
      (fun ca ->
        List.iter
          (fun cb ->
            if not (Tern.disjoint ca cb) then Builder.add builder (Tern.inter ca cb))
          b.cubes)
      a.cubes;
    Builder.build builder
  end

let diff_cube_list cubes c =
  List.concat_map (fun cube -> Tern.diff cube c) cubes

let diff a b =
  check_width "Hs.diff" a b;
  if is_empty a || is_empty b then a
  else if Tern.disjoint a.bound b.bound then a
  else
    let remaining = List.fold_left diff_cube_list a.cubes b.cubes in
    normalise a.width remaining

let inter_cube t c =
  if Tern.width c <> t.width then invalid_arg "Hs.inter_cube: width mismatch";
  if is_empty t || Tern.disjoint t.bound c then empty t.width
  else begin
    let builder = Builder.create t.width in
    List.iter
      (fun cube ->
        if not (Tern.disjoint cube c) then Builder.add builder (Tern.inter cube c))
      t.cubes;
    Builder.build builder
  end

let diff_cube t c =
  if Tern.width c <> t.width then invalid_arg "Hs.diff_cube: width mismatch";
  if is_empty t || Tern.disjoint t.bound c then t
  else normalise t.width (diff_cube_list t.cubes c)

let complement t = diff (full t.width) t

let mem concrete t = List.exists (fun c -> Tern.mem concrete c) t.cubes

let subset a b =
  check_width "Hs.subset" a b;
  if is_empty a then true
  else if is_empty b then false
  else if is_full b then true
  else if not (Tern.subset a.bound b.bound) then
    (* a ⊆ b forces bound(a) ⊆ bound(b): the bound is the smallest
       single cube covering its set, and bound(b) covers b ⊇ a. *)
    false
  else if List.exists (fun cb -> Tern.subset a.bound cb) b.cubes then
    (* One cube of b swallows a's whole bounding cube: containment
       without materialising the diff. *)
    true
  else
    (* Per-cube pre-pass: a cube inside some single cube of b needs no
       diff; only the stragglers pay the cube-by-cube subtraction. *)
    List.for_all
      (fun ca ->
        List.exists (fun cb -> Tern.subset ca cb) b.cubes
        || List.fold_left diff_cube_list [ ca ] b.cubes = [])
      a.cubes

let equal a b = a == b || (subset a b && subset b a)

let rec meets ca = function
  | [] -> false
  | cb :: rest -> (not (Tern.disjoint ca cb)) || meets ca rest

let rec meets_any cas cbs =
  match cas with [] -> false | ca :: rest -> meets ca cbs || meets_any rest cbs

(* [not (is_empty (inter a b))] without building the intersection:
   normalised sets hold no empty cube, so they share a header exactly
   when some pair of their cubes does.  Disjoint bounds rule out every
   pair at once. *)
let overlaps a b =
  check_width "Hs.overlaps" a b;
  (not (Tern.disjoint a.bound b.bound)) && meets_any a.cubes b.cubes

let hash t =
  (* Order-independent: the cube order of a normalised set depends on
     construction history, so per-cube hashes are sorted before
     folding. *)
  let hs = List.sort Int.compare (List.map Tern.hash t.cubes) in
  List.fold_left
    (fun acc h ->
      let acc = (acc lxor h) * 0x100000001B3 in
      acc lxor (acc lsr 31))
    (0x51A2D3C5 + t.width) hs

let sample rng t =
  match t.cubes with
  | [] -> None
  | cubes ->
    let cube = Support.Rng.pick rng cubes in
    let concrete = ref cube in
    for i = 0 to Tern.width cube - 1 do
      match Tern.get cube i with
      | Tern.Any ->
        concrete :=
          Tern.set !concrete i (if Support.Rng.bool rng then Tern.One else Tern.Zero)
      | Tern.Zero | Tern.One -> ()
      | Tern.Empty -> assert false
    done;
    Some !concrete
