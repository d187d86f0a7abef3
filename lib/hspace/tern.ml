(* Packed ternary bit-vectors: 31 header bits per word, 2 encoding bits
   per header bit (01 = 0, 10 = 1, 11 = *, 00 = z).  The pairs beyond
   [width] in the last word are kept at 11 so that word-wise [land]
   (intersection) and pair-wise subset tests need no special casing. *)

type t = { width : int; words : int array }

type bit = Zero | One | Any | Empty

let bits_per_word = 31

let evens_mask = 0x1555555555555555 (* 01 repeated over 62 bits *)

let full_word = 0x3FFFFFFFFFFFFFFF (* all 31 pairs = 11 *)

let word_count width = (width + bits_per_word - 1) / bits_per_word

(* Mask with 11 on the pairs that encode valid header bits of word [k].
   Integer compares only: the polymorphic [min] is a C call per word. *)
let valid_mask width k =
  let used = width - (k * bits_per_word) in
  if used >= bits_per_word then full_word else (1 lsl (2 * used)) - 1

let all_x width =
  if width <= 0 then invalid_arg "Tern.all_x: width must be positive";
  { width; words = Array.make (word_count width) full_word }

let none width =
  if width <= 0 then invalid_arg "Tern.none: width must be positive";
  { width; words = Array.make (word_count width) 0 }

let width t = t.width

let encode = function Empty -> 0 | Zero -> 1 | One -> 2 | Any -> 3

let decode = function 0 -> Empty | 1 -> Zero | 2 -> One | _ -> Any

let get t i =
  if i < 0 || i >= t.width then invalid_arg "Tern.get: index out of range";
  let w = t.words.(i / bits_per_word) in
  decode ((w lsr (2 * (i mod bits_per_word))) land 3)

let set t i b =
  if i < 0 || i >= t.width then invalid_arg "Tern.set: index out of range";
  let words = Array.copy t.words in
  let k = i / bits_per_word and pos = 2 * (i mod bits_per_word) in
  words.(k) <- (words.(k) land lnot (3 lsl pos)) lor (encode b lsl pos);
  { t with words }

(* Spread the low 31 bits of [x] onto the even positions (bit i to bit
   2i): the "part1by1" interleave, five shift-and-mask steps. *)
let spread x =
  let x = x land 0x7FFFFFFF in
  let x = (x lor (x lsl 16)) land 0x0000FFFF0000FFFF in
  let x = (x lor (x lsl 8)) land 0x00FF00FF00FF00FF in
  let x = (x lor (x lsl 4)) land 0x0F0F0F0F0F0F0F0F in
  let x = (x lor (x lsl 2)) land 0x3333333333333333 in
  (x lor (x lsl 1)) land evens_mask

(* One copy of the words, then each word the range touches is
   rewritten at once: the masked value bits become 01/10 pairs. *)
let set_masked t ~base ~len ~value ~mask =
  if base < 0 || len < 0 || len > Sys.int_size || base + len > t.width then
    invalid_arg "Tern.set_masked: range out of bounds";
  let words = Array.copy t.words in
  let i = ref 0 in
  while !i < len do
    let pos = base + !i in
    let k = pos / bits_per_word and off = pos mod bits_per_word in
    let n = min (len - !i) (bits_per_word - off) in
    let chunk = (1 lsl n) - 1 in
    let m = (mask lsr !i) land chunk and v = (value lsr !i) land chunk in
    let sel = spread m in
    let pairs = (sel lor (sel lsl 1)) lsl (2 * off)
    and enc = (spread (m land lnot v) lor (spread (m land v) lsl 1)) lsl (2 * off) in
    words.(k) <- (words.(k) land lnot pairs) lor enc;
    i := !i + n
  done;
  { t with words }

(* A top-level scan, not a local loop: a local one would allocate its
   closure on every call.  [concrete_from], [disjoint_from],
   [prefilter_disjoint_from] and [subset_from] follow suit. *)
let rec empty_from width words k =
  k < Array.length words
  &&
  let w = words.(k) in
  let valid = evens_mask land valid_mask width k in
  (* A pair is 00 iff neither of its bits is set. *)
  (w lor (w lsr 1)) land valid <> valid || empty_from width words (k + 1)

let is_empty t = empty_from t.width t.words 0

let is_full t = Array.for_all (fun w -> w = full_word) t.words

let rec concrete_from width words k =
  k >= Array.length words
  ||
  let w = words.(k) in
  let valid = valid_mask width k in
  (* Concrete: every valid pair is 01 or 10, i.e. exactly one bit set. *)
  let lo = w land evens_mask and hi = (w lsr 1) land evens_mask in
  let both = lo land hi land valid and none = lnot (lo lor hi) land evens_mask land valid in
  both = 0 && none = 0 && concrete_from width words (k + 1)

let is_concrete t = concrete_from t.width t.words 0

let check_width name a b =
  if a.width <> b.width then invalid_arg (name ^ ": width mismatch")

let inter a b =
  check_width "Tern.inter" a b;
  { width = a.width; words = Array.map2 ( land ) a.words b.words }

let join a b =
  check_width "Tern.join" a b;
  { width = a.width; words = Array.map2 ( lor ) a.words b.words }

(* Non-allocating emptiness test of [inter a b]: word-wise [land] with
   an early exit on the first word containing a 00 pair.  Equivalent to
   [not (overlaps a b)] without building the intermediate vector. *)
let rec disjoint_from width aw bw k =
  k < Array.length aw
  &&
  let w = aw.(k) land bw.(k) in
  let valid = evens_mask land valid_mask width k in
  (w lor (w lsr 1)) land valid <> valid || disjoint_from width aw bw (k + 1)

let disjoint a b =
  check_width "Tern.disjoint" a b;
  disjoint_from a.width a.words b.words 0

let hash t =
  (* FNV-style word mixer; pairs beyond [width] are canonically 11, so
     structurally equal vectors hash equally. *)
  let mix h w =
    let h = (h lxor w) * 0x100000001B3 in
    h lxor (h lsr 29)
  in
  Array.fold_left mix (mix 0x3B97A27C t.width) t.words

(* Word indices where the cube constrains at least one header bit,
   with the matching evens-mask slice — the "required bits" of the
   cube.  A candidate set whose bounding cube satisfies every required
   word overlaps the cube (up to z positions, which callers exclude);
   checking only these words rejects non-overlapping rules with a
   handful of word operations. *)
type prefilter = {
  pf_width : int;
  pf_idx : int array;  (* word indices carrying fixed bits *)
  pf_words : int array;  (* the cube's words at those indices *)
  pf_valid : int array;  (* evens_mask ∧ valid_mask at those indices *)
}

let prefilter t =
  let n = Array.length t.words in
  let idx = ref [] in
  for k = n - 1 downto 0 do
    let valid = valid_mask t.width k in
    if t.words.(k) land valid <> valid then idx := k :: !idx
  done;
  let idx = Array.of_list !idx in
  {
    pf_width = t.width;
    pf_idx = idx;
    pf_words = Array.map (fun k -> t.words.(k)) idx;
    pf_valid = Array.map (fun k -> evens_mask land valid_mask t.width k) idx;
  }

let rec prefilter_disjoint_from pf cw i =
  i < Array.length pf.pf_idx
  &&
  let w = pf.pf_words.(i) land cw.(pf.pf_idx.(i)) in
  let valid = pf.pf_valid.(i) in
  (w lor (w lsr 1)) land valid <> valid || prefilter_disjoint_from pf cw (i + 1)

let prefilter_disjoint pf c =
  if pf.pf_width <> c.width then invalid_arg "Tern.prefilter_disjoint: width mismatch";
  prefilter_disjoint_from pf c.words 0

let rec subset_from aw bw k =
  k >= Array.length aw || (aw.(k) land bw.(k) = aw.(k) && subset_from aw bw (k + 1))

let subset a b =
  check_width "Tern.subset" a b;
  is_empty a || subset_from a.words b.words 0

(* Last word first: the transport and IP fields, where cubes of a split
   set differ, sit in the high words. *)
let rec subset_down aw bw k = k < 0 || (aw.(k) land bw.(k) = aw.(k) && subset_down aw bw (k - 1))

let nonempty_subset a b =
  check_width "Tern.nonempty_subset" a b;
  subset_down a.words b.words (Array.length a.words - 1)

let overlaps a b = not (disjoint a b)

let equal a b = a.width = b.width && a.words = b.words

let compare a b = Stdlib.compare (a.width, a.words) (b.width, b.words)

(* Trailing-zero count of a power of two by binary search — O(log
   word-size) branchless steps, no table. *)
let ctz_pow2 v =
  let n = ref 0 and v = ref v in
  if !v land 0xFFFFFFFF = 0 then begin
    n := !n + 32;
    v := !v lsr 32
  end;
  if !v land 0xFFFF = 0 then begin
    n := !n + 16;
    v := !v lsr 16
  end;
  if !v land 0xFF = 0 then begin
    n := !n + 8;
    v := !v lsr 8
  end;
  if !v land 0xF = 0 then begin
    n := !n + 4;
    v := !v lsr 4
  end;
  if !v land 0x3 = 0 then begin
    n := !n + 2;
    v := !v lsr 2
  end;
  if !v land 0x1 = 0 then incr n;
  !n

(* Iterate [f] over the positions of [t] holding a fixed (0/1) value,
   without scanning wildcard positions: enumerate set bits of the
   per-word "exactly one encoding bit" mask.  The valid mask is the
   full word except possibly for the last word, and bit positions come
   from a constant-time ctz rather than a shift loop. *)
let iter_fixed_bits t f =
  let n = Array.length t.words in
  for k = 0 to n - 1 do
    let w = t.words.(k) in
    let valid = if k = n - 1 then valid_mask t.width k else full_word in
    let lo = w land evens_mask and hi = (w lsr 1) land evens_mask in
    let fixed = ref ((lo lxor hi) land valid land evens_mask) in
    let base = k * bits_per_word in
    while !fixed <> 0 do
      let lowest = !fixed land - !fixed in
      fixed := !fixed lxor lowest;
      (* [lowest] is a single even bit 2*j. *)
      let pair = ctz_pow2 lowest lsr 1 in
      let i = base + pair in
      f i (decode ((w lsr (2 * pair)) land 3))
    done
  done

let complement t =
  if is_empty t then [ all_x t.width ]
  else begin
    let cubes = ref [] in
    iter_fixed_bits t (fun i b ->
        match b with
        | Zero -> cubes := set (all_x t.width) i One :: !cubes
        | One -> cubes := set (all_x t.width) i Zero :: !cubes
        | Any | Empty -> assert false);
    List.rev !cubes
  end

let diff a b =
  check_width "Tern.diff" a b;
  if not (overlaps a b) then (if is_empty a then [] else [ a ])
  else begin
    (* a \ b = union over constrained bits i of b of
       { h in a : h_i <> b_i }. *)
    let cubes = ref [] in
    iter_fixed_bits b (fun i bi ->
        let flipped = match bi with Zero -> One | One -> Zero | Any | Empty -> assert false in
        match get a i with
        | Any -> cubes := set a i flipped :: !cubes
        | v when v = flipped -> cubes := a :: !cubes
        | Zero | One | Empty -> ());
    List.rev !cubes
  end

let mem concrete t =
  if not (is_concrete concrete) then invalid_arg "Tern.mem: vector is not concrete";
  subset concrete t

(* Population count of a word whose set bits all sit at even positions
   (so every 2-bit group already equals its own popcount and the first
   SWAR halving step can be skipped; values never touch bit 62, keeping
   the constants inside a 63-bit int). *)
let popcount_evens v =
  let v = (v land 0x3333333333333333) + ((v lsr 2) land 0x3333333333333333) in
  let v = (v + (v lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  let v = v + (v lsr 8) in
  let v = v + (v lsr 16) in
  let v = v + (v lsr 32) in
  v land 0x7F

let count_fixed t =
  let n = Array.length t.words in
  let count = ref 0 in
  for k = 0 to n - 1 do
    let w = t.words.(k) in
    let valid = if k = n - 1 then valid_mask t.width k else full_word in
    let lo = w land evens_mask and hi = (w lsr 1) land evens_mask in
    count := !count + popcount_evens ((lo lxor hi) land valid land evens_mask)
  done;
  !count

let random rng w ~fixed_prob =
  let t = ref (all_x w) in
  for i = 0 to w - 1 do
    if Support.Rng.bernoulli rng fixed_prob then
      t := set !t i (if Support.Rng.bool rng then One else Zero)
  done;
  !t

let random_concrete rng w =
  let t = ref (all_x w) in
  for i = 0 to w - 1 do
    t := set !t i (if Support.Rng.bool rng then One else Zero)
  done;
  !t

(* One array, filled in place: [set] would copy it once per character. *)
let of_string s =
  let t = all_x (String.length s) in
  String.iteri
    (fun i c ->
      let b =
        match c with
        | '0' -> Zero
        | '1' -> One
        | 'x' | 'X' | '*' -> Any
        | 'z' | 'Z' -> Empty
        | _ -> invalid_arg "Tern.of_string: bad character"
      in
      let k = i / bits_per_word and pos = 2 * (i mod bits_per_word) in
      t.words.(k) <- (t.words.(k) land lnot (3 lsl pos)) lor (encode b lsl pos))
    s;
  t

(* Straight from the words, two encoding bits per character. *)
let pair_char = "z01x"

let to_string t =
  let s = Bytes.create t.width in
  Array.iteri
    (fun k w ->
      let base = k * bits_per_word in
      let used = t.width - base in
      for j = 0 to (if used < bits_per_word then used else bits_per_word) - 1 do
        Bytes.unsafe_set s (base + j) pair_char.[(w lsr (2 * j)) land 3]
      done)
    t.words;
  Bytes.unsafe_to_string s
