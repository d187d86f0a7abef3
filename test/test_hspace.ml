(* Unit + property tests for the header-space algebra.  The property
   tests check the cube algebra against a concrete-membership oracle:
   set operations must agree with membership of random concrete
   headers. *)

let check = Alcotest.check

let w = 16 (* small width keeps oracles readable; the full 228-bit
              width is exercised by the field/header tests below *)

module T = Hspace.Tern
module Hs = Hspace.Hs

let t_of s = T.of_string s

(* ---- Tern basics ---- *)

let test_tern_roundtrip () =
  let s = "01x01xxx10z01x0x" in
  check Alcotest.string "roundtrip" s (T.to_string (t_of s))

let test_tern_get_set () =
  let t = T.all_x 8 in
  let t = T.set t 3 T.One in
  check Alcotest.bool "set bit" true (T.get t 3 = T.One);
  check Alcotest.bool "others untouched" true (T.get t 2 = T.Any);
  let t = T.set t 3 T.Zero in
  check Alcotest.bool "overwrite" true (T.get t 3 = T.Zero)

let test_tern_empty_full_concrete () =
  check Alcotest.bool "all_x full" true (T.is_full (T.all_x 40));
  check Alcotest.bool "all_x not empty" false (T.is_empty (T.all_x 40));
  check Alcotest.bool "z means empty" true (T.is_empty (t_of "0z1"));
  check Alcotest.bool "concrete" true (T.is_concrete (t_of "0101"));
  check Alcotest.bool "not concrete" false (T.is_concrete (t_of "01x1"))

let test_tern_word_boundary () =
  (* Widths straddling the 31-bit word packing. *)
  List.iter
    (fun width ->
      let t = T.all_x width in
      check Alcotest.bool "full at width" true (T.is_full t);
      let t = T.set t (width - 1) T.One in
      check Alcotest.bool "last bit readable" true (T.get t (width - 1) = T.One);
      check Alcotest.bool "non-empty" false (T.is_empty t);
      let u = T.set t (width - 1) T.Zero in
      check Alcotest.bool "disjoint at last bit" true (T.is_empty (T.inter t u)))
    [ 30; 31; 32; 61; 62; 63; 93; 228 ]

let test_tern_inter () =
  let a = t_of "01xx" and b = t_of "0x1x" in
  check Alcotest.string "intersection" "011x" (T.to_string (T.inter a b));
  let c = t_of "1xxx" in
  check Alcotest.bool "conflicting bit empties" true (T.is_empty (T.inter a c))

let test_tern_subset () =
  check Alcotest.bool "concrete in cube" true (T.subset (t_of "0110") (t_of "01xx"));
  check Alcotest.bool "cube not in concrete" false (T.subset (t_of "01xx") (t_of "0110"));
  check Alcotest.bool "reflexive" true (T.subset (t_of "01x") (t_of "01x"));
  check Alcotest.bool "empty in anything" true (T.subset (t_of "z10") (t_of "000"))

let test_tern_complement () =
  let cs = T.complement (t_of "01x") in
  check Alcotest.int "one cube per fixed bit" 2 (List.length cs);
  (* Every concrete vector is in the cube xor its complement. *)
  let rng = Support.Rng.create 11 in
  for _ = 1 to 100 do
    let v = T.random_concrete rng 3 in
    let in_cube = T.mem v (t_of "01x")
    and in_compl = List.exists (T.mem v) cs in
    check Alcotest.bool "partition" true (in_cube <> in_compl)
  done;
  check Alcotest.int "complement of full is empty union" 0
    (List.length (T.complement (T.all_x 4)))

let test_tern_diff () =
  (* a \ a = empty; a \ disjoint = a *)
  let a = t_of "01xx" in
  check Alcotest.int "self difference" 0 (List.length (T.diff a a));
  let disjoint = t_of "10xx" in
  check Alcotest.int "disjoint difference" 1 (List.length (T.diff a disjoint));
  check Alcotest.bool "disjoint difference is a" true (T.equal a (List.hd (T.diff a disjoint)))

let test_tern_count_fixed () =
  check Alcotest.int "count" 3 (T.count_fixed (t_of "01x0xx"))

let test_tern_of_string_invalid () =
  Alcotest.check_raises "bad char" (Invalid_argument "Tern.of_string: bad character")
    (fun () -> ignore (t_of "01a"));
  Alcotest.check_raises "empty string"
    (Invalid_argument "Tern.all_x: width must be positive") (fun () -> ignore (t_of ""))

(* ---- membership oracle properties ---- *)

let rng = Support.Rng.create 1234

let random_cube () = T.random rng w ~fixed_prob:0.4

let random_hs () =
  let n = 1 + Support.Rng.int rng 3 in
  Hs.of_cubes w (List.init n (fun _ -> random_cube ()))

let sample_vectors n = List.init n (fun _ -> T.random_concrete rng w)

let iterate ~name ~count f =
  Alcotest.test_case name `Quick (fun () ->
      for _ = 1 to count do
        f ()
      done)

let oracle_tests =
  [
    iterate ~name:"inter = membership and" ~count:300 (fun () ->
        let a = random_cube () and b = random_cube () in
        let i = T.inter a b in
        List.iter
          (fun v ->
            let lhs = (not (T.is_empty i)) && T.mem v i
            and rhs = T.mem v a && T.mem v b in
            check Alcotest.bool "inter oracle" rhs lhs)
          (sample_vectors 20));
    iterate ~name:"diff = membership minus" ~count:300 (fun () ->
        let a = random_cube () and b = random_cube () in
        let d = T.diff a b in
        List.iter
          (fun v ->
            let lhs = List.exists (T.mem v) d
            and rhs = T.mem v a && not (T.mem v b) in
            check Alcotest.bool "diff oracle" rhs lhs)
          (sample_vectors 20));
    iterate ~name:"complement = membership not" ~count:300 (fun () ->
        let a = random_cube () in
        let c = T.complement a in
        List.iter
          (fun v ->
            let lhs = List.exists (T.mem v) c
            and rhs = not (T.mem v a) in
            check Alcotest.bool "complement oracle" rhs lhs)
          (sample_vectors 20));
    iterate ~name:"subset = membership implication" ~count:300 (fun () ->
        let a = random_cube () and b = random_cube () in
        if T.subset a b then
          List.iter
            (fun v -> if T.mem v a then check Alcotest.bool "subset oracle" true (T.mem v b))
            (sample_vectors 20));
    iterate ~name:"hs algebra: union/inter/diff" ~count:100 (fun () ->
        let a = random_hs () and b = random_hs () in
        let u = Hs.union a b and i = Hs.inter a b and d = Hs.diff a b in
        List.iter
          (fun v ->
            let ma = Hs.mem v a and mb = Hs.mem v b in
            check Alcotest.bool "union oracle" (ma || mb) (Hs.mem v u);
            check Alcotest.bool "inter oracle" (ma && mb) (Hs.mem v i);
            check Alcotest.bool "diff oracle" (ma && not mb) (Hs.mem v d))
          (sample_vectors 20));
    iterate ~name:"hs complement involution (semantic)" ~count:8 (fun () ->
        let a = Hs.of_cubes w (List.init 2 (fun _ -> random_cube ())) in
        let cc = Hs.complement (Hs.complement a) in
        check Alcotest.bool "double complement" true (Hs.equal a cc));
    iterate ~name:"hs subset/equal laws" ~count:100 (fun () ->
        let a = random_hs () and b = random_hs () in
        check Alcotest.bool "a subset union" true (Hs.subset a (Hs.union a b));
        check Alcotest.bool "inter subset a" true (Hs.subset (Hs.inter a b) a);
        check Alcotest.bool "diff disjoint b" true
          (not (Hs.overlaps (Hs.diff a b) b)));
    iterate ~name:"inter_cube / diff_cube match generic ops" ~count:150 (fun () ->
        let a = random_hs () and c = random_cube () in
        let i1 = Hs.inter_cube a c and i2 = Hs.inter a (Hs.of_cube c) in
        let d1 = Hs.diff_cube a c and d2 = Hs.diff a (Hs.of_cube c) in
        check Alcotest.bool "inter_cube" true (Hs.equal i1 i2);
        check Alcotest.bool "diff_cube" true (Hs.equal d1 d2));
    iterate ~name:"de morgan" ~count:6 (fun () ->
        let a = Hs.of_cube (random_cube ()) and b = Hs.of_cube (random_cube ()) in
        (* ¬(a ∪ b) = ¬a ∩ ¬b *)
        let lhs = Hs.complement (Hs.union a b) in
        let rhs = Hs.inter (Hs.complement a) (Hs.complement b) in
        check Alcotest.bool "complement of union" true (Hs.equal lhs rhs));
    iterate ~name:"diff via complement" ~count:6 (fun () ->
        let a = random_hs () and b = Hs.of_cube (random_cube ()) in
        (* a \ b = a ∩ ¬b *)
        let lhs = Hs.diff a b and rhs = Hs.inter a (Hs.complement b) in
        check Alcotest.bool "diff = inter complement" true (Hs.equal lhs rhs));
    iterate ~name:"hs sample is a member" ~count:100 (fun () ->
        let a = random_hs () in
        match Hs.sample rng a with
        | None -> check Alcotest.bool "only empty has no sample" true (Hs.is_empty a)
        | Some v -> check Alcotest.bool "sample in set" true (Hs.mem v a));
  ]

(* ---- Hs basics ---- *)

let test_hs_empty_full () =
  check Alcotest.bool "empty" true (Hs.is_empty (Hs.empty w));
  check Alcotest.bool "full minus full empty" true
    (Hs.is_empty (Hs.diff (Hs.full w) (Hs.full w)));
  check Alcotest.bool "complement of empty is full" true
    (Hs.equal (Hs.full w) (Hs.complement (Hs.empty w)))

let test_hs_no_subsumed_cubes () =
  (* Normalisation invariant: no cube in the representation is a subset
     of another. *)
  let rng = Support.Rng.create 31 in
  for _ = 1 to 100 do
    let a =
      Hs.of_cubes w (List.init 4 (fun _ -> T.random rng w ~fixed_prob:0.3))
    in
    let b =
      Hs.of_cubes w (List.init 4 (fun _ -> T.random rng w ~fixed_prob:0.3))
    in
    let check_invariant hs =
      let cubes = Hs.cubes hs in
      List.iteri
        (fun i c ->
          List.iteri
            (fun j d ->
              if i <> j then
                check Alcotest.bool "no subsumed cube" false (T.subset c d))
            cubes)
        cubes
    in
    check_invariant (Hs.union a b);
    check_invariant (Hs.inter a b);
    check_invariant (Hs.diff a b)
  done

let test_hs_normalisation () =
  (* A cube subsumed by another is dropped. *)
  let big = t_of ("01" ^ String.make (w - 2) 'x') in
  let small = t_of ("011" ^ String.make (w - 3) 'x') in
  let hs = Hs.of_cubes w [ small; big ] in
  check Alcotest.int "subsumed cube dropped" 1 (Hs.cube_count hs);
  (* Duplicates collapse. *)
  let dup = Hs.of_cubes w [ big; big; big ] in
  check Alcotest.int "duplicates collapse" 1 (Hs.cube_count dup)

(* ---- Field / Header ---- *)

let test_field_layout () =
  check Alcotest.int "total width" 228 Hspace.Field.total_width;
  (* Offsets are contiguous and non-overlapping. *)
  let rec walk expected = function
    | [] -> ()
    | f :: rest ->
      check Alcotest.int
        ("offset of " ^ Hspace.Field.name_to_string f)
        expected (Hspace.Field.offset f);
      walk (expected + Hspace.Field.bit_width f) rest
  in
  walk 0 Hspace.Field.all

let test_field_set_get () =
  let t = Hspace.Tern.all_x Hspace.Field.total_width in
  let t = Hspace.Field.set_exact t Hspace.Field.Ip_dst 0x0A000105 in
  check Alcotest.bool "get back" true
    (Hspace.Field.get_exact t Hspace.Field.Ip_dst = Some 0x0A000105);
  check Alcotest.bool "unset field is None" true
    (Hspace.Field.get_exact t Hspace.Field.Ip_src = None)

let test_field_prefix () =
  let t = Hspace.Tern.all_x Hspace.Field.total_width in
  let t = Hspace.Field.set_prefix t Hspace.Field.Ip_dst ~value:0x0A010000 ~prefix_len:16 in
  (* Any address within 10.1/16 must be a member. *)
  let member ip =
    let v = Hspace.Field.set_exact (Hspace.Tern.all_x Hspace.Field.total_width)
        Hspace.Field.Ip_dst ip in
    Hspace.Tern.overlaps v t
  in
  check Alcotest.bool "inside prefix" true (member 0x0A01FFFF);
  check Alcotest.bool "inside prefix 2" true (member 0x0A010000);
  check Alcotest.bool "outside prefix" false (member 0x0A020000)

let test_header_tern_roundtrip () =
  let rng = Support.Rng.create 77 in
  for _ = 1 to 50 do
    let h = Hspace.Header.random rng in
    let h' = Hspace.Header.of_tern (Hspace.Header.to_tern h) in
    check Alcotest.bool "roundtrip" true (Hspace.Header.equal h h')
  done

let test_header_udp () =
  let h = Hspace.Header.udp ~src_ip:1 ~dst_ip:2 ~src_port:3 ~dst_port:4 in
  check Alcotest.int "eth_type" Hspace.Header.eth_type_ip h.eth_type;
  check Alcotest.int "proto" Hspace.Header.proto_udp h.ip_proto;
  check Alcotest.int "dst ip" 2 (Hspace.Header.get h Hspace.Field.Ip_dst);
  check Alcotest.int "dst port" 4 (Hspace.Header.get h Hspace.Field.Tp_dst)

let test_header_set_truncates () =
  let h = Hspace.Header.set Hspace.Header.default Hspace.Field.Vlan 0xFFFF in
  check Alcotest.int "vlan truncated to 12 bits" 0xFFF h.vlan

(* ---- qcheck: packed representation vs naive string model ---- *)

let tern_gen =
  QCheck2.Gen.(
    let bit = oneofl [ '0'; '1'; 'x' ] in
    map
      (fun chars -> String.init (List.length chars) (List.nth chars))
      (list_size (int_range 1 80) bit))

let naive_inter a b =
  String.mapi
    (fun i ca ->
      let cb = b.[i] in
      match ca, cb with
      | 'x', c | c, 'x' -> c
      | ca, cb when ca = cb -> ca
      | _ -> 'z')
    a

let prop_inter_matches_naive =
  QCheck2.Test.make ~name:"packed inter = naive string inter" ~count:500
    QCheck2.Gen.(pair tern_gen tern_gen)
    (fun (a, b) ->
      let b = String.sub (b ^ String.make 80 'x') 0 (String.length a) in
      let packed = T.to_string (T.inter (t_of a) (t_of b)) in
      let naive = naive_inter a b in
      (* Both encode the same set: z anywhere means empty. *)
      if String.contains naive 'z' then T.is_empty (T.inter (t_of a) (t_of b))
      else String.equal packed naive)

(* ---- qcheck: word-wise field writes, non-allocating overlap ---- *)

(* Positions drawn from 0, 1, x and (rarely) z, so some cubes are empty. *)
let string_with_z_gen n =
  QCheck2.Gen.(
    map
      (fun chars -> String.init n (Array.get chars))
      (array_size (pure n) (frequencyl [ (4, 'x'); (2, '0'); (2, '1'); (1, 'z') ])))

let header_cube_gen = QCheck2.Gen.map t_of (string_with_z_gen Hspace.Field.total_width)

(* Any int, or a prefix mask of some field (exact and empty included). *)
let masked_value_gen =
  QCheck2.Gen.(
    oneof
      [
        int;
        map2
          (fun f n -> Hspace.Field.prefix_mask f (n mod (Hspace.Field.bit_width f + 1)))
          (oneofl Hspace.Field.all) nat;
      ])

let per_bit_set_masked cube ~base ~len ~value ~mask =
  let t = ref cube in
  for i = 0 to len - 1 do
    if (mask lsr i) land 1 = 1 then
      t := T.set !t (base + i) (if (value lsr i) land 1 = 1 then T.One else T.Zero)
  done;
  !t

let prop_set_masked_per_bit =
  QCheck2.Test.make ~name:"word-wise set_masked = per-bit Tern.set fold" ~count:500
    QCheck2.Gen.(
      quad header_cube_gen (oneofl Hspace.Field.all) masked_value_gen masked_value_gen)
    (fun (cube, f, value, mask) ->
      let base = Hspace.Field.offset f and len = Hspace.Field.bit_width f in
      let expected = per_bit_set_masked cube ~base ~len ~value ~mask in
      T.equal (Hspace.Field.set_masked cube f ~value ~mask) expected
      (* Arbitrary ranges, not only field-aligned ones, cross words too. *)
      && (let base = value land max_int mod 170 and len = mask land max_int mod 59 in
          T.equal
            (T.set_masked cube ~base ~len ~value:mask ~mask:value)
            (per_bit_set_masked cube ~base ~len ~value:mask ~mask:value)))

let prop_overlaps_is_nonempty_inter =
  QCheck2.Test.make ~name:"overlaps = inter non-empty" ~count:500
    QCheck2.Gen.(
      let* n = int_range 1 100 in
      pair (string_with_z_gen n) (string_with_z_gen n))
    (fun (a, b) ->
      let a = t_of a and b = t_of b in
      T.overlaps a b = not (T.is_empty (T.inter a b)))

(* Reference parser: a [Tern.set] fold, one copy of the cube per
   character. *)
let per_char_of_string s =
  let t = ref (T.all_x (String.length s)) in
  String.iteri
    (fun i c ->
      t :=
        T.set !t i
          (match c with
          | '0' -> T.Zero
          | '1' -> T.One
          | 'z' | 'Z' -> T.Empty
          | _ -> T.Any))
    s;
  !t

let prop_of_string_per_char =
  QCheck2.Test.make ~name:"of_string = per-character Tern.set fold" ~count:500
    QCheck2.Gen.(
      string_size ~gen:(oneofl [ '0'; '1'; 'x'; 'X'; '*'; 'z'; 'Z' ]) (int_range 1 300))
    (fun s -> T.equal (T.of_string s) (per_char_of_string s))

(* The renderer as it read bit by bit: [to_string] now reads the
   words two encoding bits per character. *)
let per_bit_to_string t =
  String.init (T.width t) (fun i ->
      match T.get t i with T.Zero -> '0' | T.One -> '1' | T.Any -> 'x' | T.Empty -> 'z')

let prop_to_string_per_bit =
  QCheck2.Test.make ~name:"to_string = per-bit renderer" ~count:500
    QCheck2.Gen.(
      string_size ~gen:(frequencyl [ (4, '0'); (4, '1'); (6, 'x'); (1, 'z') ]) (int_range 1 300))
    (fun s ->
      let t = T.of_string s in
      String.equal (T.to_string t) (per_bit_to_string t))

(* ---- the batch builder's cube order ---- *)

(* [Hs.Builder.build] as it was before its sweep skipped the kept cubes
   of equal fixed-bit count: the same dedup and sort, each cube tested
   against every kept cube.  Transfer answers print the cube order it
   leaves, so the two must agree cube for cube, in order.  [items] is
   the builder's list, newest first. *)
let builder_before items =
  let uniq = ref [] and n = ref 0 in
  (if List.length items <= 12 then
     let kept = ref [] in
     List.iter
       (fun c ->
         if (not (T.is_empty c)) && not (List.exists (T.equal c) !kept) then begin
           kept := c :: !kept;
           uniq := (T.count_fixed c, c) :: !uniq;
           incr n
         end)
       items
   else
     let seen = Hashtbl.create (2 * List.length items) in
     List.iter
       (fun c ->
         if not (T.is_empty c) then begin
           let h = T.hash c in
           if not (List.exists (T.equal c) (Hashtbl.find_all seen h)) then begin
             Hashtbl.add seen h c;
             uniq := (T.count_fixed c, c) :: !uniq;
             incr n
           end
         end)
       items);
  if !n = 0 then []
  else begin
    let arr = Array.of_list !uniq in
    Array.sort (fun (a, _) (b, _) -> Int.compare a b) arr;
    let kept = ref [] in
    Array.iter
      (fun (_, c) -> if not (List.exists (fun d -> T.subset c d) !kept) then kept := c :: !kept)
      arr;
    List.rev !kept
  end

(* Cubes over a few words that fix bits from one small pool, so many
   share a fixed-bit count, contain one another or repeat; a few are
   empty, and some are split off one cube by [Tern.diff] as a shadow
   subtraction splits a slice. *)
let builder_input_gen =
  QCheck2.Gen.(
    let* width = int_range 40 130 in
    let* pool = list_repeat 6 (int_range 0 (width - 1)) in
    let cube =
      let* fixed = list_size (int_range 0 5) (pair (oneofl pool) bool) in
      let+ empty = frequencyl [ (12, false); (1, true) ] in
      let c =
        List.fold_left
          (fun c (i, b) -> T.set c i (if b then T.One else T.Zero))
          (T.all_x width) fixed
      in
      if empty then T.set c (List.hd pool) T.Empty else c
    in
    let* plain = list_size (int_range 0 50) cube in
    let* split = opt (pair cube cube) in
    let+ order = int_range 0 2 in
    let split = match split with None -> [] | Some (a, b) -> T.diff a b in
    let cs = plain @ split in
    (width, match order with 0 -> cs | 1 -> List.rev cs | _ -> split @ plain @ split))

let prop_of_cubes_order =
  QCheck2.Test.make ~name:"of_cubes = builder before, cube for cube" ~count:500
    builder_input_gen (fun (width, cs) ->
      (* The builder holds its cubes newest first. *)
      List.equal T.equal (Hs.cubes (Hs.of_cubes width cs)) (builder_before (List.rev cs)))

let prop_nonempty_subset =
  QCheck2.Test.make ~name:"nonempty_subset = subset on non-empty cubes" ~count:500
    QCheck2.Gen.(
      pair builder_input_gen (pair (int_range 0 1000) (int_range 0 1000)))
    (fun ((_, cs), (i, j)) ->
      match List.filter (fun c -> not (T.is_empty c)) cs with
      | [] -> true
      | nonempty ->
        let n = List.length nonempty in
        let a = List.nth nonempty (i mod n) and b = List.nth nonempty (j mod n) in
        T.nonempty_subset a b = T.subset a b && T.nonempty_subset a a)

(* ---- qcheck: Hs algebra vs brute-force enumeration ---- *)

(* Width 8 keeps the concrete universe (256 vectors) fully enumerable,
   so every set operation can be checked against literal membership of
   the whole space rather than sampled vectors. *)
let bw = 8

let enum_all =
  List.init (1 lsl bw) (fun v ->
      t_of (String.init bw (fun i -> if (v lsr i) land 1 = 1 then '1' else '0')))

let cube8_gen =
  QCheck2.Gen.(
    map
      (fun chars -> t_of (String.init bw (List.nth chars)))
      (* the occasional z exercises empty-cube dropping *)
      (list_repeat bw (frequencyl [ (3, '0'); (3, '1'); (4, 'x'); (1, 'z') ])))

let cubes8_gen = QCheck2.Gen.(list_size (int_range 0 4) cube8_gen)

let prop_hs_ops_brute_force =
  QCheck2.Test.make ~name:"union/inter/diff/complement = enumeration" ~count:200
    QCheck2.Gen.(pair cubes8_gen cubes8_gen)
    (fun (ca, cb) ->
      let a = Hs.of_cubes bw ca and b = Hs.of_cubes bw cb in
      let u = Hs.union a b
      and i = Hs.inter a b
      and ia = Hs.inter a a
      and d = Hs.diff a b
      and c = Hs.complement a in
      List.for_all
        (fun v ->
          let ma = Hs.mem v a and mb = Hs.mem v b in
          Hs.mem v u = (ma || mb)
          && Hs.mem v i = (ma && mb)
          && Hs.mem v ia = ma
          && Hs.mem v d = (ma && not mb)
          && Hs.mem v c = not ma)
        enum_all)

let prop_hs_subset_brute_force =
  QCheck2.Test.make ~name:"subset = enumeration" ~count:200
    QCheck2.Gen.(pair cubes8_gen cubes8_gen)
    (fun (ca, cb) ->
      let a = Hs.of_cubes bw ca and b = Hs.of_cubes bw cb in
      Hs.subset a b
      = List.for_all (fun v -> (not (Hs.mem v a)) || Hs.mem v b) enum_all)

(* Sets as the slice filter meets them, the empty and the full set
   included. *)
let hs8_gen =
  QCheck2.Gen.(
    frequency
      [
        (1, return (Hs.empty bw));
        (1, return (Hs.full bw));
        (6, map (Hs.of_cubes bw) cubes8_gen);
      ])

let prop_overlaps_is_nonempty_hs_inter =
  QCheck2.Test.make ~name:"Hs.overlaps = inter non-empty = enumeration" ~count:500
    QCheck2.Gen.(pair hs8_gen hs8_gen)
    (fun (a, b) ->
      let o = Hs.overlaps a b in
      o = not (Hs.is_empty (Hs.inter a b))
      && o = List.exists (fun v -> Hs.mem v a && Hs.mem v b) enum_all
      && o = Hs.overlaps b a)

let prop_builder_matches_ref =
  (* The batch builder and the original quadratic normaliser must agree
     on the normal form itself (the set of maximal cubes is unique), not
     merely denote the same set. *)
  QCheck2.Test.make ~name:"batch builder = reference normalise" ~count:300
    QCheck2.Gen.(list_size (int_range 0 8) cube8_gen)
    (fun cs ->
      let fast = Hs.of_cubes bw cs and slow = Hs.of_cubes_ref bw cs in
      let sorted hs = List.sort T.compare (Hs.cubes hs) in
      List.equal T.equal (sorted fast) (sorted slow) && Hs.equal fast slow)

let prop_bound_contains_cubes =
  QCheck2.Test.make ~name:"bound contains every cube" ~count:200 cubes8_gen
    (fun cs ->
      let a = Hs.of_cubes bw cs in
      List.for_all (fun c -> T.subset c (Hs.bound a)) (Hs.cubes a))

let prop_hash_respects_structure =
  QCheck2.Test.make ~name:"structurally equal sets hash equally" ~count:200
    cubes8_gen
    (fun cs ->
      (* Same cubes presented in reverse order must reach the same
         normal form and therefore the same (order-independent) hash. *)
      Hs.hash (Hs.of_cubes bw cs) = Hs.hash (Hs.of_cubes bw (List.rev cs)))

let () =
  Alcotest.run "hspace"
    [
      ( "tern",
        [
          Alcotest.test_case "string roundtrip" `Quick test_tern_roundtrip;
          Alcotest.test_case "get/set" `Quick test_tern_get_set;
          Alcotest.test_case "empty/full/concrete" `Quick test_tern_empty_full_concrete;
          Alcotest.test_case "word boundaries" `Quick test_tern_word_boundary;
          Alcotest.test_case "intersection" `Quick test_tern_inter;
          Alcotest.test_case "subset" `Quick test_tern_subset;
          Alcotest.test_case "complement" `Quick test_tern_complement;
          Alcotest.test_case "difference" `Quick test_tern_diff;
          Alcotest.test_case "count_fixed" `Quick test_tern_count_fixed;
          Alcotest.test_case "of_string invalid" `Quick test_tern_of_string_invalid;
          QCheck_alcotest.to_alcotest prop_of_string_per_char;
          QCheck_alcotest.to_alcotest prop_to_string_per_bit;
          QCheck_alcotest.to_alcotest prop_nonempty_subset;
          QCheck_alcotest.to_alcotest prop_inter_matches_naive;
          QCheck_alcotest.to_alcotest prop_overlaps_is_nonempty_inter;
        ] );
      ("oracle", oracle_tests);
      ( "hs",
        [
          Alcotest.test_case "empty/full" `Quick test_hs_empty_full;
          Alcotest.test_case "normalisation" `Quick test_hs_normalisation;
          Alcotest.test_case "no subsumed cubes" `Quick test_hs_no_subsumed_cubes;
          QCheck_alcotest.to_alcotest prop_hs_ops_brute_force;
          QCheck_alcotest.to_alcotest prop_hs_subset_brute_force;
          QCheck_alcotest.to_alcotest prop_overlaps_is_nonempty_hs_inter;
          QCheck_alcotest.to_alcotest prop_builder_matches_ref;
          QCheck_alcotest.to_alcotest prop_of_cubes_order;
          QCheck_alcotest.to_alcotest prop_bound_contains_cubes;
          QCheck_alcotest.to_alcotest prop_hash_respects_structure;
        ] );
      ( "field+header",
        [
          Alcotest.test_case "layout" `Quick test_field_layout;
          Alcotest.test_case "set/get" `Quick test_field_set_get;
          Alcotest.test_case "prefix" `Quick test_field_prefix;
          Alcotest.test_case "header/tern roundtrip" `Quick test_header_tern_roundtrip;
          Alcotest.test_case "udp constructor" `Quick test_header_udp;
          Alcotest.test_case "set truncates" `Quick test_header_set_truncates;
          QCheck_alcotest.to_alcotest prop_set_masked_per_bit;
        ] );
    ]
