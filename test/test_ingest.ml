(* Differential tests for the control-plane ingest path.  The field-wise
   match relations, the one-pass flow-table add, the one-sort table
   replace and the render-free snapshot digest are checked against the
   definitions they replaced, which live on here as oracles only:
   cube-based match relations via [to_tern], the exists/filter/insert
   add, clear-then-add replies, and a digest over the [pp_spec]
   rendering of every rule. *)

module M = Ofproto.Match_
module A = Ofproto.Action
module FE = Ofproto.Flow_entry
module FT = Ofproto.Flow_table

(* ---- oracles: the previous definitions ---- *)

module Old_match = struct
  let port_subset a b =
    match a, b with
    | _, None -> true
    | Some pa, Some pb -> pa = pb
    | None, Some _ -> false

  let port_overlap a b =
    match a, b with
    | None, _ | _, None -> true
    | Some pa, Some pb -> pa = pb

  let subset a b =
    port_subset (M.in_port a) (M.in_port b) && Hspace.Tern.subset (M.to_tern a) (M.to_tern b)

  let overlaps a b =
    port_overlap (M.in_port a) (M.in_port b) && Hspace.Tern.overlaps (M.to_tern a) (M.to_tern b)

  let equal a b = subset a b && subset b a
end

let old_spec_equal (a : FE.spec) (b : FE.spec) =
  a.priority = b.priority
  && Old_match.equal a.match_ b.match_
  && List.equal A.equal a.actions b.actions
  && a.cookie = b.cookie && a.meter = b.meter

(* Priority-descending list, FIFO within a priority. *)
module Old_table = struct
  let rec insert spec = function
    | [] -> [ spec ]
    | (e : FE.spec) :: rest when e.priority >= spec.FE.priority -> e :: insert spec rest
    | rest -> spec :: rest

  (* Returns the new list and whether an entry was replaced. *)
  let add specs (spec : FE.spec) =
    let same_slot (e : FE.spec) =
      e.priority = spec.priority && Old_match.equal e.match_ spec.match_
    in
    let replaced = List.exists same_slot specs in
    (insert spec (List.filter (fun e -> not (same_slot e)) specs), replaced)

  let delete specs ~match_ ~priority =
    List.filter
      (fun (e : FE.spec) -> not (e.priority = priority && Old_match.subset e.match_ match_))
      specs

  let replace specs = List.fold_left (fun acc s -> fst (add acc s)) [] specs
end

let old_digest specs =
  Cryptosim.Hash.digest
    (String.concat "\n" (List.map (fun s -> Format.asprintf "%a" FE.pp_spec s) specs))

(* ---- generators: small domains so equal, nested and overlapping
   matches are common ---- *)

let fields =
  [| Hspace.Field.Ip_dst; Hspace.Field.Tp_dst; Hspace.Field.Eth_src; Hspace.Field.Vlan |]

let masks = [| 0; 1; 3; 6; -1 |]

(* Constraints are applied in generated order, so the same predicate
   is reached through different construction paths (and overwrites). *)
let gen_match =
  QCheck2.Gen.(
    map2
      (fun port cs ->
        let m = match port with None -> M.any | Some p -> M.with_in_port M.any p in
        List.fold_left
          (fun m (f, value, mask) -> M.with_field m fields.(f) ~value ~mask:masks.(mask))
          m cs)
      (opt (int_range 0 1))
      (list_size (int_range 0 4)
         (triple (int_range 0 (Array.length fields - 1)) (int_range 0 7)
            (int_range 0 (Array.length masks - 1)))))

let actions =
  [| A.Output 1; A.Output 2; A.Set_field (Hspace.Field.Ip_dst, 3); A.To_controller |]

let gen_spec =
  QCheck2.Gen.(
    map
      (fun ((priority, match_, acts), (cookie, meter, timeout)) ->
        FE.make_spec ~cookie ?meter
          ?hard_timeout:(if timeout then Some 5.0 else None)
          ~priority match_
          (List.map (fun i -> actions.(i)) acts))
      (pair
         (triple (int_range 0 2) gen_match (list_size (int_range 0 2) (int_range 0 3)))
         (triple (int_range 0 1) (opt (pure 1)) bool)))

let print_match m = Format.asprintf "%a" M.pp m

let print_spec s = Format.asprintf "%a" FE.pp_spec s

(* ---- match relations ---- *)

let prop_match_relations =
  QCheck2.Test.make ~name:"equal/subset/overlaps = to_tern oracle" ~count:2000
    ~print:QCheck2.Print.(pair print_match print_match)
    QCheck2.Gen.(pair gen_match gen_match)
    (fun (a, b) ->
      M.equal a b = Old_match.equal a b
      && M.subset a b = Old_match.subset a b
      && M.subset b a = Old_match.subset b a
      && M.overlaps a b = Old_match.overlaps a b
      && ((not (M.equal a b)) || M.hash a = M.hash b))

(* ---- flow table ---- *)

let same_list a b = List.length a = List.length b && List.for_all2 ( == ) a b

let prop_add_one_pass =
  QCheck2.Test.make ~name:"one-pass add = exists/filter/insert" ~count:500
    ~print:QCheck2.Print.(list print_spec)
    QCheck2.Gen.(list_size (int_range 0 30) gen_spec)
    (fun specs ->
      let t = FT.create () in
      let reports = ref [] in
      FT.on_change t (fun c -> reports := c :: !reports);
      let _, ok =
        List.fold_left
          (fun (model, ok) spec ->
            FT.add t spec ~now:0.0;
            let model, replaced = Old_table.add model spec in
            let report_ok =
              match !reports with
              | FT.Modified s :: _ -> replaced && s == spec
              | FT.Added s :: _ -> (not replaced) && s == spec
              | _ -> false
            in
            (model, ok && report_ok && same_list (FT.specs t) model))
          ([], true) specs
      in
      ok)

let prop_replace =
  QCheck2.Test.make ~name:"replace = clear then add each" ~count:500
    ~print:QCheck2.Print.(pair (list print_spec) (list print_spec))
    QCheck2.Gen.(
      pair (list_size (int_range 0 10) gen_spec) (list_size (int_range 0 30) gen_spec))
    (fun (before, reply) ->
      let t = FT.create () in
      List.iter (fun s -> FT.add t s ~now:0.0) before;
      FT.replace t reply ~now:1.0;
      same_list (FT.specs t) (Old_table.replace reply))

(* ---- snapshot ---- *)

type op =
  | Added of FE.spec
  | Modified of FE.spec
  | Deleted of FE.spec
  | Reply of FE.spec list
  | Confirm  (** a stats reply listing exactly the believed rules *)
  | Retimed  (** the believed rules with every hard timeout flipped *)

let gen_op =
  QCheck2.Gen.(
    frequency
      [
        (4, map (fun s -> Added s) gen_spec);
        (1, map (fun s -> Modified s) gen_spec);
        (2, map (fun s -> Deleted s) gen_spec);
        (1, map (fun l -> Reply l) (list_size (int_range 0 12) gen_spec));
        (2, pure Confirm);
        (1, pure Retimed);
      ])

let print_op = function
  | Added s -> "added " ^ print_spec s
  | Modified s -> "modified " ^ print_spec s
  | Deleted s -> "deleted " ^ print_spec s
  | Reply l -> "reply [" ^ String.concat "; " (List.map print_spec l) ^ "]"
  | Confirm -> "confirm"
  | Retimed -> "retimed"

let retime (s : FE.spec) =
  { s with hard_timeout = (match s.hard_timeout with None -> Some 5.0 | Some _ -> None) }

let old_lists_equal a b = List.length a = List.length b && List.for_all2 old_spec_equal a b

let prop_snapshot_ingest =
  QCheck2.Test.make ~name:"snapshot ingest = clear/add oracle, digest = rendering" ~count:300
    ~print:QCheck2.Print.(list print_op)
    QCheck2.Gen.(list_size (int_range 1 25) gen_op)
    (fun ops ->
      let snap = Rvaas.Snapshot.create () in
      let sw = 3 in
      (* The view exists from the start: creating it is a change of its
         own, even with no rules. *)
      Rvaas.Snapshot.replace_flows snap ~sw ~now:0.0 [];
      let states = ref [] in
      let step (model, ok) (i, op) =
        let now = float_of_int (i + 1) in
        let before = Rvaas.Snapshot.flows snap ~sw in
        let digest_before = Rvaas.Snapshot.switch_digest snap ~sw in
        let model =
          match op with
          | Added s ->
            Rvaas.Snapshot.apply_event snap ~sw ~now (Ofproto.Message.Flow_added s);
            fst (Old_table.add model s)
          | Modified s ->
            Rvaas.Snapshot.apply_event snap ~sw ~now (Ofproto.Message.Flow_modified s);
            fst (Old_table.add model s)
          | Deleted s ->
            Rvaas.Snapshot.apply_event snap ~sw ~now (Ofproto.Message.Flow_deleted s);
            Old_table.delete model ~match_:s.match_ ~priority:s.priority
          | Reply l ->
            Rvaas.Snapshot.replace_flows snap ~sw ~now l;
            Old_table.replace l
          | Confirm ->
            Rvaas.Snapshot.replace_flows snap ~sw ~now before;
            Old_table.replace before
          | Retimed ->
            let l = List.map retime before in
            Rvaas.Snapshot.replace_flows snap ~sw ~now l;
            Old_table.replace l
        in
        let after = Rvaas.Snapshot.flows snap ~sw in
        let digest_after = Rvaas.Snapshot.switch_digest snap ~sw in
        let changed = not (Int64.equal digest_before digest_after) in
        let confirm_ok =
          match op with
          | Confirm -> same_list after before && Rvaas.Snapshot.last_refresh snap ~sw = now
          | _ -> true
        in
        states := (after, digest_after, old_digest after) :: !states;
        ( model,
          ok && confirm_ok && same_list after model
          && changed = not (old_lists_equal before after) )
      in
      let _, ok = List.fold_left step ([], true) (List.mapi (fun i op -> (i, op)) ops) in
      (* Across every state reached: equal digests exactly when the rule
         lists are equal, exactly when the rendered digests are equal. *)
      ok
      && List.for_all
           (fun (l1, d1, r1) ->
             List.for_all
               (fun (l2, d2, r2) ->
                 let same = old_lists_equal l1 l2 in
                 Int64.equal d1 d2 = same && Int64.equal r1 r2 = same)
               !states)
           !states)

let () =
  Alcotest.run "ingest"
    [
      ("match", [ QCheck_alcotest.to_alcotest prop_match_relations ]);
      ( "flow_table",
        [
          QCheck_alcotest.to_alcotest prop_add_one_pass;
          QCheck_alcotest.to_alcotest prop_replace;
        ] );
      ("snapshot", [ QCheck_alcotest.to_alcotest prop_snapshot_ingest ]);
    ]
