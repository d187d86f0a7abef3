(* Unit + property tests for the support substrate. *)

let check = Alcotest.check

(* ---- Rng ---- *)

let test_rng_determinism () =
  let a = Support.Rng.create 7 and b = Support.Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Support.Rng.int a 1000) (Support.Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Support.Rng.create 7 in
  let b = Support.Rng.split a in
  (* Drawing from the split stream must not equal just continuing [a]'s
     stream from the same point (they are distinct states). *)
  let xs = List.init 20 (fun _ -> Support.Rng.int a 1_000_000)
  and ys = List.init 20 (fun _ -> Support.Rng.int b 1_000_000) in
  check Alcotest.bool "streams differ" true (xs <> ys)

let test_rng_bounds () =
  let rng = Support.Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Support.Rng.int rng 17 in
    check Alcotest.bool "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Support.Rng.int_range rng (-5) 5 in
    check Alcotest.bool "in closed range" true (v >= -5 && v <= 5)
  done

let test_rng_float_bounds () =
  let rng = Support.Rng.create 2 in
  for _ = 1 to 1000 do
    let v = Support.Rng.float rng 3.0 in
    check Alcotest.bool "float in range" true (v >= 0.0 && v < 3.0)
  done

let test_rng_bernoulli_extremes () =
  let rng = Support.Rng.create 3 in
  for _ = 1 to 100 do
    check Alcotest.bool "p=0 never" false (Support.Rng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    check Alcotest.bool "p=1 always" true (Support.Rng.bernoulli rng 1.0)
  done

let test_rng_exponential_mean () =
  let rng = Support.Rng.create 4 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Support.Rng.exponential rng ~mean:2.0
  done;
  let mean = !total /. float_of_int n in
  check Alcotest.bool "sample mean near 2.0" true (abs_float (mean -. 2.0) < 0.1)

let test_rng_shuffle_permutation () =
  let rng = Support.Rng.create 5 in
  let xs = List.init 50 Fun.id in
  let ys = Support.Rng.shuffle rng xs in
  check (Alcotest.list Alcotest.int) "same multiset" xs (List.sort compare ys)

let test_rng_sample () =
  let rng = Support.Rng.create 6 in
  let xs = List.init 30 Fun.id in
  let s = Support.Rng.sample rng 10 xs in
  check Alcotest.int "sample size" 10 (List.length s);
  check Alcotest.int "distinct" 10 (List.length (List.sort_uniq compare s));
  check (Alcotest.list Alcotest.int) "sample of small list is the list" [ 1; 2 ]
    (Support.Rng.sample rng 5 [ 1; 2 ])

let test_rng_invalid () =
  let rng = Support.Rng.create 0 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Support.Rng.int rng 0));
  Alcotest.check_raises "pick []" (Invalid_argument "Rng.pick: empty list") (fun () ->
      ignore (Support.Rng.pick rng []))

(* ---- Pqueue ---- *)

let test_pqueue_order () =
  let q = Support.Pqueue.create () in
  Support.Pqueue.push q 3.0 "c";
  Support.Pqueue.push q 1.0 "a";
  Support.Pqueue.push q 2.0 "b";
  let pop () = match Support.Pqueue.pop q with Some (_, v) -> v | None -> "!" in
  check Alcotest.string "first" "a" (pop ());
  check Alcotest.string "second" "b" (pop ());
  check Alcotest.string "third" "c" (pop ());
  check Alcotest.bool "empty" true (Support.Pqueue.is_empty q)

let test_pqueue_fifo_ties () =
  let q = Support.Pqueue.create () in
  List.iter (fun v -> Support.Pqueue.push q 1.0 v) [ 1; 2; 3; 4; 5 ];
  let popped = List.init 5 (fun _ -> snd (Option.get (Support.Pqueue.pop q))) in
  check (Alcotest.list Alcotest.int) "FIFO within equal priority" [ 1; 2; 3; 4; 5 ] popped

let test_pqueue_random_sorted () =
  let rng = Support.Rng.create 9 in
  let q = Support.Pqueue.create () in
  let priorities = List.init 500 (fun _ -> Support.Rng.float rng 100.0) in
  List.iter (fun p -> Support.Pqueue.push q p p) priorities;
  let rec drain acc =
    match Support.Pqueue.pop q with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
  in
  let drained = drain [] in
  check (Alcotest.list (Alcotest.float 0.0)) "drains in sorted order"
    (List.sort compare priorities) drained

let test_pqueue_peek () =
  let q = Support.Pqueue.create () in
  check Alcotest.bool "peek empty" true (Support.Pqueue.peek q = None);
  Support.Pqueue.push q 5.0 "x";
  check Alcotest.bool "peek keeps element" true
    (Support.Pqueue.peek q <> None && Support.Pqueue.length q = 1)

(* ---- Ring ---- *)

let test_ring_eviction () =
  let r = Support.Ring.create 3 in
  List.iter (Support.Ring.push r) [ 1; 2; 3; 4; 5 ];
  check (Alcotest.list Alcotest.int) "keeps most recent" [ 3; 4; 5 ] (Support.Ring.to_list r);
  check Alcotest.int "length" 3 (Support.Ring.length r);
  check Alcotest.int "capacity" 3 (Support.Ring.capacity r)

let test_ring_partial () =
  let r = Support.Ring.create 10 in
  List.iter (Support.Ring.push r) [ 1; 2 ];
  check (Alcotest.list Alcotest.int) "partial fill" [ 1; 2 ] (Support.Ring.to_list r);
  check Alcotest.bool "latest" true (Support.Ring.latest r = Some 2)

let test_ring_find () =
  let r = Support.Ring.create 5 in
  List.iter (Support.Ring.push r) [ 1; 2; 3; 4 ];
  check Alcotest.bool "find most recent even" true
    (Support.Ring.find r ~f:(fun x -> x mod 2 = 0) = Some 4);
  check Alcotest.bool "find missing" true (Support.Ring.find r ~f:(fun x -> x > 9) = None)

let test_ring_fold_clear () =
  let r = Support.Ring.create 4 in
  List.iter (Support.Ring.push r) [ 1; 2; 3 ];
  check Alcotest.int "fold sum" 6 (Support.Ring.fold r ~init:0 ~f:( + ));
  Support.Ring.clear r;
  check Alcotest.int "cleared" 0 (Support.Ring.length r)

(* ---- Stats ---- *)

let test_stats_mean_stddev () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Support.Stats.mean [ 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 1e-9) "mean empty" 0.0 (Support.Stats.mean []);
  check (Alcotest.float 1e-9) "stddev constant" 0.0 (Support.Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check (Alcotest.float 1e-6) "stddev" (sqrt (2.0 /. 3.0))
    (Support.Stats.stddev [ 1.0; 2.0; 3.0 ])

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check (Alcotest.float 1e-9) "p50" 50.0 (Support.Stats.percentile 50.0 xs);
  check (Alcotest.float 1e-9) "p99" 99.0 (Support.Stats.percentile 99.0 xs);
  check (Alcotest.float 1e-9) "p100" 100.0 (Support.Stats.percentile 100.0 xs)

let test_stats_minmax_histogram () =
  check (Alcotest.float 1e-9) "min" 1.0 (Support.Stats.minimum [ 3.0; 1.0; 2.0 ]);
  check (Alcotest.float 1e-9) "max" 3.0 (Support.Stats.maximum [ 3.0; 1.0; 2.0 ]);
  let h = Support.Stats.histogram ~buckets:2 ~lo:0.0 ~hi:10.0 [ 1.0; 2.0; 9.0 ] in
  check (Alcotest.array Alcotest.int) "histogram" [| 2; 1 |] h

(* ---- qcheck properties ---- *)

let prop_pqueue_sorted =
  QCheck2.Test.make ~name:"pqueue drains sorted" ~count:200
    QCheck2.Gen.(list (float_bound_inclusive 1000.0))
    (fun priorities ->
      let q = Support.Pqueue.create () in
      List.iter (fun p -> Support.Pqueue.push q p ()) priorities;
      let rec drain acc =
        match Support.Pqueue.pop q with
        | None -> List.rev acc
        | Some (p, ()) -> drain (p :: acc)
      in
      drain [] = List.sort compare priorities)

let prop_ring_suffix =
  QCheck2.Test.make ~name:"ring keeps the last k items" ~count:200
    QCheck2.Gen.(pair (int_range 1 20) (list int))
    (fun (cap, xs) ->
      let r = Support.Ring.create cap in
      List.iter (Support.Ring.push r) xs;
      let expected =
        let n = List.length xs in
        List.filteri (fun i _ -> i >= n - cap) xs
      in
      Support.Ring.to_list r = expected)

let () =
  Alcotest.run "support"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample" `Quick test_rng_sample;
          Alcotest.test_case "invalid arguments" `Quick test_rng_invalid;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "basic order" `Quick test_pqueue_order;
          Alcotest.test_case "FIFO ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "random drains sorted" `Quick test_pqueue_random_sorted;
          Alcotest.test_case "peek" `Quick test_pqueue_peek;
          QCheck_alcotest.to_alcotest prop_pqueue_sorted;
        ] );
      ( "ring",
        [
          Alcotest.test_case "eviction" `Quick test_ring_eviction;
          Alcotest.test_case "partial fill" `Quick test_ring_partial;
          Alcotest.test_case "find" `Quick test_ring_find;
          Alcotest.test_case "fold and clear" `Quick test_ring_fold_clear;
          QCheck_alcotest.to_alcotest prop_ring_suffix;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/stddev" `Quick test_stats_mean_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "minmax/histogram" `Quick test_stats_minmax_histogram;
        ] );
    ]
