(* Tests for the application layer: exact similarity statistics, the
   distributed join, and the EQ^n_k reduction (Fact 2.1). *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let iset = Alcotest.testable (fun ppf s -> Iset.pp ppf s) Iset.equal

let rng seed = Prng.Rng.of_int seed

(* ---------- Similarity ---------- *)

let test_similarity_basic () =
  let s = [| 1; 2; 3; 4 |] and t = [| 3; 4; 5; 6 |] in
  let r = Apps.Similarity.run (rng 1) ~universe:100 s t in
  Alcotest.check iset "intersection" [| 3; 4 |] r.Apps.Similarity.intersection;
  check "intersection size" 2 r.Apps.Similarity.intersection_size;
  check "union size" 6 r.Apps.Similarity.union_size;
  check "distinct" 6 r.Apps.Similarity.distinct;
  check_float "jaccard" (2.0 /. 6.0) r.Apps.Similarity.jaccard;
  check "hamming" 4 r.Apps.Similarity.hamming;
  check_float "rarity1" (4.0 /. 6.0) r.Apps.Similarity.rarity1;
  check_float "rarity2" (2.0 /. 6.0) r.Apps.Similarity.rarity2

let test_similarity_empty () =
  let r = Apps.Similarity.run (rng 2) ~universe:100 Iset.empty Iset.empty in
  check "union" 0 r.Apps.Similarity.union_size;
  check_float "jaccard convention" 1.0 r.Apps.Similarity.jaccard;
  check "hamming" 0 r.Apps.Similarity.hamming

let test_similarity_identical () =
  let s = Iset.of_list (List.init 50 (fun i -> i * 3)) in
  let r = Apps.Similarity.run (rng 3) ~universe:1000 s s in
  check_float "jaccard" 1.0 r.Apps.Similarity.jaccard;
  check "hamming" 0 r.Apps.Similarity.hamming;
  check_float "rarity1" 0.0 r.Apps.Similarity.rarity1

let test_similarity_disjoint () =
  let s = [| 1; 3; 5 |] and t = [| 2; 4; 6 |] in
  let r = Apps.Similarity.run (rng 4) ~universe:100 s t in
  check_float "jaccard" 0.0 r.Apps.Similarity.jaccard;
  check "hamming" 6 r.Apps.Similarity.hamming;
  check_float "rarity1" 1.0 r.Apps.Similarity.rarity1

let test_similarity_matches_ground_truth_random () =
  for seed = 1 to 20 do
    let pair =
      Workload.Setgen.pair_with_overlap (rng (100 + seed)) ~universe:100000 ~size_s:60 ~size_t:40
        ~overlap:15
    in
    let r = Apps.Similarity.run (rng seed) ~universe:100000 pair.Workload.Setgen.s pair.Workload.Setgen.t in
    check "intersection size" 15 r.Apps.Similarity.intersection_size;
    check "union size" 85 r.Apps.Similarity.union_size
  done

let test_similarity_cheaper_than_trivial_for_large_universe () =
  (* The whole point: exact Jaccard at O(k) bits instead of O(k log n/k). *)
  let universe = 1 lsl 50 in
  let pair =
    Workload.Setgen.pair_with_overlap (rng 7) ~universe ~size_s:512 ~size_t:512 ~overlap:128
  in
  let smart = Apps.Similarity.run (rng 8) ~universe pair.Workload.Setgen.s pair.Workload.Setgen.t in
  let trivial =
    Apps.Similarity.run ~protocol:Intersect.Trivial.protocol (rng 8) ~universe
      pair.Workload.Setgen.s pair.Workload.Setgen.t
  in
  check_bool
    (Printf.sprintf "smart %d bits < trivial %d bits" smart.Apps.Similarity.cost.Commsim.Cost.total_bits
       trivial.Apps.Similarity.cost.Commsim.Cost.total_bits)
    true
    (smart.Apps.Similarity.cost.Commsim.Cost.total_bits
    < trivial.Apps.Similarity.cost.Commsim.Cost.total_bits)

(* ---------- Join ---------- *)

let row key payload = { Apps.Join.key; payload }

let test_join_basic () =
  let left = [| row 1 "alice"; row 2 "bob"; row 5 "carol" |] in
  let right = [| row 2 "x"; row 5 "y"; row 9 "z" |] in
  let joined, _ = Apps.Join.run (rng 1) ~universe:100 ~left ~right in
  Alcotest.(check int) "two rows" 2 (List.length joined);
  let r2 = List.nth joined 0 and r5 = List.nth joined 1 in
  check "key" 2 r2.Apps.Join.key;
  Alcotest.(check string) "left payload" "bob" r2.Apps.Join.left;
  Alcotest.(check string) "right payload" "x" r2.Apps.Join.right;
  check "key" 5 r5.Apps.Join.key;
  Alcotest.(check string) "left payload" "carol" r5.Apps.Join.left;
  Alcotest.(check string) "right payload" "y" r5.Apps.Join.right

let test_join_empty_result () =
  let left = [| row 1 "a" |] and right = [| row 2 "b" |] in
  let joined, _ = Apps.Join.run (rng 2) ~universe:100 ~left ~right in
  check "no rows" 0 (List.length joined)

let test_join_duplicate_keys_rejected () =
  let left = [| row 1 "a"; row 1 "b" |] in
  Alcotest.check_raises "dup" (Invalid_argument "Join.run: duplicate keys") (fun () ->
      ignore (Apps.Join.run (rng 3) ~universe:100 ~left ~right:[| row 1 "c" |]))

let test_join_payloads_with_binary_content () =
  let left = [| row 7 "\000\255 weird\npayload" |] in
  let right = [| row 7 "" |] in
  let joined, _ = Apps.Join.run (rng 4) ~universe:100 ~left ~right in
  Alcotest.(check string) "binary payload survives" "\000\255 weird\npayload"
    (List.hd joined).Apps.Join.left;
  Alcotest.(check string) "empty payload survives" "" (List.hd joined).Apps.Join.right

let test_join_larger_random () =
  let universe = 1 lsl 30 in
  let pair =
    Workload.Setgen.pair_with_overlap (rng 5) ~universe ~size_s:200 ~size_t:150 ~overlap:40
  in
  let mk prefix keys = Array.map (fun key -> row key (prefix ^ string_of_int key)) keys in
  let left = mk "L" pair.Workload.Setgen.s and right = mk "R" pair.Workload.Setgen.t in
  let joined, cost = Apps.Join.run (rng 6) ~universe ~left ~right in
  check "row count" 40 (List.length joined);
  List.iter
    (fun (j : Apps.Join.joined) ->
      Alcotest.(check string) "left" ("L" ^ string_of_int j.Apps.Join.key) j.Apps.Join.left;
      Alcotest.(check string) "right" ("R" ^ string_of_int j.Apps.Join.key) j.Apps.Join.right)
    joined;
  check_bool "cost counted" true (cost.Commsim.Cost.total_bits > 0)

(* ---------- Union / symmetric difference ---------- *)

let test_union_basic () =
  let s = [| 1; 2; 3; 4 |] and t = [| 3; 4; 5; 6 |] in
  let r = Apps.Union.run (rng 1) ~universe:100 s t in
  Alcotest.check iset "union" [| 1; 2; 3; 4; 5; 6 |] r.Apps.Union.union;
  Alcotest.check iset "intersection" [| 3; 4 |] r.Apps.Union.intersection;
  Alcotest.check iset "sym diff" [| 1; 2; 5; 6 |] r.Apps.Union.symmetric_difference

let test_union_edge_cases () =
  let r = Apps.Union.run (rng 2) ~universe:100 Iset.empty Iset.empty in
  Alcotest.check iset "empty union" Iset.empty r.Apps.Union.union;
  let s = [| 7; 9 |] in
  let r = Apps.Union.run (rng 3) ~universe:100 s s in
  Alcotest.check iset "identical union" s r.Apps.Union.union;
  Alcotest.check iset "identical diff" Iset.empty r.Apps.Union.symmetric_difference;
  let r = Apps.Union.run (rng 4) ~universe:100 s Iset.empty in
  Alcotest.check iset "one empty" s r.Apps.Union.union;
  Alcotest.check iset "one empty diff" s r.Apps.Union.symmetric_difference

let prop_union_ground_truth =
  QCheck.Test.make ~name:"union/inter/symdiff vs truth" ~count:100
    QCheck.(triple small_signed_int (list (int_bound 400)) (list (int_bound 400)))
    (fun (seed, ls, lt) ->
      let s = Iset.of_list ls and t = Iset.of_list lt in
      let r = Apps.Union.run (rng seed) ~universe:401 s t in
      Iset.equal r.Apps.Union.union (Iset.union s t)
      && Iset.equal r.Apps.Union.intersection (Iset.inter s t)
      && Iset.equal r.Apps.Union.symmetric_difference
           (Iset.union (Iset.diff s t) (Iset.diff t s)))

let test_union_costs_more_than_intersection_at_wide_universe () =
  let universe = 1 lsl 50 in
  let pair =
    Workload.Setgen.pair_with_overlap (rng 7) ~universe ~size_s:512 ~size_t:512 ~overlap:256
  in
  let union_cost =
    (Apps.Union.run (rng 8) ~universe pair.Workload.Setgen.s pair.Workload.Setgen.t).Apps.Union.cost
      .Commsim.Cost.total_bits
  in
  let protocol = Intersect.Tree_protocol.protocol_log_star ~k:512 () in
  let int_cost =
    (protocol.Intersect.Protocol.run (rng 8) ~universe pair.Workload.Setgen.s
       pair.Workload.Setgen.t)
      .Intersect.Protocol.cost
      .Commsim.Cost.total_bits
  in
  Alcotest.(check bool)
    (Printf.sprintf "union %d > intersection %d" union_cost int_cost)
    true (union_cost > int_cost)

(* ---------- EQ^n_k via INT (Fact 2.1) ---------- *)

let test_eqk_basic () =
  let xs = [| "foo"; "bar"; "baz"; "quux" |] in
  let ys = [| "foo"; "BAR"; "baz"; "quuz" |] in
  let answers, _ = Apps.Eq_via_intersection.run (rng 1) xs ys in
  Alcotest.(check (array bool)) "verdicts" [| true; false; true; false |] answers

let test_eqk_long_strings () =
  let long = String.concat "-" (List.init 100 string_of_int) in
  let xs = [| long; long ^ "a" |] in
  let ys = [| long; long ^ "b" |] in
  let answers, _ = Apps.Eq_via_intersection.run (rng 2) xs ys in
  Alcotest.(check (array bool)) "verdicts" [| true; false |] answers

let test_eqk_positional () =
  (* The same string at different positions must NOT count as equal. *)
  let xs = [| "a"; "b" |] and ys = [| "b"; "a" |] in
  let answers, _ = Apps.Eq_via_intersection.run (rng 3) xs ys in
  Alcotest.(check (array bool)) "verdicts" [| false; false |] answers

let test_eqk_many_instances () =
  let k = 300 in
  let xs = Array.init k (fun i -> "inst" ^ string_of_int i) in
  let ys = Array.init k (fun i -> if i mod 3 = 0 then "inst" ^ string_of_int i else "other" ^ string_of_int i) in
  let answers, cost = Apps.Eq_via_intersection.run (rng 4) xs ys in
  Array.iteri (fun i v -> if v <> (i mod 3 = 0) then Alcotest.failf "instance %d" i) answers;
  (* amortized: must be far below k * (string length) *)
  check_bool "amortized cost" true (cost.Commsim.Cost.total_bits < k * 200)

let test_eqk_arity_mismatch () =
  Alcotest.check_raises "arity" (Invalid_argument "Eq_via_intersection.run: arity mismatch")
    (fun () -> ignore (Apps.Eq_via_intersection.run (rng 5) [| "a" |] [| "a"; "b" |]))

let () =
  Alcotest.run "apps"
    [
      ( "similarity",
        [
          Alcotest.test_case "basic" `Quick test_similarity_basic;
          Alcotest.test_case "empty" `Quick test_similarity_empty;
          Alcotest.test_case "identical" `Quick test_similarity_identical;
          Alcotest.test_case "disjoint" `Quick test_similarity_disjoint;
          Alcotest.test_case "ground truth" `Quick test_similarity_matches_ground_truth_random;
          Alcotest.test_case "cheaper than trivial" `Quick
            test_similarity_cheaper_than_trivial_for_large_universe;
        ] );
      ( "join",
        [
          Alcotest.test_case "basic" `Quick test_join_basic;
          Alcotest.test_case "empty result" `Quick test_join_empty_result;
          Alcotest.test_case "duplicate keys" `Quick test_join_duplicate_keys_rejected;
          Alcotest.test_case "binary payloads" `Quick test_join_payloads_with_binary_content;
          Alcotest.test_case "larger random" `Quick test_join_larger_random;
        ] );
      ( "union",
        [
          Alcotest.test_case "basic" `Quick test_union_basic;
          Alcotest.test_case "edge cases" `Quick test_union_edge_cases;
          QCheck_alcotest.to_alcotest prop_union_ground_truth;
          Alcotest.test_case "costs more than intersection" `Quick
            test_union_costs_more_than_intersection_at_wide_universe;
        ] );
      ( "eq_via_intersection",
        [
          Alcotest.test_case "basic" `Quick test_eqk_basic;
          Alcotest.test_case "long strings" `Quick test_eqk_long_strings;
          Alcotest.test_case "positional" `Quick test_eqk_positional;
          Alcotest.test_case "many instances" `Quick test_eqk_many_instances;
          Alcotest.test_case "arity mismatch" `Quick test_eqk_arity_mismatch;
        ] );
    ]
