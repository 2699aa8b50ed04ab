(* Parallel stable merge sort: correctness, stability, and the extension
   kernels built on it (inverted index, raycast). *)

module Psort = Bds_sort.Psort
module K = Bds_kernels
open Bds_test_util

let () = init ()

let test_basic () =
  List.iter
    (fun n ->
      let a = Array.init n (fun i -> (i * 7919) mod 1000) in
      let expect = Array.copy a in
      Array.stable_sort compare expect;
      Alcotest.(check int_array) (Printf.sprintf "n=%d" n) expect (Psort.sort compare a);
      (* Input untouched. *)
      if n > 0 then
        Alcotest.(check int) "input intact" ((n - 1) * 7919 mod 1000) a.(n - 1))
    [ 0; 1; 2; 3; 100; 4096; 4097; 100_000 ]

let test_in_place_and_grain () =
  let a = Array.init 50_000 (fun i -> (i * 31) mod 977) in
  List.iter
    (fun grain ->
      let c = Array.copy a in
      Psort.sort_in_place ~grain compare c;
      Alcotest.(check bool) (Printf.sprintf "sorted grain=%d" grain) true
        (Psort.is_sorted compare c))
    [ 16; 100; 5000; 100_000 ]

let test_stability () =
  (* Pairs (key, original index): stable sort keeps index order per key. *)
  let n = 30_000 in
  let a = Array.init n (fun i -> ((i * 13) mod 7, i)) in
  let cmp (k1, _) (k2, _) = compare k1 k2 in
  let sorted = Psort.sort ~grain:64 cmp a in
  let ok = ref true in
  for i = 1 to n - 1 do
    let k1, x1 = sorted.(i - 1) and k2, x2 = sorted.(i) in
    if k1 = k2 && x1 >= x2 then ok := false;
    if k1 > k2 then ok := false
  done;
  Alcotest.(check bool) "stable" true !ok

let test_already_sorted_and_reverse () =
  let a = Array.init 10_000 Fun.id in
  Alcotest.(check int_array) "sorted input" a (Psort.sort ~grain:32 compare a);
  let r = Array.init 10_000 (fun i -> 9_999 - i) in
  Alcotest.(check int_array) "reverse input" a (Psort.sort ~grain:32 compare r);
  let c = Array.make 10_000 5 in
  Alcotest.(check int_array) "constant input" c (Psort.sort ~grain:32 compare c);
  (* Halves that do not interleave: each merge's binary search lands at
     a run end, so every sub-merge has an empty side. *)
  let halves =
    Array.append (Array.init 5_000 (fun i -> 5_000 + i)) (Array.init 5_000 Fun.id)
  in
  Alcotest.(check int_array) "non-interleaved halves" a
    (Psort.sort ~grain:32 compare halves)

(* Two sorted runs back to back, as the last merge of a sort sees them;
   one run empty leaves the other as it is. *)
let test_two_sorted_runs () =
  let a = Array.init 1000 (fun i -> 2 * i) in
  let b = Array.init 500 (fun i -> (3 * i) + 1) in
  let expect = Array.append a b in
  Array.stable_sort compare expect;
  List.iter
    (fun grain ->
      Alcotest.(check int_array) (Printf.sprintf "runs grain=%d" grain) expect
        (Psort.sort ~grain compare (Array.append a b));
      Alcotest.(check int_array) (Printf.sprintf "empty left grain=%d" grain) a
        (Psort.sort ~grain compare (Array.append [||] a));
      Alcotest.(check int_array) (Printf.sprintf "empty right grain=%d" grain) a
        (Psort.sort ~grain compare (Array.append a [||])))
    [ 16; 750; 1500 ]

let test_custom_order () =
  let a = Bds_data.Gen.ints ~bound:1000 20_000 in
  let down = Psort.sort ~grain:100 (fun x y -> compare y x) a in
  Alcotest.(check bool) "descending" true
    (Psort.is_sorted (fun x y -> compare y x) down)

let test_group_by () =
  let pairs = [| ("b", 1); ("a", 2); ("b", 3); ("c", 4); ("a", 5); ("b", 6) |] in
  let got = Psort.group_by compare pairs in
  Alcotest.(check int) "groups" 3 (Array.length got);
  let find k = snd (Array.to_list got |> List.find (fun (k', _) -> k' = k)) in
  Alcotest.(check int_array) "a (input order)" [| 2; 5 |] (find "a");
  Alcotest.(check int_array) "b (input order)" [| 1; 3; 6 |] (find "b");
  Alcotest.(check int_array) "c" [| 4 |] (find "c");
  Alcotest.(check bool) "keys ascending" true
    (Array.to_list got |> List.map fst = [ "a"; "b"; "c" ]);
  Alcotest.(check int) "empty" 0 (Array.length (Psort.group_by compare ([||] : (int * int) array)));
  (* Large randomised check against a hashtable model. *)
  let n = 20_000 in
  let big = Array.init n (fun i -> ((i * 7) mod 97, i)) in
  let groups = Psort.group_by compare big in
  let total = Array.fold_left (fun acc (_, vs) -> acc + Array.length vs) 0 groups in
  Alcotest.(check int) "total preserved" n total;
  Array.iter
    (fun (k, vs) ->
      Array.iter (fun v -> if (v * 7) mod 97 <> k then Alcotest.fail "wrong group") vs;
      (* stability: ascending input indices *)
      ignore
        (Array.fold_left
           (fun prev v ->
             if v <= prev then Alcotest.fail "not stable";
             v)
           (-1) vs))
    groups

(* ---------------- unboxed float sort ---------------- *)

let float_sort_ref a =
  let c = Array.copy a in
  Array.stable_sort Float.compare c;
  c

let check_float_array name expect got =
  Alcotest.(check int) (name ^ " length") (Array.length expect) (Array.length got);
  Array.iteri
    (fun i x ->
      if not (Float.equal x got.(i)) then
        Alcotest.failf "%s: index %d differs (%h vs %h)" name i got.(i) x)
    expect

let test_sort_floats_basic () =
  List.iter
    (fun n ->
      let a = Array.init n (fun i -> float_of_int ((i * 7919) mod 1001) /. 8.0) in
      check_float_array (Printf.sprintf "n=%d" n) (float_sort_ref a)
        (Psort.sort_floats a);
      (* Input untouched; in-place variant sorts for real. *)
      if n > 0 then
        Alcotest.(check (float 0.0)) "input intact"
          (float_of_int ((n - 1) * 7919 mod 1001) /. 8.0)
          a.(n - 1);
      let c = Array.copy a in
      Psort.sort_floats_in_place c;
      check_float_array (Printf.sprintf "in place n=%d" n) (float_sort_ref a) c)
    [ 0; 1; 2; 3; 5; 100; 4096; 4097; 100_000 ];
  (* Negative zero and duplicates: Float.compare orders -0. before 0.,
     the primitive <= in the merge does not distinguish them — both are
     valid sorted orders under <=, so compare magnitudes only. *)
  let z = Psort.sort_floats [| 0.0; -0.0; 1.0; -0.0; 0.0 |] in
  Alcotest.(check bool) "zeros sorted" true
    (Psort.is_sorted Float.compare (Array.map Float.abs z));
  (* Infinities order with everything. *)
  let inf = [| infinity; neg_infinity; 0.0; 1e308; -1e308 |] in
  check_float_array "infinities" (float_sort_ref inf) (Psort.sort_floats inf);
  (* Halves that do not interleave: every merge-path tile takes its
     whole slice from one run, so the other side is empty. *)
  let halves =
    Array.append
      (Array.init 5_000 (fun i -> float_of_int (5_000 + i)))
      (Array.init 5_000 float_of_int)
  in
  check_float_array "non-interleaved halves" (float_sort_ref halves)
    (Psort.sort_floats ~grain:64 halves);
  (* All-equal input stresses the merge path's tie handling; at the
     default cutoff the last merge spans five 4096-element tiles. *)
  let e = Array.make 20_000 3.5 in
  check_float_array "all equal across tiles" e (Psort.sort_floats e)

let test_sort_floats_grain_and_tiles () =
  let a = Bds_data.Gen.floats ~seed:42 ~lo:(-500.0) ~hi:500.0 60_000 in
  let expect = float_sort_ref a in
  (* Sweep the sequential cutoff AND the merge tile so tile boundaries
     land everywhere relative to run boundaries: tile=1 makes every
     output element its own merge-path search; a huge tile degenerates
     to one sequential merge. *)
  let old_tile = Bds_runtime.Grain.merge_tile () in
  Fun.protect
    ~finally:(fun () -> Bds_runtime.Grain.set_merge_tile old_tile)
    (fun () ->
      List.iter
        (fun (grain, tile) ->
          Bds_runtime.Grain.set_merge_tile tile;
          check_float_array
            (Printf.sprintf "grain=%d tile=%d" grain tile)
            expect
            (Psort.sort_floats ~grain a))
        [ (16, 1); (16, 7); (100, 64); (1000, 4096); (100_000, 1_000_000); (64, 1023) ]);
  Alcotest.check_raises "tile >= 1"
    (Invalid_argument "Grain.set_merge_tile: tile must be >= 1") (fun () ->
      Bds_runtime.Grain.set_merge_tile 0)

let test_sort_floats_two_sorted_runs () =
  let a = Array.init 1000 (fun i -> float_of_int (2 * i)) in
  let b = Array.init 500 (fun i -> float_of_int ((3 * i) + 1)) in
  let expect = float_sort_ref (Array.append a b) in
  List.iter
    (fun grain ->
      check_float_array (Printf.sprintf "runs grain=%d" grain) expect
        (Psort.sort_floats ~grain (Array.append a b));
      check_float_array (Printf.sprintf "one run grain=%d" grain) a
        (Psort.sort_floats ~grain a))
    [ 16; 750; 1500 ];
  (* Two equal runs: every tie of the last merge is across the runs. *)
  let e = Array.make 5000 3.5 in
  check_float_array "equal runs" (Array.make 10_000 3.5)
    (Psort.sort_floats ~grain:5000 (Array.append e e))

let float_qcheck_tests =
  let open QCheck2 in
  let float_array = Gen.(array_size (int_bound 300) (float_range (-100.0) 100.0)) in
  [
    Test.make ~name:"sort_floats = stable_sort Float.compare" ~count:300
      Gen.(pair float_array (int_range 1 200))
      (fun (a, grain) ->
        (* Float.compare distinguishes -0./0. where <= does not; keep
           the generator away from signed zeros (float_range above never
           produces -0.) so array equality is the right check. *)
        Psort.sort_floats ~grain a = float_sort_ref a);
    Test.make ~name:"sort_floats of two sorted runs = sorted concat" ~count:300
      Gen.(triple float_array float_array (int_range 1 200))
      (fun (a, b, grain) ->
        let a = float_sort_ref a and b = float_sort_ref b in
        let ab = Array.append a b in
        Psort.sort_floats ~grain ab = float_sort_ref ab);
  ]

let qcheck_tests =
  let open QCheck2 in
  [
    Test.make ~name:"psort = stable_sort" ~count:300
      Gen.(pair small_int_array (int_range 1 200))
      (fun (a, grain) ->
        let expect = Array.copy a in
        Array.stable_sort compare expect;
        Psort.sort ~grain compare a = expect);
    Test.make ~name:"sort of two sorted runs = sorted concat" ~count:300
      Gen.(triple small_int_array small_int_array (int_range 1 200))
      (fun (a, b, grain) ->
        let a = Array.copy a and b = Array.copy b in
        Array.stable_sort compare a;
        Array.stable_sort compare b;
        let expect = Array.append a b in
        Array.stable_sort compare expect;
        Psort.sort ~grain compare (Array.append a b) = expect);
  ]

(* ---------------- extension kernels ---------------- *)

let test_inverted_index () =
  List.iter
    (fun n ->
      let text = K.Inverted_index.generate ~seed:(n + 1) n in
      let expect = K.Inverted_index.reference text in
      Alcotest.(check (pair int int)) "array" expect
        (K.Inverted_index.Array_version.index text);
      Alcotest.(check (pair int int)) "rad" expect
        (K.Inverted_index.Rad_version.index text);
      Alcotest.(check (pair int int)) "delay" expect
        (K.Inverted_index.Delay_version.index text))
    [ 0; 1; 100; 50_000 ];
  let text = Bytes.of_string "a b a\nb c\na a\n" in
  (* words: a b c; postings: (a,0)(b,0)(b,1)(c,1)(a,2) *)
  Alcotest.(check (pair int int)) "tiny" (3, 5)
    (K.Inverted_index.Delay_version.index text);
  Alcotest.(check (pair int int)) "tiny ref" (3, 5) (K.Inverted_index.reference text);
  (* Materialised posting lists. *)
  let idx = K.Inverted_index.postings text in
  Alcotest.(check (array (pair string int_array)))
    "postings"
    [| ("a", [| 0; 2 |]); ("b", [| 0; 1 |]); ("c", [| 1 |]) |]
    idx;
  (* Counts derived from postings agree with [index] on generated text. *)
  let big = K.Inverted_index.generate ~seed:5 30_000 in
  let idx = K.Inverted_index.postings big in
  let words = Array.length idx in
  let posts = Array.fold_left (fun acc (_, ds) -> acc + Array.length ds) 0 idx in
  Alcotest.(check (pair int int)) "postings consistent with index" (words, posts)
    (K.Inverted_index.Delay_version.index big)

let test_raycast () =
  let tris, rays = K.Raycast.generate ~triangles:200 ~rays:500 () in
  let expect = K.Raycast.reference tris rays in
  let check name f =
    let got = f tris rays in
    Alcotest.(check int) (name ^ " length") (Array.length expect) (Array.length got);
    Array.iteri
      (fun i d ->
        if Float.abs (d -. expect.(i)) > 1e-9 && not (d = infinity && expect.(i) = infinity)
        then Alcotest.failf "%s: ray %d differs (%f vs %f)" name i d expect.(i))
      got
  in
  check "array" K.Raycast.Array_version.cast;
  check "rad" K.Raycast.Rad_version.cast;
  check "delay" K.Raycast.Delay_version.cast;
  (* Some rays must actually hit something for the test to be meaningful. *)
  let hits, total = K.Raycast.Delay_version.cast_summary tris rays in
  Alcotest.(check bool) "some hits" true (hits > 0);
  Alcotest.(check bool) "finite total" true (Float.is_finite total);
  (* Known geometry: a ray straight at a big triangle. *)
  let t =
    K.Raycast.
      {
        v0 = { x = -1.0; y = -1.0; z = 2.0 };
        v1 = { x = 1.0; y = -1.0; z = 2.0 };
        v2 = { x = 0.0; y = 1.0; z = 2.0 };
      }
  in
  let r =
    K.Raycast.{ origin = { x = 0.0; y = 0.0; z = 0.0 }; dir = { x = 0.0; y = 0.0; z = 1.0 } }
  in
  let d = (K.Raycast.Delay_version.cast [| t |] [| r |]).(0) in
  Alcotest.(check (float 1e-9)) "axis hit at z=2" 2.0 d;
  let miss =
    K.Raycast.{ origin = { x = 5.0; y = 5.0; z = 0.0 }; dir = { x = 0.0; y = 0.0; z = 1.0 } }
  in
  Alcotest.(check bool) "miss" true
    ((K.Raycast.Delay_version.cast [| t |] [| miss |]).(0) = infinity)

let test_histogram () =
  List.iter
    (fun (n, buckets) ->
      let keys = K.Histogram.generate ~seed:(n + buckets) ~buckets n in
      let expect = K.Histogram.reference ~buckets keys in
      Alcotest.(check int_array) "array/atomics" expect
        (K.Histogram.Array_version.by_atomics ~buckets keys);
      Alcotest.(check int_array) "delay/atomics" expect
        (K.Histogram.Delay_version.by_atomics ~buckets keys);
      Alcotest.(check int_array) "array/sort" expect
        (K.Histogram.Array_version.by_sort ~buckets keys);
      Alcotest.(check int_array) "rad/sort" expect
        (K.Histogram.Rad_version.by_sort ~buckets keys);
      Alcotest.(check int_array) "delay/sort" expect
        (K.Histogram.Delay_version.by_sort ~buckets keys))
    [ (0, 4); (1, 1); (1000, 10); (50_000, 256) ];
  Alcotest.check_raises "out of range"
    (Invalid_argument "Histogram: key out of range") (fun () ->
      ignore (K.Histogram.Delay_version.by_sort ~buckets:2 [| 0; 5 |]))

let test_dedup () =
  List.iter
    (fun (n, distinct) ->
      let keys = K.Dedup.generate ~seed:(n + distinct) ~distinct n in
      let expect = K.Dedup.reference keys in
      Alcotest.(check int_array) "array" expect (K.Dedup.Array_version.dedup keys);
      Alcotest.(check int_array) "rad" expect (K.Dedup.Rad_version.dedup keys);
      Alcotest.(check int_array) "delay" expect (K.Dedup.Delay_version.dedup keys))
    [ (0, 1); (1, 1); (1000, 7); (50_000, 500); (1000, 100_000) ];
  Alcotest.(check int_array) "all same" [| 3 |]
    (K.Dedup.Delay_version.dedup (Array.make 100 3))

let () =
  Alcotest.run "sort"
    [
      ( "psort",
        [
          Alcotest.test_case "basic" `Quick test_basic;
          Alcotest.test_case "in place / grains" `Quick test_in_place_and_grain;
          Alcotest.test_case "stability" `Quick test_stability;
          Alcotest.test_case "sorted/reverse/constant" `Quick test_already_sorted_and_reverse;
          Alcotest.test_case "two sorted runs" `Quick test_two_sorted_runs;
          Alcotest.test_case "custom order" `Quick test_custom_order;
          Alcotest.test_case "group_by" `Quick test_group_by;
        ] );
      ( "sort_floats",
        [
          Alcotest.test_case "basic" `Quick test_sort_floats_basic;
          Alcotest.test_case "grain / merge tiles" `Quick
            test_sort_floats_grain_and_tiles;
          Alcotest.test_case "two sorted runs" `Quick test_sort_floats_two_sorted_runs;
        ] );
      ( "properties",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          (qcheck_tests @ float_qcheck_tests) );
      ( "extension kernels",
        [
          Alcotest.test_case "inverted index" `Quick test_inverted_index;
          Alcotest.test_case "raycast" `Quick test_raycast;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "dedup" `Quick test_dedup;
        ] );
    ]
