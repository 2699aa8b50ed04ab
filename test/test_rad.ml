(* RAD-only library (baseline R): delayed semantics + eager scan/filter/
   flatten vs list models. *)

module R = Bds_rad.Rad
module Grain = Bds_runtime.Grain
module Telemetry = Bds_runtime.Telemetry
open Bds_test_util

let () = init ()

let rlist = R.to_list

let test_basics () =
  Alcotest.(check int_list) "tabulate" [ 0; 1; 4 ] (rlist (R.tabulate 3 (fun i -> i * i)));
  Alcotest.(check int) "length" 3 (R.length (R.iota 3));
  Alcotest.(check int) "get" 2 (R.get (R.iota 5) 2);
  Alcotest.check_raises "get oob" (Invalid_argument "Rad.get: index out of bounds")
    (fun () -> ignore (R.get (R.iota 5) 5));
  Alcotest.(check int_list) "empty" [] (rlist R.empty);
  Alcotest.(check int_list) "of_array" [ 5; 6 ] (rlist (R.of_array [| 5; 6 |]))

let test_delayed_ops () =
  let s = R.iota 10 in
  Alcotest.(check int_list) "map" (List.init 10 (fun i -> i + 1)) (rlist (R.map (( + ) 1) s));
  Alcotest.(check int_list) "mapi" (List.init 10 (fun i -> 2 * i)) (rlist (R.mapi ( + ) s));
  Alcotest.(check int_list) "zip_with" (List.init 10 (fun i -> 2 * i))
    (rlist (R.zip_with ( + ) s s));
  Alcotest.check_raises "zip mismatch" (Invalid_argument "Rad.zip: length mismatch")
    (fun () -> ignore (R.zip (R.iota 2) (R.iota 3)))

let test_map_is_delayed () =
  (* Atomic: traversal happens on several worker domains. *)
  let calls = Atomic.make 0 in
  let s =
    R.map
      (fun x ->
        Atomic.incr calls;
        x)
      (R.iota 1000)
  in
  Alcotest.(check int) "map delayed" 0 (Atomic.get calls);
  ignore (R.reduce ( + ) 0 s);
  Alcotest.(check int) "one pass" 1000 (Atomic.get calls);
  (* Un-forced RADs recompute on every traversal (the cost-semantics
     tradeoff force resolves). *)
  ignore (R.reduce ( + ) 0 s);
  Alcotest.(check int) "second pass recomputes" 2000 (Atomic.get calls);
  let forced = R.force s in
  ignore (R.reduce ( + ) 0 forced);
  ignore (R.reduce ( + ) 0 forced);
  Alcotest.(check int) "force evaluates once" 3000 (Atomic.get calls)

let test_reduce_scan () =
  let a = Array.init 5000 (fun i -> (i mod 13) - 6) in
  let s = R.of_array a in
  Alcotest.(check int) "reduce" (Array.fold_left ( + ) 0 a) (R.reduce ( + ) 0 s);
  let got, total = R.scan ( + ) 0 s in
  let expect, etotal = list_scan ( + ) 0 (Array.to_list a) in
  Alcotest.(check int_list) "scan" expect (rlist got);
  Alcotest.(check int) "scan total" etotal total;
  Alcotest.(check int_list) "scan_incl"
    (list_scan_incl ( + ) 0 (Array.to_list a))
    (rlist (R.scan_incl ( + ) 0 s));
  let e, t = R.scan ( + ) 9 R.empty in
  Alcotest.(check int) "empty scan total" 9 t;
  Alcotest.(check int_list) "empty scan" [] (rlist e)

let test_filter_flatten () =
  let s = R.iota 1000 in
  Alcotest.(check int_list) "filter"
    (List.filter (fun x -> x mod 7 = 0) (List.init 1000 Fun.id))
    (rlist (R.filter (fun x -> x mod 7 = 0) s));
  Alcotest.(check int_list) "filter_op"
    (List.filter_map (fun x -> if x mod 9 = 0 then Some (-x) else None)
       (List.init 1000 Fun.id))
    (rlist (R.filter_op (fun x -> if x mod 9 = 0 then Some (-x) else None) s));
  let nested = R.tabulate 20 (fun i -> R.tabulate (i mod 4) (fun j -> (i * 10) + j)) in
  Alcotest.(check int_list) "flatten"
    (List.concat (List.init 20 (fun i -> List.init (i mod 4) (fun j -> (i * 10) + j))))
    (rlist (R.flatten nested));
  Alcotest.(check int_list) "flatten empty" [] (rlist (R.flatten R.empty))

(* The copy phase of [flatten] runs on the output's grid: under
   [Fixed b], four inners (fewer than b) holding 10b elements, the
   longest inner spanning five blocks, run at least one chunk per
   output block, not one leaf for all four inners. *)
let test_flatten_output_grid () =
  let b = 100 in
  with_policy (Grain.Fixed b) (fun () ->
      let lens = [| 1; (4 * b) - 1; 5 * b; b |] in
      let total = 10 * b in
      let nested =
        R.tabulate (Array.length lens) (fun i ->
            R.tabulate lens.(i) (fun j -> (i * 100_000) + j))
      in
      let before = Telemetry.snapshot () in
      let flat = R.flatten nested in
      let d = Telemetry.diff ~before ~after:(Telemetry.snapshot ()) in
      let want_blocks = (total + b - 1) / b in
      Alcotest.(check bool)
        (Printf.sprintf "%d chunks for %d output blocks"
           d.Telemetry.s_chunks_executed want_blocks)
        true
        (d.Telemetry.s_chunks_executed >= want_blocks);
      Alcotest.(check int_list) "contents"
        (List.concat
           (List.init (Array.length lens) (fun i ->
                List.init lens.(i) (fun j -> (i * 100_000) + j))))
        (rlist flat))

let test_slicing () =
  let s = R.iota 10 in
  Alcotest.(check int_list) "slice" [ 3; 4; 5 ] (rlist (R.slice s 3 3));
  Alcotest.(check int_list) "take" [ 0; 1 ] (rlist (R.take s 2));
  Alcotest.(check int_list) "drop" [ 8; 9 ] (rlist (R.drop s 8));
  Alcotest.(check int_list) "rev" [ 9; 8; 7; 6; 5; 4; 3; 2; 1; 0 ] (rlist (R.rev s));
  Alcotest.(check int_list) "append" [ 0; 1; 0; 1; 2 ]
    (rlist (R.append (R.iota 2) (R.iota 3)));
  Alcotest.check_raises "slice oob" (Invalid_argument "Rad.slice") (fun () ->
      ignore (R.slice s 8 3))

let test_equal () =
  Alcotest.(check bool) "equal" true (R.equal ( = ) (R.iota 50) (R.iota 50));
  Alcotest.(check bool) "unequal value" false
    (R.equal ( = ) (R.iota 50) (R.map (fun x -> if x = 30 then 0 else x) (R.iota 50)));
  Alcotest.(check bool) "unequal length" false (R.equal ( = ) (R.iota 50) (R.iota 49));
  Alcotest.(check bool) "empty" true (R.equal ( = ) R.empty R.empty)

let test_iter () =
  let hits = Array.make 100 0 in
  R.iter (fun i -> hits.(i) <- hits.(i) + 1) (R.iota 100);
  Alcotest.(check int_array) "iter covers" (Array.make 100 1) hits;
  let hits2 = Array.make 100 0 in
  R.iteri (fun i v -> hits2.(i) <- v + 1) (R.iota 100);
  Alcotest.(check int_array) "iteri" (Array.init 100 (fun i -> i + 1)) hits2

let qcheck_tests =
  let open QCheck2 in
  [
    Test.make ~name:"rad pipeline = list pipeline" ~count:200 small_int_array
      (fun a ->
        let got =
          R.of_array a
          |> R.map (fun x -> (2 * x) + 1)
          |> R.filter (fun x -> x > 0)
          |> R.scan_incl ( + ) 0 |> R.to_list
        in
        let expect =
          Array.to_list a
          |> List.map (fun x -> (2 * x) + 1)
          |> List.filter (fun x -> x > 0)
          |> list_scan_incl ( + ) 0
        in
        got = expect);
  ]

let () =
  Alcotest.run "rad"
    [
      ( "rad",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "delayed ops" `Quick test_delayed_ops;
          Alcotest.test_case "map is delayed" `Quick test_map_is_delayed;
          Alcotest.test_case "reduce/scan" `Quick test_reduce_scan;
          Alcotest.test_case "filter/flatten" `Quick test_filter_flatten;
          Alcotest.test_case "flatten copies on the output grid" `Quick
            test_flatten_output_grid;
          Alcotest.test_case "slicing" `Quick test_slicing;
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "iter" `Quick test_iter;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests);
    ]
