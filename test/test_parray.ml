(* Eager parallel arrays vs list/sequential models. *)

module P = Bds_parray.Parray
open Bds_test_util

let () = init ()

let alist a = Array.to_list a

let test_tabulate () =
  Alcotest.(check int_array) "tabulate" [| 0; 1; 4; 9 |] (P.tabulate 4 (fun i -> i * i));
  Alcotest.(check int_array) "empty" [||] (P.tabulate 0 (fun _ -> assert false));
  Alcotest.(check int_array) "iota" [| 0; 1; 2 |] (P.iota 3)

let test_witness_called_once () =
  (* tabulate must evaluate f 0 exactly once (important when f has
     side effects, e.g. BFS's compare-and-swap). *)
  let calls = Array.make 64 0 in
  ignore (P.tabulate 64 (fun i -> calls.(i) <- calls.(i) + 1));
  Alcotest.(check int_array) "each index once" (Array.make 64 1) calls

let test_map_zip () =
  let a = Array.init 100 Fun.id in
  Alcotest.(check int_array) "map" (Array.map (( + ) 1) a) (P.map (( + ) 1) a);
  Alcotest.(check int_array) "mapi" (Array.mapi ( + ) a) (P.mapi ( + ) a);
  Alcotest.(check int_array) "map2" (Array.map (fun x -> 2 * x) a) (P.map2 ( + ) a a);
  Alcotest.check_raises "map2 mismatch" (Invalid_argument "Parray.map2") (fun () ->
      ignore (P.map2 ( + ) a (Array.make 3 0)))

let test_reduce () =
  let a = Array.init 1000 (fun i -> i - 500) in
  Alcotest.(check int) "sum" (Array.fold_left ( + ) 0 a) (P.reduce ( + ) 0 a);
  (* Non-commutative, non-identity seed. *)
  let s = Array.init 50 (fun i -> String.make 1 (Char.chr (65 + (i mod 26)))) in
  Alcotest.(check string) "ordered" (Array.fold_left ( ^ ) ">" s) (P.reduce ( ^ ) ">" s);
  Alcotest.(check int) "empty" 7 (P.reduce ( + ) 7 [||])

let check_scan name n z =
  let a = Array.init n (fun i -> (i mod 17) - 8) in
  let expect, etotal = list_scan ( + ) z (alist a) in
  let got, total = P.scan ( + ) z a in
  Alcotest.(check int_list) (name ^ " prefixes") expect (alist got);
  Alcotest.(check int) (name ^ " total") etotal total;
  let expect_incl = list_scan_incl ( + ) z (alist a) in
  Alcotest.(check int_list) (name ^ " inclusive") expect_incl (alist (P.scan_incl ( + ) z a))

let test_scan_sizes () =
  List.iter (fun n -> check_scan (Printf.sprintf "n=%d" n) n 0) [ 0; 1; 2; 7; 100; 4096; 10001 ];
  (* Seed applied exactly once even when non-identity. *)
  check_scan "seeded" 1000 100

let test_scan_noncommutative () =
  let a = Array.init 500 (fun i -> ((float_of_int (i mod 7) /. 7.0) -. 0.4, 1.0)) in
  let compose (a1, b1) (a2, b2) = (a1 *. a2, (b1 *. a2) +. b2) in
  let got, _ = P.scan compose (1.0, 0.0) a in
  let expect, _ = list_scan compose (1.0, 0.0) (alist a) in
  List.iter2
    (fun (ga, gb) (ea, eb) ->
      Alcotest.(check (float 1e-9)) "a" ea ga;
      Alcotest.(check (float 1e-9)) "b" eb gb)
    (alist got) expect

let test_filter () =
  let a = Array.init 1000 Fun.id in
  Alcotest.(check int_array) "filter"
    (Array.of_list (List.filter (fun x -> x mod 3 = 0) (alist a)))
    (P.filter (fun x -> x mod 3 = 0) a);
  Alcotest.(check int_array) "filter none" [||] (P.filter (fun _ -> false) a);
  Alcotest.(check int_array) "filter all" a (P.filter (fun _ -> true) a);
  Alcotest.(check int_array) "filter_op"
    (Array.of_list
       (List.filter_map (fun x -> if x mod 5 = 0 then Some (x / 5) else None) (alist a)))
    (P.filter_op (fun x -> if x mod 5 = 0 then Some (x / 5) else None) a)

let test_flatten () =
  let aa = Array.init 30 (fun i -> Array.init (i mod 5) (fun j -> (i * 10) + j)) in
  Alcotest.(check int_array) "flatten"
    (Array.concat (alist aa))
    (P.flatten aa);
  Alcotest.(check int_array) "flatten empty outer" [||] (P.flatten [||]);
  Alcotest.(check int_array) "flatten all empty" [||] (P.flatten (Array.make 5 [||]))

let test_misc () =
  let a = Array.init 10 Fun.id in
  Alcotest.(check int_array) "rev" [| 9; 8; 7; 6; 5; 4; 3; 2; 1; 0 |] (P.rev a);
  Alcotest.(check int_array) "append" (Array.append a a) (P.append a a);
  Alcotest.(check int_array) "append empty" a (P.append [||] a);
  Alcotest.(check bool) "equal" true (P.equal ( = ) a (Array.copy a));
  Alcotest.(check bool) "not equal" false (P.equal ( = ) a (P.rev a));
  (* The block grid now comes from the unified granularity layer. *)
  let g = Bds_runtime.Runtime.block_grid 10 in
  Alcotest.(check bool) "grid small" true (g.Bds_runtime.Grain.num_blocks >= 1);
  Alcotest.(check int) "grid zero"
    0
    (Bds_runtime.Runtime.block_grid 0).Bds_runtime.Grain.num_blocks

let qcheck_tests =
  let open QCheck2 in
  [
    Test.make ~name:"scan = list scan" ~count:300 small_int_array (fun a ->
        let got, total = P.scan ( + ) 3 a in
        let expect, etotal = list_scan ( + ) 3 (alist a) in
        alist got = expect && total = etotal);
    Test.make ~name:"filter = list filter" ~count:300 small_int_array (fun a ->
        alist (P.filter (fun x -> x land 1 = 0) a)
        = List.filter (fun x -> x land 1 = 0) (alist a));
    Test.make ~name:"flatten . map = concat_map" ~count:100 small_int_array (fun a ->
        let nested = P.map (fun x -> Array.make (abs x mod 4) x) a in
        alist (P.flatten nested)
        = List.concat_map (fun x -> List.init (abs x mod 4) (fun _ -> x)) (alist a));
    (* A filter's packs are joined by [concat_packed]: the same output
       as [flatten], with empty packs anywhere. *)
    Test.make ~name:"concat_packed = flatten" ~count:200 small_int_array (fun a ->
        let packs = P.map (fun x -> Array.make (abs x mod 3) x) a in
        P.concat_packed packs = P.flatten packs
        && alist (P.concat_packed packs)
           = List.concat_map (fun x -> List.init (abs x mod 3) (fun _ -> x)) (alist a));
  ]

let () =
  Alcotest.run "parray"
    [
      ( "parray",
        [
          Alcotest.test_case "tabulate" `Quick test_tabulate;
          Alcotest.test_case "witness once" `Quick test_witness_called_once;
          Alcotest.test_case "map/zip" `Quick test_map_zip;
          Alcotest.test_case "reduce" `Quick test_reduce;
          Alcotest.test_case "scan sizes" `Quick test_scan_sizes;
          Alcotest.test_case "scan non-commutative" `Quick test_scan_noncommutative;
          Alcotest.test_case "filter" `Quick test_filter;
          Alcotest.test_case "flatten" `Quick test_flatten;
          Alcotest.test_case "misc" `Quick test_misc;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests);
    ]
