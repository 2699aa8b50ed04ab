(* The unified granularity layer: env-override parsing, the leaf-grain
   heuristic, and block-grid arithmetic (docs/RUNTIME.md "Granularity
   policy").  These tests use explicit [~workers] so they are independent
   of the pool. *)

module Env = Bds_runtime.Env
module Grain = Bds_runtime.Grain
open Bds_test_util

let () = init ()

(* [Env] reads the real environment, so each case sets a variable no
   library module reads. *)
let key = "BDS_TEST"

let with_value s f =
  Unix.putenv key s;
  f key

let parse s =
  with_value s (fun k -> try Ok (Env.pos_int k) with Failure m -> Error m)

let test_parse_ok () =
  Alcotest.(check bool) "empty is default" true (parse "" = Ok None);
  Alcotest.(check bool) "blank is default" true (parse "   " = Ok None);
  Alcotest.(check bool) "plain int" true (parse "42" = Ok (Some 42));
  Alcotest.(check bool) "trimmed" true (parse " 7 " = Ok (Some 7));
  Alcotest.(check bool) "one" true (parse "1" = Ok (Some 1))

let test_parse_bad () =
  let bad s =
    match parse s with
    | Error msg ->
      Alcotest.(check string)
        (Printf.sprintf "error for %S names the key and the value" s)
        (Printf.sprintf "BDS_TEST: invalid value %S (expected an integer >= 1)" s)
        msg
    | Ok _ -> Alcotest.failf "expected an error for %S" s
  in
  bad "0";
  bad "-3";
  bad "banana";
  bad "1.5";
  bad "1e3";
  bad " 0 "

(* One blank rule for every variable: unset, empty and whitespace-only
   all read as unset, and a switch is also off at "0". *)
let test_flag () =
  let flag s = with_value s Env.flag in
  Alcotest.(check bool) "unset" false (Env.flag "BDS_TEST_NEVER_SET");
  Alcotest.(check bool) "empty" false (flag "");
  Alcotest.(check bool) "blank" false (flag " ");
  Alcotest.(check bool) "tab and newline" false (flag "\t\n");
  Alcotest.(check bool) "zero" false (flag "0");
  Alcotest.(check bool) "padded zero" false (flag " 0 ");
  Alcotest.(check bool) "one" true (flag "1");
  Alcotest.(check bool) "any word" true (flag "yes")

let test_get () =
  let get s = with_value s Env.get in
  Alcotest.(check (option string)) "unset" None (Env.get "BDS_TEST_NEVER_SET");
  Alcotest.(check (option string)) "empty" None (get "");
  Alcotest.(check (option string)) "blank" None (get " ");
  Alcotest.(check (option string)) "tabs" None (get "\t \t");
  Alcotest.(check (option string))
    "value as set" (Some " out.json") (get " out.json");
  Alcotest.(check (option string)) "zero is a value" (Some "0") (get "0")

let test_leaf_grain () =
  with_grain None (fun () ->
      (* ~32 chunks per worker. *)
      Alcotest.(check int) "formula" 32 (Grain.leaf_grain ~workers:4 4096);
      Alcotest.(check int) "small n floors at 1" 1 (Grain.leaf_grain ~workers:4 7);
      Alcotest.(check int) "zero n" 1 (Grain.leaf_grain ~workers:4 0));
  with_grain (Some 5) (fun () ->
      Alcotest.(check int) "override wins" 5 (Grain.leaf_grain ~workers:4 4096);
      Alcotest.(check bool) "override visible" true
        (Grain.leaf_grain_override () = Some 5));
  Alcotest.check_raises "override must be positive"
    (Invalid_argument "Grain.set_leaf_grain: grain must be >= 1") (fun () ->
      Grain.set_leaf_grain (Some 0))

let test_grid () =
  with_policy (Grain.Fixed 25) (fun () ->
      let g = Grain.grid ~workers:3 100 in
      Alcotest.(check int) "block_size" 25 g.Grain.block_size;
      Alcotest.(check int) "num_blocks" 4 g.Grain.num_blocks;
      (* Bounds partition [0, n): contiguous, nonempty, in order. *)
      let prev = ref 0 in
      for j = 0 to g.Grain.num_blocks - 1 do
        let lo, hi = Grain.bounds g j in
        Alcotest.(check int) "contiguous" !prev lo;
        Alcotest.(check bool) "nonempty" true (hi > lo);
        prev := hi
      done;
      Alcotest.(check int) "covers n" 100 !prev);
  with_policy (Grain.Fixed 30) (fun () ->
      let g = Grain.grid ~workers:3 100 in
      Alcotest.(check int) "ragged last block" 4 g.Grain.num_blocks;
      Alcotest.(check bool) "last block short" true
        (Grain.bounds g 3 = (90, 100)));
  let g0 = Grain.grid ~workers:3 0 in
  Alcotest.(check int) "empty grid" 0 g0.Grain.num_blocks

let test_scaled_grid () =
  with_policy
    (Grain.Scaled { per_worker_blocks = 4; min_size = 1; max_size = max_int })
    (fun () ->
      Alcotest.(check int) "scales with workers" 1000
        (Grain.block_size ~workers:2 8000);
      Alcotest.(check int) "more workers, smaller blocks" 500
        (Grain.block_size ~workers:4 8000))

let () =
  Alcotest.run "grain"
    [
      ( "grain",
        [
          Alcotest.test_case "parse ok" `Quick test_parse_ok;
          Alcotest.test_case "parse bad" `Quick test_parse_bad;
          Alcotest.test_case "env flag" `Quick test_flag;
          Alcotest.test_case "env get" `Quick test_get;
          Alcotest.test_case "leaf grain" `Quick test_leaf_grain;
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "scaled grid" `Quick test_scaled_grid;
        ] );
    ]
