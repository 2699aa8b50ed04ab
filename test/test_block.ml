(* Block-size policy B(n). *)

module Block = Bds.Block
open Bds_test_util

let () = init ()

let test_fixed () =
  with_policy (Block.Fixed 37) (fun () ->
      Alcotest.(check int) "fixed" 37 (Block.size 1_000_000);
      Alcotest.(check int) "fixed small n" 37 (Block.size 3);
      Alcotest.(check int) "empty" 1 (Block.size 0))

let test_scaled_clamps () =
  with_policy
    (Block.Scaled { per_worker_blocks = 8; min_size = 100; max_size = 1000 })
    (fun () ->
      let p = Bds_runtime.Runtime.num_workers () in
      Alcotest.(check int) "clamped below" 100 (Block.size 10);
      Alcotest.(check int) "clamped above" 1000 (Block.size 100_000_000);
      let mid = 8 * p * 500 in
      Alcotest.(check int) "in range" 500 (Block.size mid))

let test_invalid_policies () =
  (* The policy now lives in the unified granularity layer, so the
     messages name Grain. *)
  Alcotest.check_raises "fixed 0"
    (Invalid_argument "Grain.set_policy: Fixed size must be >= 1") (fun () ->
      Block.set_policy (Block.Fixed 0));
  Alcotest.check_raises "bad scaled"
    (Invalid_argument "Grain.set_policy: invalid Scaled parameters") (fun () ->
      Block.set_policy
        (Block.Scaled { per_worker_blocks = 1; min_size = 10; max_size = 5 }))

let test_num_blocks () =
  Alcotest.(check int) "exact" 4 (Block.num_blocks ~block_size:25 100);
  Alcotest.(check int) "round up" 5 (Block.num_blocks ~block_size:24 100);
  Alcotest.(check int) "one" 1 (Block.num_blocks ~block_size:1000 100);
  Alcotest.(check int) "zero" 0 (Block.num_blocks ~block_size:10 0)

let test_reset_and_get () =
  Block.set_policy (Block.Fixed 5);
  Alcotest.(check bool) "get reflects set" true (Block.get_policy () = Block.Fixed 5);
  Block.reset_policy ();
  Alcotest.(check bool) "reset" true (Block.get_policy () = Block.default_policy)

let sizes = [ 0; 1; 3; 511; 512; 862; 25_000; 100_000; 2_000_000 ]

(* Block.size is the block size of the one grid every block-based layer
   cuts, under every policy. *)
let test_size_is_grid_block_size () =
  for_all_policies (fun name ->
      List.iter
        (fun n ->
          Alcotest.(check int)
            (Printf.sprintf "%s n=%d" name n)
            (Bds_runtime.Runtime.block_grid n).Bds_runtime.Grain.block_size
            (Block.size n))
        sizes)

(* ...and cutting [n] by Block.size gives that grid's block count. *)
let test_size_gives_grid_blocks () =
  for_all_policies (fun name ->
      List.iter
        (fun n ->
          Alcotest.(check int)
            (Printf.sprintf "%s n=%d" name n)
            (Bds_runtime.Runtime.block_grid n).Bds_runtime.Grain.num_blocks
            (Block.num_blocks ~block_size:(Block.size n) n))
        sizes)

let () =
  Alcotest.run "block"
    [
      ( "policy",
        [
          Alcotest.test_case "fixed" `Quick test_fixed;
          Alcotest.test_case "scaled clamps" `Quick test_scaled_clamps;
          Alcotest.test_case "invalid" `Quick test_invalid_policies;
          Alcotest.test_case "num_blocks" `Quick test_num_blocks;
          Alcotest.test_case "reset/get" `Quick test_reset_and_get;
          Alcotest.test_case "size is the grid's block size" `Quick
            test_size_is_grid_block_size;
          Alcotest.test_case "size gives the grid's blocks" `Quick
            test_size_gives_grid_blocks;
        ] );
    ]
