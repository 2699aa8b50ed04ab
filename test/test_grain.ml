(* The unified granularity layer: env-override parsing, block-grid
   arithmetic, and the one split rule every loop follows
   (docs/RUNTIME.md "Granularity policy").  The grid tests use explicit
   [~workers] so they are independent of the pool. *)

module Env = Bds_runtime.Env
module Grain = Bds_runtime.Grain
module Runtime = Bds_runtime.Runtime
module Telemetry = Bds_runtime.Telemetry
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

(* The block-size policy, read through the grid every block-based layer
   cuts ([Runtime.block_grid]). *)
let size n = (Runtime.block_grid n).Grain.block_size

let test_fixed () =
  with_policy (Grain.Fixed 37) (fun () ->
      Alcotest.(check int) "fixed" 37 (size 1_000_000);
      Alcotest.(check int) "fixed small n" 37 (size 3);
      Alcotest.(check int) "empty" 1 (size 0))

let test_scaled_clamps () =
  with_policy
    (Grain.Scaled { per_worker_blocks = 8; min_size = 100; max_size = 1000 })
    (fun () ->
      let p = Runtime.num_workers () in
      Alcotest.(check int) "clamped below" 100 (size 10);
      Alcotest.(check int) "clamped above" 1000 (size 100_000_000);
      let mid = 8 * p * 500 in
      Alcotest.(check int) "in range" 500 (size mid))

let test_invalid_policies () =
  Alcotest.check_raises "fixed 0"
    (Invalid_argument "Grain.set_policy: Fixed size must be >= 1") (fun () ->
      Grain.set_policy (Grain.Fixed 0));
  Alcotest.check_raises "bad scaled"
    (Invalid_argument "Grain.set_policy: invalid Scaled parameters") (fun () ->
      Grain.set_policy
        (Grain.Scaled { per_worker_blocks = 1; min_size = 10; max_size = 5 }))

let test_reset_and_get () =
  Grain.set_policy (Grain.Fixed 5);
  Alcotest.(check bool) "get reflects set" true (Grain.get_policy () = Grain.Fixed 5);
  Grain.reset_policy ();
  Alcotest.(check bool) "reset" true (Grain.get_policy () = Grain.default_policy)

let test_grid_of_size () =
  let blocks block_size n = (Grain.grid_of_size ~block_size n).Grain.num_blocks in
  Alcotest.(check int) "exact" 4 (blocks 25 100);
  Alcotest.(check int) "round up" 5 (blocks 24 100);
  Alcotest.(check int) "one" 1 (blocks 1000 100);
  Alcotest.(check int) "zero" 0 (blocks 10 0);
  Alcotest.check_raises "block size 0"
    (Invalid_argument "Grain.grid_of_size: block_size must be >= 1") (fun () ->
      ignore (Grain.grid_of_size ~block_size:0 10 : Grain.grid))

(* Any block size cuts [0, n) into ⌈n / B⌉ contiguous blocks, all of
   size B but the last, which holds 1 to B; and the policy's grid is
   that cut at the policy's block size. *)
let prop_grid_of_size =
  QCheck2.Test.make ~name:"grid_of_size cuts [0, n) into blocks of B" ~count:500
    QCheck2.Gen.(triple (int_bound 20_000) (int_range 1 3000) (int_range 1 8))
    (fun (n, b, workers) ->
      let g = Grain.grid_of_size ~block_size:b n in
      let prev = ref 0 and ok = ref true in
      for j = 0 to g.Grain.num_blocks - 1 do
        let lo, hi = Grain.bounds g j in
        let last = j = g.Grain.num_blocks - 1 in
        if lo <> !prev || hi - lo > b || hi <= lo || ((not last) && hi - lo <> b) then
          ok := false;
        prev := hi
      done;
      !ok && !prev = n
      && g.Grain.num_blocks = (n + b - 1) / b
      && List.for_all
           (fun (_, p) ->
             with_policy p (fun () ->
                 Grain.grid ~workers n
                 = Grain.grid_of_size ~block_size:(Grain.block_size ~workers n) n))
           policies)

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

(* The default policy's grid, pinned: (n, workers, block_size,
   num_blocks).  B(n) = clamp(⌈n / 8P⌉, 512, 65536): up to 512 elements
   the whole input is one block; below 8P x 512 the floor sets the block
   count; from there up to 8P x 65536 every worker gets 8 blocks and the
   last is never a sliver (25,000 at P = 2: 16 blocks of 1563, the last
   holding 1555); above, blocks stay at the 65536 cap. *)
let default_grids =
  [
    (1, 1, 512, 1); (1, 2, 512, 1); (1, 4, 512, 1);
    (50, 1, 512, 1); (50, 2, 512, 1); (50, 4, 512, 1);
    (511, 1, 512, 1); (511, 2, 512, 1); (511, 4, 512, 1);
    (512, 1, 512, 1); (512, 2, 512, 1); (512, 4, 512, 1);
    (862, 1, 512, 2); (862, 2, 512, 2); (862, 4, 512, 2);
    (1000, 1, 512, 2); (1000, 2, 512, 2); (1000, 4, 512, 2);
    (10_000, 1, 1250, 8); (10_000, 2, 625, 16); (10_000, 4, 512, 20);
    (25_000, 1, 3125, 8); (25_000, 2, 1563, 16); (25_000, 4, 782, 32);
    (32_768, 1, 4096, 8); (32_768, 2, 2048, 16); (32_768, 4, 1024, 32);
    (100_000, 1, 12_500, 8); (100_000, 2, 6250, 16); (100_000, 4, 3125, 32);
    (2_000_000, 1, 65_536, 31); (2_000_000, 2, 65_536, 31); (2_000_000, 4, 62_500, 32);
  ]

let test_default_grids () =
  with_policy Grain.default_policy (fun () ->
      List.iter
        (fun (n, workers, bs, nb) ->
          let g = Grain.grid ~workers n in
          let name what = Printf.sprintf "n=%d P=%d %s" n workers what in
          Alcotest.(check int) (name "block_size") bs g.Grain.block_size;
          Alcotest.(check int) (name "num_blocks") nb g.Grain.num_blocks)
        default_grids)

(* Under the default policy the blocks partition [0, n) — contiguous,
   non-empty, in order — and, up to 8P x 65536 elements, number at
   most 8P. *)
let prop_default_grid =
  QCheck2.Test.make ~name:"default grid covers [0, n) in at most 8P blocks" ~count:500
    QCheck2.Gen.(
      pair
        (oneof [ int_bound 5000; int_bound 100_000; int_bound 3_000_000 ])
        (int_range 1 8))
    (fun (n, workers) ->
      with_policy Grain.default_policy (fun () ->
          let g = Grain.grid ~workers n in
          let prev = ref 0 and ok = ref true in
          for j = 0 to g.Grain.num_blocks - 1 do
            let lo, hi = Grain.bounds g j in
            if lo <> !prev || hi <= lo then ok := false;
            prev := hi
          done;
          !ok && !prev = n
          && (n > 8 * workers * 65_536 || g.Grain.num_blocks <= 8 * workers)))

(* Granularity is static: [set_adaptive] (kept for the end-to-end
   benchmark) moves no grid or policy. *)
let test_set_adaptive_noop () =
  let observe () =
    ( List.map (fun n -> Grain.grid ~workers:2 n) [ 0; 50; 25_000; 2_000_000 ],
      Grain.get_policy () )
  in
  let before = observe () in
  Fun.protect
    ~finally:(fun () -> Grain.set_adaptive false)
    (fun () ->
      Grain.set_adaptive true;
      Alcotest.(check bool) "on: nothing moves" true (observe () = before);
      Grain.set_adaptive false;
      Alcotest.(check bool) "off: nothing moves" true (observe () = before))

let sizes = [ 0; 1; 511; 512; 862; 10_000; 100_000; 2_000_000 ]

(* The Runtime view is the Grain policy at the pool's worker count. *)
let test_block_grid_is_grid () =
  let w = Runtime.num_workers () in
  for_all_policies (fun name ->
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d" name n)
            true
            (Runtime.block_grid n = Grain.grid ~workers:w n))
        sizes)

(* Chunks executed by [f]; nothing else in this suite runs a loop while
   it does, and the join orders every leaf's count before the read. *)
let chunks f =
  let before = Telemetry.snapshot () in
  f ();
  (Telemetry.diff ~before ~after:(Telemetry.snapshot ())).Telemetry.s_chunks_executed

(* The one split rule: [parallel_for], [parallel_for_reduce] and [apply]
   run one leaf per block of [Runtime.block_grid n], whatever the
   policy, each index of the range once; and a non-commutative reduce
   is the sequential fold, [init] once at the left. *)
let policy_gen =
  QCheck2.Gen.(
    oneof
      [
        pure Grain.default_policy;
        map (fun b -> Grain.Fixed b) (int_range 1 3000);
        map3
          (fun per_worker_blocks min_size span ->
            Grain.Scaled { per_worker_blocks; min_size; max_size = min_size + span })
          (int_range 1 16) (int_range 1 1000) (int_bound 5000);
      ])

let prop_loops_on_block_grid =
  QCheck2.Test.make ~name:"loops run one leaf per block of block_grid" ~count:200
    QCheck2.Gen.(triple (int_range (-1000) 1000) (int_bound 4000) policy_gen)
    (fun (lo, n, p) ->
      with_policy p (fun () ->
          let nb = (Runtime.block_grid n).Grain.num_blocks in
          let hits = Array.make n 0 in
          let visit i = hits.(i - lo) <- hits.(i - lo) + 1 in
          (* Each index visited once by [run], and exactly [nb] leaves. *)
          let one_rule run =
            Array.fill hits 0 n 0;
            let c = chunks run in
            c = nb && Array.for_all (( = ) 1) hits
          in
          let digits i = string_of_int i ^ "," in
          let expect = ref "<" in
          for i = lo to lo + n - 1 do
            expect := !expect ^ digits i
          done;
          one_rule (fun () -> Runtime.parallel_for lo (lo + n) visit)
          && one_rule (fun () ->
                 ignore
                   (Runtime.parallel_for_reduce lo (lo + n) ~combine:( + ) ~init:0
                      (fun i ->
                        visit i;
                        i)))
          && one_rule (fun () -> Runtime.apply n (fun i -> visit (lo + i)))
          && Runtime.parallel_for_reduce lo (lo + n) ~combine:( ^ ) ~init:"<" digits
             = !expect))

(* Under [Fixed b] every loop runs ceil(n / b) leaves, wherever the
   range starts: the offset moves the blocks, not the cut. *)
let test_fixed_block_chunks () =
  let n = 10_000 in
  List.iter
    (fun b ->
      with_policy (Grain.Fixed b) (fun () ->
          let nb = (n + b - 1) / b in
          let check what run =
            Alcotest.(check int) (Printf.sprintf "%s B=%d" what b) nb (chunks run)
          in
          check "parallel_for" (fun () -> Runtime.parallel_for 0 n ignore);
          check "parallel_for at lo=-77" (fun () ->
              Runtime.parallel_for (-77) (n - 77) ignore);
          check "parallel_for_reduce" (fun () ->
              ignore
                (Runtime.parallel_for_reduce 5 (5 + n) ~combine:( + ) ~init:0 Fun.id));
          check "apply" (fun () -> Runtime.apply n ignore)))
    [ 1; 100; 512; 8192; n; 2 * n ]

(* The default policy and a [set_policy] override both reach the loops
   through [block_grid]: B(n) keeps about 8 blocks per worker. *)
let test_default_policy_chunks () =
  let n = 100_000 in
  let w = Runtime.num_workers () in
  with_policy Grain.default_policy (fun () ->
      let nb = (Runtime.block_grid n).Grain.num_blocks in
      Alcotest.(check bool)
        (Printf.sprintf "%d blocks for %d workers" nb w)
        true
        (nb >= 1 && nb <= 8 * w);
      Alcotest.(check int) "default" nb
        (chunks (fun () -> Runtime.parallel_for 0 n ignore)));
  with_policy (Grain.Fixed 3000) (fun () ->
      Alcotest.(check int) "override" 34
        (chunks (fun () -> Runtime.parallel_for 0 n ignore)))

(* An empty or reversed range runs no leaf and no body, and the reduce
   returns [init] untouched. *)
let test_empty_ranges () =
  let body _ = Alcotest.fail "body ran on an empty range" in
  let c =
    chunks (fun () ->
        Runtime.parallel_for 5 5 body;
        Runtime.parallel_for 7 3 body;
        Runtime.apply 0 body;
        Runtime.apply (-3) body;
        Alcotest.(check string) "reduce of [9, 2) is init" "init"
          (Runtime.parallel_for_reduce 9 2 ~combine:( ^ ) ~init:"init" body))
  in
  Alcotest.(check int) "no leaf" 0 c

(* Block bodies are never re-chunked: one leaf per block, each body
   once, whatever the block policy says. *)
let test_apply_blocks_one_leaf_per_block () =
  let nb = 37 in
  with_policy (Grain.Fixed 1000) (fun () ->
      let hits = Array.make nb 0 in
      let c =
        chunks (fun () -> Runtime.apply_blocks ~nb (fun j -> hits.(j) <- hits.(j) + 1))
      in
      Alcotest.(check int) "one leaf per block" nb c;
      Alcotest.(check (array int)) "each block once" (Array.make nb 1) hits)

(* [iter_blocks]: one leaf and one body call per block of its grid,
   whatever the block policy says; nothing on an empty grid. *)
let test_iter_blocks_one_leaf_per_block () =
  with_policy (Grain.Fixed 1000) (fun () ->
      let g = Grain.grid_of_size ~block_size:100 3_650 in
      let nb = g.Grain.num_blocks in
      Alcotest.(check int) "37 blocks" 37 nb;
      let hits = Array.make nb 0 in
      let c =
        chunks (fun () -> Runtime.iter_blocks g (fun j -> hits.(j) <- hits.(j) + 1))
      in
      Alcotest.(check int) "one leaf per block" nb c;
      Alcotest.(check (array int)) "each block once" (Array.make nb 1) hits;
      let calls = ref 0 in
      let empty = Grain.grid_of_size ~block_size:7 0 in
      let c = chunks (fun () -> Runtime.iter_blocks empty (fun _ -> incr calls)) in
      Alcotest.(check int) "empty: no body call" 0 !calls;
      Alcotest.(check int) "empty: no leaf" 0 c)

(* [map_blocks] and [reduce_blocks]: one leaf and one body call per
   block of their grid, like [apply_blocks]; [map_blocks] returns the
   results in block order. *)
let test_reduce_blocks_one_leaf_per_block () =
  with_policy (Grain.Fixed 100) (fun () ->
      let g = Grain.grid ~workers:(Runtime.num_workers ()) 3_700 in
      let nb = g.Grain.num_blocks in
      Alcotest.(check int) "37 blocks" 37 nb;
      let hits = Array.make nb 0 in
      let body j =
        hits.(j) <- hits.(j) + 1;
        j
      in
      let sum = ref 0 in
      let c =
        chunks (fun () -> sum := Runtime.reduce_blocks g ~combine:( + ) ~init:0 body)
      in
      Alcotest.(check int) "reduce: one leaf per block" nb c;
      Alcotest.(check (array int)) "reduce: each block once" (Array.make nb 1) hits;
      Alcotest.(check int) "sum of block indices" (nb * (nb - 1) / 2) !sum;
      Array.fill hits 0 nb 0;
      let got = ref [||] in
      let c = chunks (fun () -> got := Runtime.map_blocks g ~init:(-1) body) in
      Alcotest.(check int) "map: one leaf per block" nb c;
      Alcotest.(check (array int)) "map: each block once" (Array.make nb 1) hits;
      Alcotest.(check (array int)) "map: block order" (Array.init nb Fun.id) !got)

(* The partials fold left to right from [init], in block order, whoever
   ran each block: a non-commutative [combine] sees the sequential
   order, and [init] appears once, at the left. *)
let test_reduce_blocks_left_to_right () =
  List.iter
    (fun (n, b) ->
      with_policy (Grain.Fixed b) (fun () ->
          let g = Grain.grid ~workers:(Runtime.num_workers ()) n in
          let got =
            Runtime.reduce_blocks g ~combine:( @ ) ~init:[ -1 ] (fun j ->
                let lo, hi = Grain.bounds g j in
                List.init (hi - lo) (fun k -> lo + k))
          in
          Alcotest.(check (list int))
            (Printf.sprintf "n=%d B=%d" n b)
            (-1 :: List.init n Fun.id)
            got))
    [ (1, 1); (100, 7); (1000, 1); (5_000, 64); (5_000, 10_000) ];
  (* Float partials: the association is the grid's, so the result is the
     sequential fold of the per-block sums, bit for bit; [map_blocks]
     keeps them in a flat float array, each the bits its body returned. *)
  with_policy (Grain.Fixed 1000) (fun () ->
      let n = 25_013 in
      let x i = 1.0 /. float_of_int (i + 3) in
      let g = Grain.grid ~workers:(Runtime.num_workers ()) n in
      let block j =
        let lo, hi = Grain.bounds g j in
        let s = ref 0.0 in
        for i = lo to hi - 1 do
          s := !s +. x i
        done;
        !s
      in
      let expect = ref 0.25 in
      for j = 0 to g.Grain.num_blocks - 1 do
        expect := !expect +. block j
      done;
      Alcotest.(check int64) "float bits"
        (Int64.bits_of_float !expect)
        (Int64.bits_of_float
           (Runtime.reduce_blocks g ~combine:( +. ) ~init:0.25 block));
      let partials = Runtime.map_blocks g ~init:0.25 block in
      Alcotest.(check bool) "flat float array" true
        (Obj.tag (Obj.repr partials) = Obj.double_array_tag);
      Alcotest.(check (array int64)) "partial bits"
        (Array.init g.Grain.num_blocks (fun j -> Int64.bits_of_float (block j)))
        (Array.map Int64.bits_of_float partials))

let test_reduce_blocks_empty_grid () =
  let g = Grain.grid ~workers:(Runtime.num_workers ()) 0 in
  let calls = ref 0 in
  let c =
    chunks (fun () ->
        Alcotest.(check int) "init back" 42
          (Runtime.reduce_blocks g ~combine:( + ) ~init:42 (fun _ ->
               incr calls;
               1)))
  in
  Alcotest.(check int) "no body call" 0 !calls;
  Alcotest.(check int) "no leaf" 0 c;
  let c =
    chunks (fun () ->
        Alcotest.(check (array int)) "map: empty" [||]
          (Runtime.map_blocks g ~init:42 (fun _ ->
               incr calls;
               1)))
  in
  Alcotest.(check int) "map: no body call" 0 !calls;
  Alcotest.(check int) "map: no leaf" 0 c

let prop_reduce_blocks_sequential =
  QCheck2.Test.make ~name:"reduce_blocks = sequential fold of block partials"
    ~count:200
    QCheck2.Gen.(pair (int_bound 20_000) (int_range 1 3000))
    (fun (n, b) ->
      with_policy (Grain.Fixed b) (fun () ->
          let g = Grain.grid ~workers:(Runtime.num_workers ()) n in
          (* Non-commutative and non-associative combine: only the exact
             left-to-right order of the partials matches. *)
          let combine acc p = (acc * 31) + p in
          let block j =
            let lo, hi = Grain.bounds g j in
            (lo * 7) + hi
          in
          let expect = ref 5 in
          for j = 0 to g.Grain.num_blocks - 1 do
            expect := combine !expect (block j)
          done;
          Runtime.reduce_blocks g ~combine ~init:5 block = !expect
          && Runtime.map_blocks g ~init:5 block = Array.init g.Grain.num_blocks block))

let test_reduce_across_grains () =
  let n = 200_003 in
  let body i = (3 * (i land 1023)) + 1 in
  let expected = ref 7 in
  for i = 0 to n - 1 do
    expected := !expected + body i
  done;
  let reduce () = Runtime.parallel_for_reduce 0 n ~combine:( + ) ~init:7 body in
  List.iter
    (fun b ->
      with_policy (Grain.Fixed b) (fun () ->
          Alcotest.(check int) (Printf.sprintf "B=%d" b) !expected (reduce ())))
    [ 1; 512; 8192; 131_072 ];
  with_policy Grain.default_policy (fun () ->
      Alcotest.(check int) "default B(n)" !expected (reduce ()))

(* The map-reduce pipeline the grain measurement timed, at every block
   size it swept. *)
let test_pipeline_across_block_sizes () =
  let n = 300_000 in
  let expected = ref 0 in
  for i = 0 to n - 1 do
    expected := !expected + (3 * (i land 1023)) + 1
  done;
  let run () =
    Bds.Seq.reduce ( + ) 0
      (Bds.Seq.map (fun x -> (3 * x) + 1) (Bds.Seq.tabulate n (fun i -> i land 1023)))
  in
  List.iter
    (fun b ->
      with_policy (Grain.Fixed b) (fun () ->
          Alcotest.(check int) (Printf.sprintf "B=%d" b) !expected (run ())))
    [ 512; 2048; 8192; 65_536 ];
  with_policy Grain.default_policy (fun () ->
      Alcotest.(check int) "default B(n)" !expected (run ()))

let () =
  Alcotest.run "grain"
    [
      ( "grain",
        [
          Alcotest.test_case "parse ok" `Quick test_parse_ok;
          Alcotest.test_case "parse bad" `Quick test_parse_bad;
          Alcotest.test_case "env flag" `Quick test_flag;
          Alcotest.test_case "env get" `Quick test_get;
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "scaled grid" `Quick test_scaled_grid;
          Alcotest.test_case "default grids" `Quick test_default_grids;
          QCheck_alcotest.to_alcotest ~long:false prop_default_grid;
        ] );
      ( "policy",
        [
          Alcotest.test_case "fixed" `Quick test_fixed;
          Alcotest.test_case "scaled clamps" `Quick test_scaled_clamps;
          Alcotest.test_case "invalid" `Quick test_invalid_policies;
          Alcotest.test_case "grid_of_size" `Quick test_grid_of_size;
          Alcotest.test_case "reset/get" `Quick test_reset_and_get;
          QCheck_alcotest.to_alcotest ~long:false prop_grid_of_size;
        ] );
      ( "static",
        [
          Alcotest.test_case "set_adaptive is a no-op" `Quick test_set_adaptive_noop;
          Alcotest.test_case "block_grid is grid" `Quick test_block_grid_is_grid;
          QCheck_alcotest.to_alcotest ~long:false prop_loops_on_block_grid;
          Alcotest.test_case "fixed block chunks" `Quick test_fixed_block_chunks;
          Alcotest.test_case "default policy chunks" `Quick test_default_policy_chunks;
          Alcotest.test_case "empty ranges run no leaf" `Quick test_empty_ranges;
          Alcotest.test_case "apply_blocks one leaf per block" `Quick
            test_apply_blocks_one_leaf_per_block;
          Alcotest.test_case "iter_blocks one leaf per block" `Quick
            test_iter_blocks_one_leaf_per_block;
          Alcotest.test_case "reduce_blocks one leaf per block" `Quick
            test_reduce_blocks_one_leaf_per_block;
          Alcotest.test_case "reduce_blocks left to right" `Quick
            test_reduce_blocks_left_to_right;
          Alcotest.test_case "reduce_blocks empty grid" `Quick
            test_reduce_blocks_empty_grid;
          QCheck_alcotest.to_alcotest ~long:false prop_reduce_blocks_sequential;
          Alcotest.test_case "reduce across grains" `Quick test_reduce_across_grains;
          Alcotest.test_case "pipeline across block sizes" `Quick
            test_pipeline_across_block_sizes;
        ] );
    ]
