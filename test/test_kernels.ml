(* The twelve benchmark kernels: every library version against the
   sequential reference, on several sizes and seeds. *)

module Grain = Bds_runtime.Grain
open Bds_test_util
module K = Bds_kernels

let () = init ()

let sizes = [ 0; 1; 2; 100; 10_000 ]

let float_eq = Alcotest.(check (float 1e-6))

(* ---------------- bestcut ---------------- *)

let test_bestcut () =
  List.iter
    (fun n ->
      if n > 0 then begin
        let a = K.Bestcut.generate ~seed:n n in
        let expect = K.Bestcut.reference a in
        float_eq "array" expect (K.Bestcut.Array_version.best_cut a);
        float_eq "rad" expect (K.Bestcut.Rad_version.best_cut a);
        float_eq "delay" expect (K.Bestcut.Delay_version.best_cut a)
      end)
    sizes

let test_bestcut_sob () =
  let a = K.Bestcut.generate ~seed:9 5000 in
  let expect = K.Bestcut.reference a in
  List.iter
    (fun bs -> float_eq (Printf.sprintf "sob bs=%d" bs) expect (K.Bestcut.best_cut_sob ~block_size:bs a))
    [ 1; 64; 1000; 5000; 100000 ]

(* ---------------- bignum ---------------- *)

let check_bignum name add a b =
  let expect_digits, expect_carry = K.Bignum.reference a b in
  let got_digits, got_carry = add a b in
  Alcotest.(check string) (name ^ " digits") (Bytes.to_string expect_digits)
    (Bytes.to_string got_digits);
  Alcotest.(check int) (name ^ " carry") expect_carry got_carry

let test_bignum () =
  List.iter
    (fun n ->
      let a, b = K.Bignum.generate_input ~seed:n n in
      check_bignum "array" K.Bignum.Array_version.add a b;
      check_bignum "rad" K.Bignum.Rad_version.add a b;
      check_bignum "delay" K.Bignum.Delay_version.add a b)
    sizes

let test_bignum_carry_chains () =
  (* All-0xFF + 1: the carry must propagate across every block. *)
  let n = 10_000 in
  let a = Bytes.make n '\xff' in
  let b = Bytes.make n '\x00' in
  Bytes.set b 0 '\x01';
  check_bignum "array chain" K.Bignum.Array_version.add a b;
  check_bignum "rad chain" K.Bignum.Rad_version.add a b;
  check_bignum "delay chain" K.Bignum.Delay_version.add a b;
  (* Unequal lengths. *)
  let short = Bytes.of_string "\xff\xff" in
  check_bignum "unequal" K.Bignum.Delay_version.add a short;
  (* Zero + zero. *)
  check_bignum "zeros" K.Bignum.Delay_version.add (Bytes.make 100 '\x00') (Bytes.make 100 '\x00')

(* ---------------- primes ---------------- *)

let test_primes () =
  List.iter
    (fun n ->
      let expect = K.Primes.reference n in
      Alcotest.(check int_array) "array" expect (K.Primes.Array_version.primes n);
      Alcotest.(check int_array) "rad" expect (K.Primes.Rad_version.primes n);
      Alcotest.(check int_array) "delay" expect (K.Primes.Delay_version.primes n))
    [ 0; 1; 2; 3; 4; 31; 32; 33; 100; 1000; 100_000 ]

(* ---------------- tokens ---------------- *)

let tok_t = Alcotest.(pair int int)

let test_tokens () =
  List.iter
    (fun n ->
      let text = K.Tokens.generate ~seed:(n + 1) n in
      let expect = K.Tokens.reference text in
      Alcotest.(check tok_t) "array" expect (K.Tokens.Array_version.tokens text);
      Alcotest.(check tok_t) "rad" expect (K.Tokens.Rad_version.tokens text);
      Alcotest.(check tok_t) "delay" expect (K.Tokens.Delay_version.tokens text))
    sizes;
  (* Edge shapes. *)
  List.iter
    (fun s ->
      let text = Bytes.of_string s in
      let expect = K.Tokens.reference text in
      Alcotest.(check tok_t) ("delay: " ^ String.escaped s) expect
        (K.Tokens.Delay_version.tokens text))
    [ ""; " "; "   "; "abc"; " abc"; "abc "; "a b c"; "ab\ncd  ef\t"; "\n\n" ]

let test_token_spans () =
  let text = Bytes.of_string "foo  bar\nbazz x" in
  let expect = [| (0, 3); (5, 3); (9, 4); (14, 1) |] in
  Alcotest.(check (array (pair int int))) "spans" expect
    (K.Tokens.Delay_version.token_spans text);
  Alcotest.(check (array (pair int int))) "spans array" expect
    (K.Tokens.Array_version.token_spans text)

(* ---------------- grep ---------------- *)

let test_grep () =
  List.iter
    (fun n ->
      let text = K.Grep.generate ~seed:(n + 3) n in
      let expect = K.Grep.reference text "needle" in
      Alcotest.(check tok_t) "array" expect (K.Grep.Array_version.grep text "needle");
      Alcotest.(check tok_t) "rad" expect (K.Grep.Rad_version.grep text "needle");
      Alcotest.(check tok_t) "delay" expect (K.Grep.Delay_version.grep text "needle"))
    sizes;
  let text = Bytes.of_string "hay\nneedle here\nnothing\nend needle\n" in
  let expect = K.Grep.reference text "needle" in
  Alcotest.(check tok_t) "fixed text" expect (K.Grep.Delay_version.grep text "needle")

(* ---------------- integrate ---------------- *)

let test_integrate () =
  let n = 100_000 in
  let expect = K.Integrate.reference n in
  float_eq "array" expect (K.Integrate.Array_version.integrate n);
  float_eq "rad" expect (K.Integrate.Rad_version.integrate n);
  float_eq "delay" expect (K.Integrate.Delay_version.integrate n);
  (* The unboxed block loop inlines the integrand; same sums, same
     block-split reassociation as the boxed lane. *)
  float_eq "unboxed" expect (K.Integrate.integrate_unboxed n);
  float_eq "unboxed n=1" (K.Integrate.reference 1) (K.Integrate.integrate_unboxed 1);
  (* Midpoint rule converges to the closed form. *)
  Alcotest.(check bool) "accuracy" true
    (Float.abs (K.Integrate.Delay_version.integrate 1_000_000 -. K.Integrate.exact ())
    < 1e-3);
  Alcotest.(check bool) "unboxed accuracy" true
    (Float.abs (K.Integrate.integrate_unboxed 1_000_000 -. K.Integrate.exact ())
    < 1e-3)

(* ---------------- linearrec ---------------- *)

let farray = Alcotest.(array (float 1e-6))

let test_linearrec () =
  List.iter
    (fun n ->
      let xy = K.Linearrec.generate ~seed:(n + 5) n in
      let expect = K.Linearrec.reference xy in
      Alcotest.check farray "array" expect (K.Linearrec.Array_version.solve xy);
      Alcotest.check farray "rad" expect (K.Linearrec.Rad_version.solve xy);
      Alcotest.check farray "delay" expect (K.Linearrec.Delay_version.solve xy))
    sizes

(* ---------------- linefit ---------------- *)

let test_linefit () =
  let pts = K.Linefit.generate ~seed:1 50_000 in
  let es, ei = K.Linefit.reference pts in
  List.iter
    (fun (name, (s, i)) ->
      float_eq (name ^ " slope") es s;
      float_eq (name ^ " intercept") ei i)
    [
      ("array", K.Linefit.Array_version.fit pts);
      ("rad", K.Linefit.Rad_version.fit pts);
      ("delay", K.Linefit.Delay_version.fit pts);
      ("unboxed", K.Linefit.fit_unboxed pts);
    ];
  (* The fit recovers the generating line. *)
  Alcotest.(check bool) "slope near 2.5" true (Float.abs (es -. 2.5) < 0.05);
  Alcotest.(check bool) "intercept near -1" true (Float.abs (ei +. 1.0) < 0.1)

(* A, R and Ours reduce on the same grid in the same order (each block
   folded from its first element, the partials left to right), so their
   float results agree bit for bit, on any pool. *)
let test_float_kernels_bit_identical () =
  let bits = Int64.bits_of_float in
  let same what a r o =
    Alcotest.(check int64) (what ^ ": array = delay") (bits o) (bits a);
    Alcotest.(check int64) (what ^ ": rad = delay") (bits o) (bits r)
  in
  Fun.protect
    ~finally:(fun () -> Bds_runtime.Runtime.set_num_domains domains)
    (fun () ->
      List.iter
        (fun d ->
          Bds_runtime.Runtime.set_num_domains d;
          List.iter
            (fun n ->
              same
                (Printf.sprintf "integrate d=%d n=%d" d n)
                (K.Integrate.Array_version.integrate n)
                (K.Integrate.Rad_version.integrate n)
                (K.Integrate.Delay_version.integrate n))
            [ 10_000; 100_000; 333_333 ];
          List.iter
            (fun n ->
              let pts = K.Linefit.generate ~seed:n n in
              let (sa, ia), (sr, ir), (so, io) =
                ( K.Linefit.Array_version.fit pts,
                  K.Linefit.Rad_version.fit pts,
                  K.Linefit.Delay_version.fit pts )
              in
              let what = Printf.sprintf "linefit d=%d n=%d" d n in
              same (what ^ " slope") sa sr so;
              same (what ^ " intercept") ia ir io)
            [ 10_000; 100_000 ])
        [ 1; 2 ])

(* ---------------- mcss ---------------- *)

let test_mcss () =
  List.iter
    (fun n ->
      let a = K.Mcss.generate ~seed:(n + 7) n in
      let expect = K.Mcss.reference a in
      Alcotest.(check int) "array" expect (K.Mcss.Array_version.mcss a);
      Alcotest.(check int) "rad" expect (K.Mcss.Rad_version.mcss a);
      Alcotest.(check int) "delay" expect (K.Mcss.Delay_version.mcss a))
    sizes;
  Alcotest.(check int) "all negative" 0
    (K.Mcss.Delay_version.mcss (Array.make 100 (-5)));
  Alcotest.(check int) "all positive" 500 (K.Mcss.Delay_version.mcss (Array.make 100 5));
  Alcotest.(check int) "known" 6 (K.Mcss.Delay_version.mcss [| -2; 1; -3; 4; -1; 2; 1; -5; 4 |])

let test_mcss_floats () =
  List.iter
    (fun n ->
      if n > 0 then begin
        let a = K.Mcss.generate_floats ~seed:(n + 7) n in
        let expect = K.Mcss.reference_floats a in
        float_eq "boxed" expect (K.Mcss.mcss_floats_boxed a);
        float_eq "unboxed" expect (K.Mcss.mcss_floats a)
      end)
    sizes;
  float_eq "known" 6.0
    (K.Mcss.mcss_floats [| -2.; 1.; -3.; 4.; -1.; 2.; 1.; -5.; 4. |]);
  (* All-negative input: the empty subsequence wins (0, as in the int
     kernel). *)
  float_eq "all negative" (K.Mcss.reference_floats (Array.make 100 (-5.0)))
    (K.Mcss.mcss_floats (Array.make 100 (-5.0)))

(* Every library's mcss against Kadane on random inputs, under block
   policies that put block boundaries everywhere (B=1), at odd offsets
   (B=3, B=17) and at the default scaled size.  The generator mixes
   arbitrary arrays with the monoid's edge cases: all-negative (the empty
   subsequence wins), all-zero, and singletons. *)
let mcss_input_gen =
  QCheck2.Gen.(
    oneof
      [
        array_size (int_bound 5000) (int_range (-1000) 1000);
        array_size (int_range 1 500) (int_range (-1000) (-1));
        map (fun n -> Array.make n 0) (int_bound 500);
        map (fun x -> [| x |]) (int_range (-1000) 1000);
      ])

let mcss_policies =
  [
    ("B=1", Grain.Fixed 1);
    ("B=3", Grain.Fixed 3);
    ("B=17", Grain.Fixed 17);
    ("scaled", Grain.default_policy);
  ]

let mcss_matches_reference =
  List.map
    (fun (pname, policy) ->
      QCheck2.Test.make ~count:60
        ~name:(Printf.sprintf "mcss libs = reference, %s" pname)
        ~print:QCheck2.Print.(array int)
        mcss_input_gen
        (fun a ->
          with_policy policy (fun () ->
              let expect = K.Mcss.reference a in
              K.Mcss.Array_version.mcss a = expect
              && K.Mcss.Rad_version.mcss a = expect
              && K.Mcss.Delay_version.mcss a = expect)))
    mcss_policies

(* Summaries drawn as folds of [of_element] images: an arbitrary 4-tuple
   need not be the summary of any array, and the laws only have to hold
   on realizable ones. *)
let summary_gen =
  QCheck2.Gen.(
    map
      (List.fold_left
         (fun acc x -> K.Mcss.combine acc (K.Mcss.of_element x))
         K.Mcss.unit_summary)
      (list_size (int_bound 20) (int_range (-1000) 1000)))

let print_summary (s : K.Mcss.summary) =
  Printf.sprintf "{total=%d; prefix=%d; suffix=%d; best=%d}" s.total s.prefix
    s.suffix s.best

let mcss_monoid_laws =
  let open QCheck2 in
  let c = K.Mcss.combine and u = K.Mcss.unit_summary in
  [
    Test.make ~count:500 ~name:"mcss combine associative"
      ~print:Print.(triple print_summary print_summary print_summary)
      Gen.(triple summary_gen summary_gen summary_gen)
      (fun (a, b, d) -> c (c a b) d = c a (c b d));
    Test.make ~count:500 ~name:"mcss unit_summary two-sided"
      ~print:print_summary summary_gen
      (fun a -> c u a = a && c a u = a);
  ]

(* ---------------- quickhull ---------------- *)

let sort_points l = List.sort compare l

let test_quickhull () =
  List.iter
    (fun n ->
      let pts = K.Quickhull.generate ~seed:(n + 11) n in
      let expect = sort_points (K.Quickhull.reference pts) in
      let check name hull =
        Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
          (Printf.sprintf "%s n=%d" name n)
          expect
          (sort_points (hull pts))
      in
      check "array" K.Quickhull.Array_version.hull;
      check "rad" K.Quickhull.Rad_version.hull;
      check "delay" K.Quickhull.Delay_version.hull)
    [ 0; 1; 2; 3; 100; 20_000 ];
  (* Known square: hull is the four corners. *)
  let square =
    [| (0.0, 0.0); (1.0, 0.0); (1.0, 1.0); (0.0, 1.0); (0.5, 0.5); (0.3, 0.7) |]
  in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "square"
    (sort_points [ (0.0, 0.0); (1.0, 0.0); (1.0, 1.0); (0.0, 1.0) ])
    (sort_points (K.Quickhull.Delay_version.hull square))

(* ---------------- sparse_mxv ---------------- *)

let test_sparse_mxv () =
  List.iter
    (fun rows ->
      let m, x = K.Sparse_mxv.generate ~seed:(rows + 13) ~rows ~nnz_per_row:8 () in
      let expect = K.Sparse_mxv.reference m x in
      Alcotest.check farray "array" expect (K.Sparse_mxv.Array_version.mxv m x);
      Alcotest.check farray "rad" expect (K.Sparse_mxv.Rad_version.mxv m x);
      Alcotest.check farray "delay" expect (K.Sparse_mxv.Delay_version.mxv m x))
    [ 1; 10; 1000 ]

(* ---------------- wc ---------------- *)

let wc_t = Alcotest.(triple int int int)

let test_wc () =
  List.iter
    (fun n ->
      let text = K.Wc.generate ~seed:(n + 17) n in
      let expect = K.Wc.reference text in
      Alcotest.(check wc_t) "array" expect (K.Wc.Array_version.wc text);
      Alcotest.(check wc_t) "rad" expect (K.Wc.Rad_version.wc text);
      Alcotest.(check wc_t) "delay" expect (K.Wc.Delay_version.wc text))
    sizes

(* Every kernel's delay version under a matrix of block policies. *)
let test_policy_matrix () =
  let n = 487 in
  List.iter
    (fun (pname, policy) ->
      with_policy policy (fun () ->
          let ctx name = Printf.sprintf "%s under %s" name pname in
          let a = K.Bestcut.generate ~seed:3 n in
          float_eq (ctx "bestcut") (K.Bestcut.reference a)
            (K.Bestcut.Delay_version.best_cut a);
          let x, y = K.Bignum.generate_input ~seed:3 n in
          Alcotest.(check string) (ctx "bignum")
            (Bytes.to_string (fst (K.Bignum.reference x y)))
            (Bytes.to_string (fst (K.Bignum.Delay_version.add x y)));
          Alcotest.(check int_array) (ctx "primes") (K.Primes.reference n)
            (K.Primes.Delay_version.primes n);
          let text = K.Tokens.generate ~seed:3 n in
          Alcotest.(check tok_t) (ctx "tokens") (K.Tokens.reference text)
            (K.Tokens.Delay_version.tokens text);
          Alcotest.(check tok_t) (ctx "grep")
            (K.Grep.reference text "ab")
            (K.Grep.Delay_version.grep text "ab");
          Alcotest.(check tok_t) (ctx "inverted-index")
            (K.Inverted_index.reference text)
            (K.Inverted_index.Delay_version.index text);
          Alcotest.(check wc_t) (ctx "wc") (K.Wc.reference text)
            (K.Wc.Delay_version.wc text);
          let xy = K.Linearrec.generate ~seed:3 n in
          Alcotest.check farray (ctx "linearrec") (K.Linearrec.reference xy)
            (K.Linearrec.Delay_version.solve xy);
          let ints = K.Mcss.generate ~seed:3 n in
          Alcotest.(check int) (ctx "mcss") (K.Mcss.reference ints)
            (K.Mcss.Delay_version.mcss ints);
          let pts = K.Quickhull.generate ~seed:3 n in
          Alcotest.(check int)
            (ctx "quickhull")
            (List.length (K.Quickhull.reference pts))
            (List.length (K.Quickhull.Delay_version.hull pts));
          let keys = K.Dedup.generate ~seed:3 ~distinct:40 n in
          Alcotest.(check int_array) (ctx "dedup") (K.Dedup.reference keys)
            (K.Dedup.Delay_version.dedup keys)))
    [
      ("B=1", Grain.Fixed 1);
      ("B=2", Grain.Fixed 2);
      ("B=7", Grain.Fixed 7);
      ("B=100", Grain.Fixed 100);
      ("B=1000", Grain.Fixed 1000);
    ]

(* Kernels must stay correct under degenerate block sizes. *)
let test_kernels_small_blocks () =
  with_policy (Grain.Fixed 3) (fun () ->
      let a = K.Bestcut.generate ~seed:23 997 in
      float_eq "bestcut" (K.Bestcut.reference a) (K.Bestcut.Delay_version.best_cut a);
      let x, y = K.Bignum.generate_input ~seed:23 997 in
      check_bignum "bignum" K.Bignum.Delay_version.add x y;
      let text = K.Tokens.generate ~seed:23 997 in
      Alcotest.(check tok_t) "tokens" (K.Tokens.reference text)
        (K.Tokens.Delay_version.tokens text);
      Alcotest.(check int_array) "primes" (K.Primes.reference 997)
        (K.Primes.Delay_version.primes 997))

let () =
  Alcotest.run "kernels"
    [
      ( "bid kernels",
        [
          Alcotest.test_case "bestcut" `Quick test_bestcut;
          Alcotest.test_case "bestcut sob" `Quick test_bestcut_sob;
          Alcotest.test_case "bignum" `Quick test_bignum;
          Alcotest.test_case "bignum carry chains" `Quick test_bignum_carry_chains;
          Alcotest.test_case "primes" `Quick test_primes;
          Alcotest.test_case "tokens" `Quick test_tokens;
          Alcotest.test_case "token spans" `Quick test_token_spans;
        ] );
      ( "rad kernels",
        [
          Alcotest.test_case "grep" `Quick test_grep;
          Alcotest.test_case "integrate" `Quick test_integrate;
          Alcotest.test_case "linearrec" `Quick test_linearrec;
          Alcotest.test_case "linefit" `Quick test_linefit;
          Alcotest.test_case "float results bit-identical across A/R/Ours" `Quick
            test_float_kernels_bit_identical;
          Alcotest.test_case "mcss" `Quick test_mcss;
          Alcotest.test_case "mcss floats" `Quick test_mcss_floats;
          Alcotest.test_case "quickhull" `Quick test_quickhull;
          Alcotest.test_case "sparse-mxv" `Quick test_sparse_mxv;
          Alcotest.test_case "wc" `Quick test_wc;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "small blocks" `Quick test_kernels_small_blocks;
          Alcotest.test_case "policy matrix" `Quick test_policy_matrix;
        ] );
      ( "mcss properties",
        List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          (mcss_matches_reference @ mcss_monoid_laws) );
    ]
