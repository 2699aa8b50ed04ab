(* Block-delayed sequences: semantics vs list models under many block
   policies, representation rules of Figure 11, delaying/forcing
   behaviour, and edge cases. *)

module S = Bds.Seq
module Grain = Bds_runtime.Grain
open Bds_test_util

let () = init ()

let slist = S.to_list

let repr_t = Alcotest.of_pp (fun fmt r ->
    Format.pp_print_string fmt (match r with `Rad -> "RAD" | `Bid -> "BID"))

let test_representation_rules () =
  with_policy (Grain.Fixed 8) (fun () ->
      let t = S.tabulate 100 Fun.id in
      Alcotest.check repr_t "tabulate is RAD" `Rad (S.repr t);
      Alcotest.check repr_t "map RAD is RAD" `Rad (S.repr (S.map (( + ) 1) t));
      Alcotest.check repr_t "zip of RADs is RAD" `Rad (S.repr (S.zip t t));
      let sc, _ = S.scan ( + ) 0 t in
      Alcotest.check repr_t "scan is BID" `Bid (S.repr sc);
      Alcotest.check repr_t "map BID is BID" `Bid (S.repr (S.map (( + ) 1) sc));
      Alcotest.check repr_t "zip RAD*BID is BID" `Bid (S.repr (S.zip t sc));
      Alcotest.check repr_t "filter is BID" `Bid
        (S.repr (S.filter (fun x -> x > 50) t));
      Alcotest.check repr_t "flatten is BID" `Bid
        (S.repr (S.flatten (S.tabulate 5 (fun i -> S.iota i))));
      Alcotest.check repr_t "force is RAD" `Rad (S.repr (S.force sc)))

let pipeline_on_policy _name =
  let n = 1237 in
  let base = List.init n Fun.id in
  let s = S.iota n in
  (* map-scan-map-reduce (bestcut shape) *)
  let got =
    S.reduce ( + ) 0
      (S.mapi ( + ) (fst (S.scan ( + ) 0 (S.map (fun x -> x mod 5) s))))
  in
  let prefixes, _ = list_scan ( + ) 0 (List.map (fun x -> x mod 5) base) in
  let expect = List.fold_left ( + ) 0 (List.mapi ( + ) prefixes) in
  Alcotest.(check int) "map-scan-map-reduce" expect got;
  (* filter-scan-filter chain *)
  let f1 = S.filter (fun x -> x mod 3 <> 0) s in
  let sc = S.scan_incl ( + ) 0 f1 in
  let f2 = S.filter (fun x -> x mod 2 = 0) sc in
  let e1 = List.filter (fun x -> x mod 3 <> 0) base in
  let e2 = list_scan_incl ( + ) 0 e1 in
  let e3 = List.filter (fun x -> x mod 2 = 0) e2 in
  Alcotest.(check int_list) "filter-scan-filter" e3 (slist f2);
  (* flatten of maps of BIDs *)
  let nested = S.tabulate 40 (fun i -> S.filter (fun x -> x mod 2 = i mod 2) (S.iota i)) in
  let flat = S.flatten nested in
  let expect_flat =
    List.concat
      (List.init 40 (fun i ->
           List.filter (fun x -> x mod 2 = i mod 2) (List.init i Fun.id)))
  in
  Alcotest.(check int_list) "flatten of BIDs" expect_flat (slist flat)

let test_pipelines_all_policies () = for_all_policies pipeline_on_policy

let test_scan_variants () =
  with_policy (Grain.Fixed 5) (fun () ->
      let a = Array.init 137 (fun i -> (i mod 11) - 5) in
      let s = S.of_array a in
      let got, total = S.scan ( + ) 7 s in
      let expect, etotal = list_scan ( + ) 7 (Array.to_list a) in
      Alcotest.(check int_list) "seeded exclusive scan" expect (slist got);
      Alcotest.(check int) "total" etotal total;
      Alcotest.(check int_list) "inclusive"
        (list_scan_incl ( + ) 7 (Array.to_list a))
        (slist (S.scan_incl ( + ) 7 s));
      (* Non-commutative monoid across many blocks. *)
      let compose (a1, b1) (a2, b2) = (a1 * a2, (b1 * a2) + b2) in
      let pairs = Array.init 100 (fun i -> ((i mod 3) - 1, i mod 7)) in
      let got2, gt = S.scan compose (1, 0) (S.of_array pairs) in
      let expect2, et = list_scan compose (1, 0) (Array.to_list pairs) in
      Alcotest.(check (list (pair int int))) "affine scan" expect2 (slist got2);
      Alcotest.(check (pair int int)) "affine total" et gt)

let test_delaying_and_memoisation () =
  with_policy (Grain.Fixed 16) (fun () ->
      let calls = Atomic.make 0 in
      let s =
        S.map
          (fun x ->
            Atomic.incr calls;
            x)
          (S.iota 1000)
      in
      Alcotest.(check int) "map is delayed" 0 (Atomic.get calls);
      ignore (S.reduce ( + ) 0 s);
      ignore (S.reduce ( + ) 0 s);
      Alcotest.(check int) "RAD recomputes per traversal" 2000 (Atomic.get calls);
      (* BIDs memoise their forced array: repeated random access and
         repeated to_array pay once. *)
      Atomic.set calls 0;
      let bid, _ = S.scan ( + ) 0 s in
      Alcotest.(check int) "scan phase 1 drove input once" 1000 (Atomic.get calls);
      let a1 = S.to_array bid in
      let a2 = S.to_array bid in
      Alcotest.(check bool) "memoised array is shared" true (a1 == a2);
      Alcotest.(check int) "phase 3 re-drove input once" 2000 (Atomic.get calls);
      ignore (S.get bid 123);
      Alcotest.(check int) "get uses memo" 2000 (Atomic.get calls))

let test_memoised_bid_reuse () =
  (* Delayed ops on an already-forced BID must read the memoised array
     instead of re-driving the original block streams: a scan's delayed
     phase 3 would otherwise re-run the input's element functions on
     every traversal of the derived sequence.  (Regression: map/mapi/
     zip_with used to close over the original [block] even when the memo
     was populated; only [take] routed through it.) *)
  with_policy (Grain.Fixed 16) (fun () ->
      let calls = Atomic.make 0 in
      let counted =
        S.map
          (fun x ->
            Atomic.incr calls;
            x)
          (S.iota 1000)
      in
      let bid, _ = S.scan ( + ) 0 counted in
      ignore (S.to_array bid) (* force: phases 1 and 3 each drive input *);
      let baseline = Atomic.get calls in
      let prefixes, _ = list_scan ( + ) 0 (List.init 1000 Fun.id) in
      let m = S.map (( + ) 1) bid in
      Alcotest.check repr_t "map of BID stays BID" `Bid (S.repr m);
      Alcotest.(check int_list) "map contents"
        (List.map (( + ) 1) prefixes) (slist m);
      let mi = S.mapi ( + ) bid in
      Alcotest.check repr_t "mapi of BID stays BID" `Bid (S.repr mi);
      Alcotest.(check int_list) "mapi contents"
        (List.mapi ( + ) prefixes) (slist mi);
      let z = S.zip_with ( + ) bid bid in
      Alcotest.check repr_t "zip_with of BIDs stays BID" `Bid (S.repr z);
      Alcotest.(check int_list) "zip_with contents"
        (List.map (fun x -> 2 * x) prefixes) (slist z);
      ignore (S.to_array (S.take bid 500));
      Alcotest.(check int) "derived ops read the memo, not the blocks"
        baseline (Atomic.get calls))

let test_force_semantics () =
  with_policy (Grain.Fixed 8) (fun () ->
      (* RADs are not memoised: every to_array is a fresh array. *)
      let r = S.map (( + ) 1) (S.iota 100) in
      Alcotest.(check bool) "rad to_array fresh" false (S.to_array r == S.to_array r);
      (* force is idempotent and preserves contents. *)
      let f1 = S.force r in
      let f2 = S.force f1 in
      Alcotest.(check int_list) "force contents" (List.init 100 (( + ) 1)) (slist f2);
      Alcotest.check repr_t "force RAD" `Rad (S.repr f1);
      (* forcing a BID yields an array-backed RAD decoupled from the
         original blocks. *)
      let b = S.filter (fun x -> x > 50) r in
      let fb = S.force b in
      Alcotest.check repr_t "forced BID is RAD" `Rad (S.repr fb);
      Alcotest.(check int_list) "same contents" (slist b) (slist fb))

let test_random_access () =
  with_policy (Grain.Fixed 10) (fun () ->
      let s = S.tabulate 100 (fun i -> i * 3) in
      Alcotest.(check int) "rad get" 30 (S.get s 10);
      let b = S.filter (fun x -> x mod 2 = 0) s in
      Alcotest.(check int) "bid get forces" (S.to_list b |> fun l -> List.nth l 7)
        (S.get b 7);
      Alcotest.check_raises "oob" (Invalid_argument "Seq.get: index out of bounds")
        (fun () -> ignore (S.get s 100)))

let test_policy_change_mid_life () =
  (* A BID records its block grid at creation: changing the policy before
     consumption must not corrupt it. *)
  let b =
    with_policy (Grain.Fixed 4) (fun () ->
        fst (S.scan ( + ) 0 (S.filter (fun x -> x mod 2 = 0) (S.iota 100))))
  in
  let evens = List.filter (fun x -> x mod 2 = 0) (List.init 100 Fun.id) in
  let model = fst (list_scan ( + ) 0 evens) in
  with_policy (Grain.Fixed 17) (fun () ->
      Alcotest.(check int_list) "consumed under new policy" model (slist b);
      (* Every per-block consumer of a fresh BID cut under [Fixed 4],
         run under [Fixed 17]: each must walk the BID's own grid. *)
      let fresh () =
        with_policy (Grain.Fixed 4) (fun () ->
            fst (S.scan ( + ) 0 (S.filter (fun x -> x mod 2 = 0) (S.iota 100))))
      in
      let n = List.length model in
      let arr = Array.of_list model in
      let total = List.fold_left ( + ) 0 model in
      Alcotest.(check int) "block size kept" 4 (S.block_size_of (fresh ()));
      let sum = Atomic.make 0 and seen = Atomic.make 0 in
      S.iter
        (fun v ->
          ignore (Atomic.fetch_and_add sum v : int);
          Atomic.incr seen)
        (fresh ());
      Alcotest.(check (pair int int)) "iter" (total, n) (Atomic.get sum, Atomic.get seen);
      let got = Array.make n (-1) in
      S.iteri (fun i v -> got.(i) <- v) (fresh ());
      Alcotest.(check int_array) "iteri" arr got;
      Alcotest.(check int) "reduce" total (S.reduce ( + ) 0 (fresh ()));
      Alcotest.(check int) "int_sum" total (S.int_sum (fresh ()));
      Alcotest.(check (float 0.0)) "float_sum" (float_of_int total)
        (S.float_sum (S.map float_of_int (fresh ())));
      Alcotest.(check int) "max_by" arr.(n - 1) (S.max_by compare (fresh ()));
      Alcotest.(check bool) "exists" true (S.exists (fun v -> v = arr.(n - 1)) (fresh ()));
      Alcotest.(check bool) "exists none" false (S.exists (fun v -> v < 0) (fresh ()));
      Alcotest.(check (option int)) "find_index" (Some (n - 1))
        (S.find_index (fun v -> v = arr.(n - 1)) (fresh ()));
      let yes, no = S.partition (fun v -> v mod 3 = 0) (fresh ()) in
      Alcotest.(check (pair int_list int_list)) "partition"
        (List.partition (fun v -> v mod 3 = 0) model)
        (slist yes, slist no);
      let half v = if v mod 4 = 0 then Some (v / 4) else None in
      Alcotest.(check int_list) "filter_op" (List.filter_map half model)
        (slist (S.filter_op half (fresh ())));
      let inner v = List.init (v mod 3) (fun k -> v + k) in
      Alcotest.(check int_list) "flatten" (List.concat_map inner model)
        (slist (S.flatten (S.map (fun v -> S.of_list (inner v)) (fresh ()))));
      Alcotest.(check int_array) "to_array" arr (S.to_array (fresh ()));
      Alcotest.(check int_list) "mapi" (List.mapi ( + ) model)
        (slist (S.mapi ( + ) (fresh ())));
      Alcotest.(check int_list) "take" (List.filteri (fun i _ -> i < 30) model)
        (slist (S.take (fresh ()) 30));
      Alcotest.(check int_list) "zip BID x RAD" (List.mapi ( + ) model)
        (slist (S.zip_with ( + ) (fresh ()) (S.iota n)));
      Alcotest.(check int_list) "zip RAD x BID" (List.mapi ( + ) model)
        (slist (S.zip_with ( + ) (S.iota n) (fresh ()))))

let test_zip_mixed_block_sizes () =
  (* BIDs created under different policies must still zip correctly. *)
  let mk policy =
    with_policy policy (fun () -> S.filter (fun x -> x mod 2 = 0) (S.iota 100))
  in
  let b1 = mk (Grain.Fixed 4) in
  let b2 = mk (Grain.Fixed 9) in
  let got = slist (S.zip_with ( + ) b1 b2) in
  let evens = List.filter (fun x -> x mod 2 = 0) (List.init 100 Fun.id) in
  Alcotest.(check int_list) "zip across block sizes" (List.map (fun x -> 2 * x) evens) got;
  (* A RAD zipped with a BID is cut on the BID's grid, whatever the
     policy says now. *)
  with_policy (Grain.Fixed 17) (fun () ->
      let b3 = mk (Grain.Fixed 4) in
      Alcotest.(check int_list) "zip RAD x BID across block sizes"
        (List.mapi (fun i x -> i + x) evens)
        (slist (S.zip_with ( + ) (S.iota 50) b3)));
  Alcotest.check_raises "zip length mismatch" (Invalid_argument "Seq.zip: length mismatch")
    (fun () -> ignore (S.zip (S.iota 3) (S.iota 4)))

let test_edge_cases () =
  for_all_policies (fun _ ->
      Alcotest.(check int_list) "empty map" [] (slist (S.map (( + ) 1) S.empty));
      Alcotest.(check int) "empty reduce" 5 (S.reduce ( + ) 5 S.empty);
      let e, t = S.scan ( + ) 5 S.empty in
      Alcotest.(check int) "empty scan total" 5 t;
      Alcotest.(check int_list) "empty scan" [] (slist e);
      Alcotest.(check int_list) "empty filter" [] (slist (S.filter (fun _ -> true) S.empty));
      Alcotest.(check int_list) "singleton" [ 9 ] (slist (S.singleton 9));
      let one, t1 = S.scan ( + ) 3 (S.singleton 4) in
      Alcotest.(check int_list) "scan singleton" [ 3 ] (slist one);
      Alcotest.(check int) "scan singleton total" 7 t1;
      Alcotest.(check int_list) "filter to empty" []
        (slist (S.filter (fun _ -> false) (S.iota 100)));
      Alcotest.(check int_list) "flatten empty outer" [] (slist (S.flatten S.empty));
      Alcotest.(check int_list) "flatten all-empty inners" []
        (slist (S.flatten (S.tabulate 10 (fun _ -> S.empty))));
      Alcotest.(check int_list) "flatten with empty gaps"
        [ 0; 0; 1 ]
        (slist
           (S.flatten
              (S.of_list [ S.empty; S.iota 1; S.empty; S.empty; S.iota 2; S.empty ]))))

(* flatten measures each inner in its spine pass and re-derives it at
   emission; an outer whose function returns a different length the
   second time must raise, not walk past a segment.  Inner 17 changes:
   longer, shorter and emptied, reached from a block boundary (B=1) and
   mid-block (B=7).  An inner the spine measured empty is checked where
   a walk passes it: at B=7 inner 17 sits at output position 16, inside
   block 2, so the case that makes it non-empty raises too. *)
let test_flatten_length_guard () =
  let guard =
    Invalid_argument
      "Seq.flatten: an inner sequence's length changed between evaluations of the outer"
  in
  List.iter
    (fun (name, bsize, first_len, later_len) ->
      with_policy (Grain.Fixed bsize) (fun () ->
          let n = 40 in
          let seen = Array.make n false in
          let outer =
            S.map
              (fun i ->
                let len =
                  if i <> 17 then i mod 3
                  else if seen.(i) then later_len
                  else first_len
                in
                seen.(i) <- true;
                S.tabulate len (fun j -> i + j))
              (S.iota n)
          in
          let out = S.flatten outer in
          Alcotest.check_raises
            (Printf.sprintf "%s B=%d" name bsize)
            guard
            (fun () -> ignore (S.to_array out))))
    [
      ("longer", 1, 2, 3); ("longer", 7, 2, 3);
      ("shorter", 1, 3, 1); ("shorter", 7, 3, 1);
      ("empty to non-empty", 7, 0, 2);
      ("non-empty to empty", 1, 2, 0); ("non-empty to empty", 7, 2, 0);
    ]

let test_iteration () =
  with_policy (Grain.Fixed 7) (fun () ->
      let hits = Array.init 500 (fun _ -> Atomic.make 0) in
      S.iter (fun i -> Atomic.incr hits.(i)) (S.iota 500);
      Array.iteri
        (fun i a -> if Atomic.get a <> 1 then Alcotest.failf "index %d hit %d times" i (Atomic.get a))
        hits;
      let out = Array.make 200 (-1) in
      let b = S.filter (fun x -> x < 200) (S.iota 1000) in
      S.iteri (fun i v -> out.(i) <- v) b;
      Alcotest.(check int_array) "iteri on BID" (Array.init 200 Fun.id) out)

let test_derived () =
  with_policy (Grain.Fixed 6) (fun () ->
      let s = S.iota 10 in
      Alcotest.(check int_list) "slice" [ 3; 4; 5 ] (slist (S.slice s 3 3));
      Alcotest.(check int_list) "take" [ 0; 1; 2 ] (slist (S.take s 3));
      Alcotest.(check int_list) "drop" [ 7; 8; 9 ] (slist (S.drop s 7));
      Alcotest.(check int_list) "rev" (List.rev (List.init 10 Fun.id)) (slist (S.rev s));
      Alcotest.(check int_list) "append" [ 0; 1; 0; 1; 2 ]
        (slist (S.append (S.iota 2) (S.iota 3)));
      (* Derived ops on BIDs force first but stay correct. *)
      let b = S.filter (fun x -> x mod 2 = 1) (S.iota 20) in
      Alcotest.(check int_list) "take on BID" [ 1; 3; 5 ] (slist (S.take b 3));
      Alcotest.(check int_list) "rev on BID"
        (List.rev (List.filter (fun x -> x mod 2 = 1) (List.init 20 Fun.id)))
        (slist (S.rev b));
      Alcotest.(check int) "sum" 45 (S.sum s);
      Alcotest.(check (float 1e-9)) "float_sum" 4.5
        (S.float_sum (S.map (fun i -> float_of_int i /. 10.0) s));
      Alcotest.(check int) "max_by" 9 (S.max_by compare s);
      Alcotest.(check bool) "equal" true (S.equal ( = ) s (S.iota 10));
      Alcotest.(check bool) "not equal" false (S.equal ( = ) s (S.rev s)))

let test_blockwise_api () =
  with_policy (Grain.Fixed 8) (fun () ->
      (* take on a BID must not force it. *)
      let calls = Atomic.make 0 in
      let counted =
        S.map
          (fun x ->
            Atomic.incr calls;
            x)
          (S.iota 100)
      in
      let b = S.filter (fun x -> x mod 2 = 0) counted in
      Atomic.set calls 0;
      let t = S.take b 11 in
      Alcotest.check repr_t "take keeps BID" `Bid (S.repr t);
      Alcotest.(check int) "take is O(1)" 0 (Atomic.get calls);
      Alcotest.(check int_list) "take contents" (List.init 11 (fun i -> 2 * i))
        (slist t);
      Alcotest.(check int_list) "take all" (List.init 50 (fun i -> 2 * i))
        (slist (S.take b 50));
      Alcotest.(check int) "take empty" 0 (S.length (S.take b 0));
      (* Memoised BIDs answer take from the cached array. *)
      ignore (S.to_array b);
      Alcotest.check repr_t "take after force is RAD" `Rad (S.repr (S.take b 5));
      (* iter_block_streams: parallel across blocks, ordered within. *)
      let s = S.filter (fun x -> x mod 3 <> 0) (S.iota 100) in
      let bs = S.block_size_of s in
      let out = Array.make (S.length s) (-1) in
      S.iter_block_streams
        (fun j st ->
          Bds_stream.Stream.iteri (fun k v -> out.((j * bs) + k) <- v) st)
        s;
      Alcotest.(check int_list) "iter_block_streams"
        (List.filter (fun x -> x mod 3 <> 0) (List.init 100 Fun.id))
        (Array.to_list out))

let test_extended_combinators () =
  with_policy (Grain.Fixed 9) (fun () ->
      let s = S.iota 100 in
      Alcotest.(check int_list) "map3"
        (List.init 100 (fun i -> 3 * i))
        (slist (S.map3 (fun a b c -> a + b + c) s s s));
      let pairs = S.map (fun i -> (i, i * 2)) s in
      let l, r = S.unzip pairs in
      Alcotest.(check int_list) "unzip fst" (List.init 100 Fun.id) (slist l);
      Alcotest.(check int_list) "unzip snd" (List.init 100 (fun i -> 2 * i)) (slist r);
      Alcotest.(check (list (pair int int))) "enumerate"
        [ (0, 0); (1, 10); (2, 20) ]
        (S.to_list (S.enumerate (S.tabulate 3 (fun i -> 10 * i))));
      Alcotest.(check int) "count" 34 (S.count (fun x -> x mod 3 = 0) s);
      Alcotest.(check bool) "for_all true" true (S.for_all (fun x -> x < 100) s);
      Alcotest.(check bool) "for_all false" false (S.for_all (fun x -> x < 99) s);
      Alcotest.(check bool) "exists true" true (S.exists (fun x -> x = 42) s);
      Alcotest.(check bool) "exists false" false (S.exists (fun x -> x > 100) s);
      Alcotest.(check (option int)) "find_opt" (Some 51)
        (S.find_opt (fun x -> x > 50) s);
      Alcotest.(check (option int)) "find_opt none" None
        (S.find_opt (fun x -> x > 500) s);
      Alcotest.(check (option int)) "find_index" (Some 17)
        (S.find_index (fun x -> x * 3 = 51) s);
      (* find on a BID input: order must still be leftmost-first. *)
      let b = S.filter (fun x -> x mod 2 = 1) s in
      Alcotest.(check (option int)) "find on BID" (Some 21)
        (S.find_opt (fun x -> x > 19) b);
      Alcotest.(check int_list) "concat" [ 0; 0; 1; 0; 1; 2 ]
        (slist (S.concat [ S.iota 1; S.iota 2; S.empty; S.iota 3 ]));
      Alcotest.(check int_list) "flat_map"
        (List.concat_map (fun x -> List.init x (fun j -> (10 * x) + j)) (List.init 6 Fun.id))
        (slist (S.flat_map (fun x -> S.tabulate x (fun j -> (10 * x) + j)) (S.iota 6)));
      (let evens, odds = S.partition (fun x -> x mod 2 = 0) s in
       Alcotest.(check int_list) "partition evens"
         (List.filter (fun x -> x mod 2 = 0) (List.init 100 Fun.id))
         (slist evens);
       Alcotest.(check int_list) "partition odds"
         (List.filter (fun x -> x mod 2 = 1) (List.init 100 Fun.id))
         (slist odds));
      Alcotest.(check (list (pair int int))) "pairwise"
        [ (0, 1); (1, 2); (2, 3) ]
        (S.to_list (S.pairwise (S.iota 4)));
      Alcotest.(check int) "pairwise singleton" 0 (S.length (S.pairwise (S.iota 1)));
      Alcotest.(check (list (pair int int))) "pairwise on BID"
        [ (0, 2); (2, 4) ]
        (S.to_list (S.pairwise (S.filter (fun x -> x mod 2 = 0) (S.iota 6))));
      Alcotest.(check int_list) "std seq roundtrip" (List.init 10 Fun.id)
        (slist (S.of_std_seq (S.to_std_seq (S.iota 10))));
      Alcotest.(check int) "min_by" 0 (S.min_by compare s))

let test_filter_op () =
  for_all_policies (fun _ ->
      let got =
        slist
          (S.filter_op
             (fun x -> if x mod 3 = 0 then Some (x * x) else None)
             (S.iota 200))
      in
      let expect =
        List.filter_map
          (fun x -> if x mod 3 = 0 then Some (x * x) else None)
          (List.init 200 Fun.id)
      in
      Alcotest.(check int_list) "filter_op" expect got)

let test_partition_single_pass () =
  (* One pass producing both halves: the predicate runs exactly once per
     element, whichever side the element lands on. *)
  with_policy (Grain.Fixed 16) (fun () ->
      let n = 1000 in
      let evals = Atomic.make 0 in
      let p x =
        ignore (Atomic.fetch_and_add evals 1);
        x mod 3 = 0
      in
      let yes, no = S.partition p (S.iota n) in
      Alcotest.(check int) "predicate ran once per element" n
        (Atomic.get evals);
      let model = List.init n Fun.id in
      Alcotest.(check int_list) "yes side"
        (List.filter (fun x -> x mod 3 = 0) model)
        (slist yes);
      Alcotest.(check int_list) "no side"
        (List.filter (fun x -> x mod 3 <> 0) model)
        (slist no);
      (* Consuming the halves re-reads packed storage, not the input. *)
      ignore (S.reduce ( + ) 0 yes);
      ignore (S.reduce ( + ) 0 no);
      Alcotest.(check int) "halves never re-run the predicate" n
        (Atomic.get evals))

(* Filter evaluation counts.  The predicate runs exactly once per input
   element on every path.  Over an indexed input (a RAD, or a BID whose
   memo is published) emission walks the survivor bitmask and evaluates
   the input's element function only at survivors — exactly |output|
   times per emission — and phase 1 is a direct loop, not a stream fold.
   A non-indexed BID keeps the re-drive: phase 1 folds its blocks and
   each emission re-runs input elements, non-survivors included. *)
let test_filter_eval_counts () =
  with_policy (Grain.Fixed 16) (fun () ->
      let module T = Bds_runtime.Telemetry in
      let n = 1000 in
      let keep x = x mod 7 < 2 in
      let expect = List.filter keep (List.init n Fun.id) in
      let out_len = List.length expect in
      let preds = Atomic.make 0 and elems = Atomic.make 0 in
      let p x =
        Atomic.incr preds;
        keep x
      in
      let counted x =
        Atomic.incr elems;
        x
      in
      let reset () =
        Atomic.set preds 0;
        Atomic.set elems 0
      in
      let folds_during f =
        let before = T.snapshot () in
        let r = f () in
        (r, (T.diff ~before ~after:(T.snapshot ())).T.s_fused_folds)
      in
      (* RAD input, counting index function. *)
      let out, folds =
        folds_during (fun () -> S.filter p (S.tabulate n (fun i -> counted i)))
      in
      Alcotest.(check int) "rad: predicate once per element" n (Atomic.get preds);
      Alcotest.(check int) "rad: phase 1 reads each element once" n
        (Atomic.get elems);
      Alcotest.(check int) "rad: phase 1 is not a stream fold" 0 folds;
      Atomic.set elems 0;
      Alcotest.(check int) "rad: reduce" (List.fold_left ( + ) 0 expect)
        (S.reduce ( + ) 0 out);
      Alcotest.(check int) "rad: emission reads survivors only" out_len
        (Atomic.get elems);
      Alcotest.(check int) "rad: emission never runs the predicate" n
        (Atomic.get preds);
      (* A non-indexed BID holding 0..n-1: a shifted scan, then a
         counting map. *)
      let shifted () =
        S.map
          (fun x -> counted (x + 1))
          (fst (S.scan (fun _ x -> x) (-1) (S.iota n)))
      in
      (* Memoised BID input: the producer never runs again. *)
      let bid = shifted () in
      ignore (S.to_array bid);
      reset ();
      let out, folds = folds_during (fun () -> S.filter p bid) in
      Alcotest.(check int) "memo: predicate once per element" n (Atomic.get preds);
      Alcotest.(check int) "memo: phase 1 is not a stream fold" 0 folds;
      Alcotest.(check int_list) "memo: survivors" expect (slist out);
      Alcotest.(check int) "memo: producer never re-runs" 0 (Atomic.get elems);
      Alcotest.(check int) "memo: emission never runs the predicate" n
        (Atomic.get preds);
      (* Non-indexed BID input: the unchanged re-drive path. *)
      let redrive = shifted () in
      reset ();
      let out, folds = folds_during (fun () -> S.filter p redrive) in
      Alcotest.(check int) "bid: predicate once per element" n (Atomic.get preds);
      Alcotest.(check int) "bid: phase 1 folds every input block" (n / 16 + 1) folds;
      Atomic.set elems 0;
      Alcotest.(check int_list) "bid: survivors" expect (slist out);
      (* Each region re-drives its input blocks up to its last survivor,
         non-survivors included. *)
      Alcotest.(check bool)
        (Printf.sprintf "bid: emission re-drives non-survivors (%d > %d)"
           (Atomic.get elems) out_len)
        true
        (Atomic.get elems > out_len);
      Alcotest.(check int) "bid: emission never runs the predicate" n
        (Atomic.get preds))

let test_shared_forces () =
  (* Shared-consumer plan: a BID consumed by two independent consumers
     forces its memo exactly once (one shared_forces bump for the whole
     BID lifetime); the producer runs at most twice (once for the first
     consumer's drive, once for the memo force), never per consumer. *)
  with_policy (Grain.Fixed 16) (fun () ->
      let module T = Bds_runtime.Telemetry in
      let calls = Atomic.make 0 in
      let counted =
        S.map
          (fun x ->
            Atomic.incr calls;
            x)
          (S.iota 1000)
      in
      let bid, _ = S.scan ( + ) 0 counted in
      Atomic.set calls 0;
      let before = T.snapshot () in
      let r1 = S.reduce ( + ) 0 bid in
      let d1 = T.diff ~before ~after:(T.snapshot ()) in
      Alcotest.(check int) "first consumer: no shared force" 0
        d1.T.s_shared_forces;
      Alcotest.(check int) "first consumer drove phase 3 once" 1000
        (Atomic.get calls);
      let r2 = S.reduce ( + ) 0 bid in
      let r3 = S.reduce ( + ) 0 bid in
      let d = T.diff ~before ~after:(T.snapshot ()) in
      Alcotest.(check int) "one shared force per BID lifetime" 1
        d.T.s_shared_forces;
      Alcotest.(check int) "producer ran at most twice" 2000
        (Atomic.get calls);
      Alcotest.(check bool) "consumers agree" true (r1 = r2 && r2 = r3);
      (* A BID forced explicitly (to_array) before any second consumer
         never bumps the counter: the memo is already published. *)
      let bid2, _ = S.scan ( + ) 0 counted in
      let before2 = T.snapshot () in
      ignore (S.to_array bid2);
      ignore (S.reduce ( + ) 0 bid2);
      ignore (S.to_array bid2);
      let d2 = T.diff ~before:before2 ~after:(T.snapshot ()) in
      Alcotest.(check int) "explicit force then reuse: no shared force" 0
        d2.T.s_shared_forces)

(* Short-circuiting searches.  Eval-count assertions run on a 1-domain
   pool, where the scan order is deterministic (the runner executes the
   leftmost block inline first and cancellation kills every queued
   sibling): a front-of-sequence hit must touch at most one block, and a
   miss must touch every element exactly once.  On the shared
   oversubscribed pool the counts are timing-dependent (a descheduled
   runner lets thieves scan ahead before the hit lands), so there we
   check results only. *)
let test_early_exit_counts () =
  Bds_runtime.Runtime.set_num_domains 1;
  Fun.protect
    ~finally:(fun () -> Bds_runtime.Runtime.set_num_domains domains)
    (fun () ->
      with_policy (Grain.Fixed 100) (fun () ->
          let n = 100_000 in
          let s = S.iota n in
          let evals = Atomic.make 0 in
          let counted p x =
            ignore (Atomic.fetch_and_add evals 1);
            p x
          in
          Alcotest.(check bool) "exists hit" true
            (S.exists (counted (( = ) 0)) s);
          Alcotest.(check bool) "exists short-circuits" true
            (Atomic.get evals <= 100);
          Atomic.set evals 0;
          Alcotest.(check bool) "exists miss" false
            (S.exists (counted (fun x -> x < 0)) s);
          Alcotest.(check int) "miss scans everything once" n
            (Atomic.get evals);
          Atomic.set evals 0;
          Alcotest.(check (option int)) "find_opt early" (Some 5)
            (S.find_opt (counted (fun x -> x >= 5)) s);
          Alcotest.(check bool) "find short-circuits" true
            (Atomic.get evals <= 100);
          Atomic.set evals 0;
          Alcotest.(check bool) "for_all counterexample" false
            (S.for_all (counted (fun x -> x < 50)) s);
          Alcotest.(check bool) "for_all short-circuits" true
            (Atomic.get evals <= 100)))

(* Each block of a search is one push fold that stops at its first hit.
   On a 1-domain pool the blocks run left to right, so a hit at position
   [p] evaluates the predicate exactly [p + 1] times (and a miss [n]
   times), over every input representation: a RAD, a memoised BID, a
   scan output (phase-3 stream blocks) and a filter output (bit-walk
   region blocks).  [value p] is the input's element at position [p]. *)
let test_early_exit_exact_counts () =
  let n = 5_000 in
  let identity_scan () = S.scan_incl (fun _ x -> x) 0 (S.iota n) in
  let inputs =
    [
      ("RAD", (fun () -> S.iota n), Fun.id);
      ( "memoised BID",
        (fun () ->
          let b = identity_scan () in
          ignore (S.to_array b);
          b),
        Fun.id );
      ("scan BID", identity_scan, Fun.id);
      ( "filter BID",
        (fun () -> S.filter (fun x -> x land 1 = 0) (S.iota (2 * n))),
        fun p -> 2 * p );
    ]
  in
  Bds_runtime.Runtime.set_num_domains 1;
  Fun.protect
    ~finally:(fun () -> Bds_runtime.Runtime.set_num_domains domains)
    (fun () ->
      with_policy (Grain.Fixed 1000) (fun () ->
          List.iter
            (fun (name, input, value) ->
              List.iter
                (fun p ->
                  let evals = Atomic.make 0 in
                  let hit x =
                    Atomic.incr evals;
                    x = value p
                  in
                  let check op ok =
                    let tag = Printf.sprintf "%s %s, hit at %d" name op p in
                    Alcotest.(check bool) (tag ^ ": result") true ok;
                    Alcotest.(check int) (tag ^ ": evaluations")
                      (Int.min (p + 1) n) (Atomic.get evals);
                    Atomic.set evals 0
                  in
                  let found = p < n in
                  check "exists" (S.exists hit (input ()) = found);
                  check "find_index"
                    (S.find_index hit (input ()) = if found then Some p else None))
                [ 0; 1; 999; 1000; 2345; n - 1; n ])
            inputs))

let test_early_exit_parallel () =
  with_policy (Grain.Fixed 100) (fun () ->
      let n = 100_000 in
      let s = S.iota n in
      Alcotest.(check bool) "exists hit" true (S.exists (( = ) 0) s);
      Alcotest.(check bool) "exists miss" false (S.exists (fun x -> x < 0) s);
      Alcotest.(check bool) "for_all holds" true (S.for_all (fun x -> x >= 0) s);
      Alcotest.(check bool) "for_all counterexample" false
        (S.for_all (fun x -> x < 50) s);
      Alcotest.(check (option int)) "find_opt" (Some 5)
        (S.find_opt (fun x -> x >= 5) s);
      Alcotest.(check (option int)) "find_opt none" None
        (S.find_opt (fun x -> x > n) s);
      Alcotest.(check (option int)) "find_index" (Some 77)
        (S.find_index (( = ) 77) s);
      (* Leftmost semantics on a BID input with later decoys: the match
         at 21 must win over any later candidate a parallel block finds
         first. *)
      let b = S.filter (fun x -> x mod 2 = 1) s in
      Alcotest.(check (option int)) "find on BID leftmost" (Some 21)
        (S.find_opt (fun x -> x > 19) b))

(* max_by/min_by reduce over blocks: the leftmost extremum wins a tie,
   on every block grid and representation, and a RAD input is never
   copied (the reduce allocates O(n/B), where the old [to_array] put n
   words in the major heap). *)
let test_max_by_min_by () =
  let n = 200 in
  (* Keys repeat with period 7, so each extremum occurs many times,
     across block boundaries; the second component names the position. *)
  let key i = (i * 3) mod 7 in
  let by_key (k1, _) (k2, _) = compare k1 k2 in
  for_all_policies (fun name ->
      let rad = S.tabulate n (fun i -> (key i, i)) in
      let bid = S.filter (fun (_, i) -> i mod 3 <> 1) rad in
      let first_with k l = List.find (fun (k', _) -> k' = k) l in
      List.iter
        (fun (rep, s) ->
          let l = S.to_list s in
          let hi = List.fold_left (fun m (k, _) -> max m k) min_int l in
          let lo = List.fold_left (fun m (k, _) -> min m k) max_int l in
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s %s max_by leftmost" name rep)
            (first_with hi l) (S.max_by by_key s);
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s %s min_by leftmost" name rep)
            (first_with lo l) (S.min_by by_key s))
        [ ("rad", rad); ("bid", bid) ]);
  let n = 1 lsl 18 in
  let s = S.tabulate n (fun i -> (i * 7919) land 0xffff) in
  Bds_runtime.Runtime.set_num_domains 1;
  Fun.protect
    ~finally:(fun () -> Bds_runtime.Runtime.set_num_domains Bds_test_util.domains)
    (fun () ->
      let run () = ignore (Sys.opaque_identity (S.max_by Int.compare s)) in
      run ();
      Gc.full_major ();
      let before = (Gc.quick_stat ()).major_words in
      run ();
      (* A direct major allocation is counted at the next major slice. *)
      ignore (Gc.major_slice 0 : int);
      let words = (Gc.quick_stat ()).major_words -. before in
      Alcotest.(check bool)
        (Printf.sprintf "max_by on a 2^18 RAD: %.0f major words <= n/64" words)
        true
        (words <= float_of_int (n / 64)));
  Alcotest.(check int) "max value" 0xffff (S.max_by Int.compare s)

let () =
  Alcotest.run "seq"
    [
      ( "seq",
        [
          Alcotest.test_case "representation rules" `Quick test_representation_rules;
          Alcotest.test_case "pipelines (all policies)" `Quick test_pipelines_all_policies;
          Alcotest.test_case "scan variants" `Quick test_scan_variants;
          Alcotest.test_case "delaying and memoisation" `Quick test_delaying_and_memoisation;
          Alcotest.test_case "memoised BID reuse" `Quick test_memoised_bid_reuse;
          Alcotest.test_case "force semantics" `Quick test_force_semantics;
          Alcotest.test_case "random access" `Quick test_random_access;
          Alcotest.test_case "zip mixed block sizes" `Quick test_zip_mixed_block_sizes;
          Alcotest.test_case "policy change mid-life" `Quick test_policy_change_mid_life;
          Alcotest.test_case "edge cases" `Quick test_edge_cases;
          Alcotest.test_case "flatten length guard" `Quick test_flatten_length_guard;
          Alcotest.test_case "iteration" `Quick test_iteration;
          Alcotest.test_case "derived ops" `Quick test_derived;
          Alcotest.test_case "extended combinators" `Quick test_extended_combinators;
          Alcotest.test_case "blockwise api" `Quick test_blockwise_api;
          Alcotest.test_case "filter_op" `Quick test_filter_op;
          Alcotest.test_case "partition single pass" `Quick test_partition_single_pass;
          Alcotest.test_case "filter evaluation counts" `Quick test_filter_eval_counts;
          Alcotest.test_case "shared forces" `Quick test_shared_forces;
          Alcotest.test_case "early-exit counts" `Quick test_early_exit_counts;
          Alcotest.test_case "early-exit parallel" `Quick test_early_exit_parallel;
          Alcotest.test_case "early-exit exact counts" `Quick
            test_early_exit_exact_counts;
          Alcotest.test_case "max_by/min_by ties and space" `Quick test_max_by_min_by;
        ] );
    ]
