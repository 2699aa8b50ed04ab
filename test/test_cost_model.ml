(* Cost semantics (Figure 11): model self-consistency, the Figure 5
   read/write table, the §5.1 BFS bounds, and model-vs-reality checks
   against measured allocations of the actual library. *)

module CM = Bds.Cost_model
module S = Bds.Seq
module Grain = Bds_runtime.Grain
open Bds_test_util

let () = init ()

let b = 64 (* model block size *)

(* ------------------------------------------------------------------ *)
(* Figure 11 rows                                                      *)

let test_tabulate_map_delay_costs () =
  let x, c = CM.tabulate 1000 CM.simple in
  Alcotest.(check int) "tabulate eager work" 1 c.work;
  Alcotest.(check int) "tabulate eager alloc" 0 c.alloc;
  Alcotest.(check bool) "tabulate RAD" true (x.repr = `Rad);
  let y, c2 = CM.map CM.simple x in
  Alcotest.(check int) "map eager work" 1 c2.work;
  Alcotest.(check int) "map accumulates delayed work" 2 (y.dwork 17);
  let z, _ = CM.map (CM.const_fn 3) y in
  Alcotest.(check int) "second map accumulates" 5 (z.dwork 17)

let test_force_costs () =
  let x, _ = CM.tabulate 1000 (CM.const_fn 2) in
  let y, c = CM.force ~block_size:b x in
  Alcotest.(check int) "force work = sum delayed" 2000 c.work;
  (* bmax: blocks of 64 indices, 2 span units each. *)
  Alcotest.(check int) "force span = bmax" 128 c.span;
  Alcotest.(check int) "force alloc = |X|" 1000 c.alloc;
  Alcotest.(check int) "forced is cheap" 1 (y.dwork 0);
  Alcotest.(check bool) "forced is RAD" true (y.repr = `Rad)

let test_scan_reduce_costs () =
  let x, _ = CM.tabulate 1000 CM.simple in
  let y, c = CM.scan ~block_size:b x in
  Alcotest.(check int) "scan eager work" 1000 c.work;
  Alcotest.(check int) "scan eager alloc = n/B" ((1000 + b - 1) / b) c.alloc;
  Alcotest.(check bool) "scan output BID" true (y.repr = `Bid);
  Alcotest.(check int) "scan delayed work" 2 (y.dwork 5);
  let c2 = CM.reduce ~block_size:b x in
  Alcotest.(check int) "reduce eager work" 1000 c2.work;
  Alcotest.(check int) "reduce alloc = n/B" ((1000 + b - 1) / b) c2.alloc

let test_filter_costs () =
  let x, _ = CM.tabulate 1000 CM.simple in
  let y, c = CM.filter ~block_size:b ~out_len:250 CM.simple x in
  Alcotest.(check int) "filter eager work" 2000 c.work;
  Alcotest.(check int) "filter alloc = |Y| + n/B" (250 + ((1000 + b - 1) / b)) c.alloc;
  Alcotest.(check bool) "filter output BID" true (y.repr = `Bid);
  Alcotest.(check int) "filter out length" 250 y.len

let test_zip_costs () =
  let x, _ = CM.tabulate 100 (CM.const_fn 2) in
  let y, _ = CM.tabulate 100 (CM.const_fn 3) in
  let z, c = CM.zip x y in
  Alcotest.(check int) "zip eager O(1)" 1 c.work;
  Alcotest.(check int) "zip delayed sums" 6 (z.dwork 0);
  Alcotest.(check bool) "RAD when both RAD" true (z.repr = `Rad);
  let b, _ = CM.scan ~block_size:16 x in
  let z2, _ = CM.zip x b in
  Alcotest.(check bool) "BID when one BID" true (z2.repr = `Bid)

let test_flatten_costs () =
  let outer, _ = CM.tabulate 10 CM.simple in
  let inners =
    Array.init 10 (fun i -> fst (CM.tabulate (i * 3) (CM.const_fn (i + 1))))
  in
  let y, c = CM.flatten ~block_size:b outer inners in
  Alcotest.(check int) "flatten total length" 135 y.len;
  Alcotest.(check int) "flatten eager work = outer, twice" 20 c.work;
  Alcotest.(check int) "flatten eager alloc = |X| + 1" 11 c.alloc;
  (* Element 0 lives in inner 1 (inner 0 empty): delayed work = 2. *)
  Alcotest.(check int) "delayed carried from inner" 2 (y.dwork 0);
  (* Last element lives in inner 9: delayed work = 10. *)
  Alcotest.(check int) "delayed carried (last)" 10 (y.dwork 134)

(* ------------------------------------------------------------------ *)
(* Figure 5                                                            *)

let test_figure5 () =
  let n = 1_000_000 and bb = 100 in
  let rows = CM.bestcut_rw ~n ~b:bb in
  let nr, nw, fr, fw = CM.rw_totals rows in
  (* Totals from the paper: 8n + O(b) vs 2n + O(b). *)
  Alcotest.(check int) "normal total" ((8 * n) + (5 * bb) + 1) (nr + nw);
  Alcotest.(check int) "fused total" ((2 * n) + (6 * bb) + 1) (fr + fw);
  let ratio = float_of_int (nr + nw) /. float_of_int (fr + fw) in
  Alcotest.(check bool) "~4x fewer memory ops" true (ratio > 3.9 && ratio < 4.1);
  (* Phase structure: 6 rows, three fused away. *)
  Alcotest.(check int) "rows" 6 (List.length rows);
  Alcotest.(check int) "fused-away phases" 3
    (List.length (List.filter (fun r -> r.CM.fused_reads = None) rows))

(* The same pipeline expressed with Figure 11 operations: the fused
   best-cut allocates O(b) while the force-everything version allocates
   O(n). *)
let test_bestcut_alloc_model () =
  let n = 100_000 in
  let total = ref CM.zero_cost in
  let track (s, c) =
    total := CM.add_cost !total c;
    s
  in
  (* Fused: tabulate -> map -> scan -> map -> reduce, all delayed. *)
  let x = track (CM.tabulate n CM.simple) in
  let x = track (CM.map CM.simple x) in
  let x = track (CM.scan ~block_size:b x) in
  let x = track (CM.map CM.simple x) in
  total := CM.add_cost !total (CM.reduce ~block_size:b x);
  let fused_alloc = !total.alloc in
  (* Unfused: force after every operation (the array library). *)
  total := CM.zero_cost;
  let x = track (CM.tabulate n CM.simple) in
  let x = track (CM.force ~block_size:b x) in
  let x = track (CM.map CM.simple x) in
  let x = track (CM.force ~block_size:b x) in
  let x = track (CM.scan ~block_size:b x) in
  let x = track (CM.force ~block_size:b x) in
  let x = track (CM.map CM.simple x) in
  let x = track (CM.force ~block_size:b x) in
  total := CM.add_cost !total (CM.reduce ~block_size:b x);
  let unfused_alloc = !total.alloc in
  (* Per Figure 11: fused = n + 2⌈n/B⌉ (the scan's phase-3 stream charges
     one delayed word per element); unfused = 5n + 2⌈n/B⌉. *)
  Alcotest.(check int) "fused alloc" (n + (2 * ((n + b - 1) / b))) fused_alloc;
  Alcotest.(check int) "unfused alloc" ((5 * n) + (2 * ((n + b - 1) / b))) unfused_alloc;
  let ratio = float_of_int unfused_alloc /. float_of_int fused_alloc in
  Alcotest.(check bool) "~5x less allocation when fused" true
    (ratio > 4.0 && ratio < 6.0)

(* ------------------------------------------------------------------ *)
(* §5.1 BFS bounds                                                     *)

let test_bfs_alloc_bound () =
  (* Synthetic BFS trace: frontiers partition N vertices; edge
     expansions partition M edge endpoints. *)
  let block_size = 1000 in
  let rounds =
    [ (1, 50, 10); (10, 500, 100); (100, 5000, 889); (889, 44450, 0) ]
  in
  let total_n = List.fold_left (fun a (f, _, _) -> a + f) 0 rounds in
  let total_m = List.fold_left (fun a (_, e, _) -> a + e) 0 rounds in
  let alloc = CM.bfs_total_alloc ~block_size rounds in
  (* O(N + M/B): allow constant 2 on N (frontier + next-frontier) plus
     rounding slack per round. *)
  let bound = (2 * total_n) + (total_m / block_size) + (4 * List.length rounds) in
  Alcotest.(check bool)
    (Printf.sprintf "alloc %d within O(N + M/B) bound %d" alloc bound)
    true (alloc <= bound);
  (* And far below the naive O(N + M). *)
  Alcotest.(check bool) "well below O(N+M)" true (alloc * 10 < total_n + total_m)

(* ------------------------------------------------------------------ *)
(* Model vs measured allocations of the real library                   *)

(* Measure allocated bytes on a single-domain pool (so all allocation is
   on the calling domain and the GC counters are exact): every heap with
   [Gc.allocated_bytes], or with [~major:true] the major heap alone
   (direct major allocations plus promotions, from [Gc.quick_stat]). *)
let measure_alloc ?(major = false) f =
  let bytes () =
    if major then Gc.((quick_stat ()).major_words) *. float_of_int (Sys.word_size / 8)
    else Gc.allocated_bytes ()
  in
  Bds_runtime.Runtime.set_num_domains 1;
  Fun.protect
    ~finally:(fun () -> Bds_runtime.Runtime.set_num_domains Bds_test_util.domains)
    (fun () ->
      ignore (f ());
      (* warm-up evaluated; measure second run from an empty minor heap *)
      Gc.full_major ();
      let before = bytes () in
      ignore (Sys.opaque_identity (f ()));
      (* A direct major allocation is counted at the next major slice. *)
      if major then ignore (Gc.major_slice 0 : int);
      bytes () -. before)

let words_of_bytes b = b /. float_of_int (Sys.word_size / 8)

let measure_block_size n =
  Bds_runtime.Runtime.set_num_domains 1;
  Fun.protect
    ~finally:(fun () -> Bds_runtime.Runtime.set_num_domains Bds_test_util.domains)
    (fun () -> (Bds_runtime.Runtime.block_grid n).block_size)

let test_measured_alloc_reduce () =
  let n = 300_000 in
  let delayed () = S.reduce ( + ) 0 (S.map (fun x -> x * 2) (S.iota n)) in
  let arr () =
    Bds_parray.Parray.reduce ( + ) 0
      (Bds_parray.Parray.map (fun x -> x * 2) (Bds_parray.Parray.iota n))
  in
  let da = measure_alloc delayed in
  let aa = measure_alloc arr in
  (* The array version materialises two n-word arrays; the delayed version
     allocates O(n/B) block sums. The model predicts a large gap. *)
  Alcotest.(check bool)
    (Printf.sprintf "delayed alloc %.0fB << array alloc %.0fB" da aa)
    true
    (da *. 4.0 < aa)

let test_measured_alloc_scan_pipeline () =
  let n = 300_000 in
  let delayed () =
    let sc, _ = S.scan ( + ) 0 (S.map (fun x -> x land 7) (S.iota n)) in
    S.reduce ( + ) 0 (S.map (fun x -> x + 1) sc)
  in
  let arr () =
    let open Bds_parray.Parray in
    let sc, _ = scan ( + ) 0 (map (fun x -> x land 7) (iota n)) in
    reduce ( + ) 0 (map (fun x -> x + 1) sc)
  in
  (* Same results... *)
  Bds_runtime.Runtime.set_num_domains 1;
  let r1 = delayed () and r2 = arr () in
  Bds_runtime.Runtime.set_num_domains Bds_test_util.domains;
  Alcotest.(check int) "same result" r2 r1;
  (* ...wildly different allocation. *)
  let da = measure_alloc delayed in
  let aa = measure_alloc arr in
  Alcotest.(check bool)
    (Printf.sprintf "fused scan alloc %.0fB << array %.0fB" da aa)
    true
    (da *. 4.0 < aa)

(* Allocation oracle: the packing ops put only their output (plus
   O(n/B) block bookkeeping) in the major heap, as Figure 11 charges
   them.  Budget: twice the model's words. *)
let oracle_n = 1 lsl 20

let test_filter_op_major_alloc () =
  let n = oracle_n in
  (* [measure_alloc] runs on a 1-domain pool, whose block size this is. *)
  let block_size = measure_block_size n in
  List.iter
    (fun k ->
      let select x = if x mod k = 0 then Some x else None in
      let out_len = (n + k - 1) / k in
      let measured =
        words_of_bytes (measure_alloc ~major:true (fun () -> S.filter_op select (S.iota n)))
      in
      let _, c = CM.filter ~block_size ~out_len CM.simple (fst (CM.tabulate n CM.simple)) in
      Alcotest.(check bool)
        (Printf.sprintf "keep 1/%d: major %.0f words <= 2 x model %d" k measured c.alloc)
        true
        (measured <= 2. *. float_of_int c.alloc))
    [ 2; 14 ]

let test_partition_major_alloc () =
  let n = oracle_n in
  List.iter
    (fun k ->
      let measured =
        words_of_bytes
          (measure_alloc ~major:true (fun () -> S.partition (fun x -> x mod k = 0) (S.iota n)))
      in
      Alcotest.(check bool)
        (Printf.sprintf "partition 1/%d: major %.0f words <= 2n" k measured)
        true
        (measured <= 2. *. float_of_int n))
    [ 2; 14 ]

(* A zip of two filter outputs walks both survivor masks in one loop:
   reducing it puts no more in the major heap than reducing the two
   filters separately, plus O(n/B) words of block bookkeeping.  Packing
   either side of each block into an array would add its survivors. *)
let test_zip_of_filters_major_alloc () =
  let n = oracle_n in
  let block_size = measure_block_size n in
  let evens () = S.filter (fun x -> x land 1 = 0) (S.iota n) in
  let odds () = S.filter (fun x -> x land 1 = 1) (S.iota n) in
  let zipped () = S.reduce ( + ) 0 (S.zip_with ( - ) (odds ()) (evens ())) in
  let separate () = S.reduce ( + ) 0 (evens ()) + S.reduce ( + ) 0 (odds ()) in
  Alcotest.(check int) "every odd minus its even" (n / 2) (zipped ());
  let measured = words_of_bytes (measure_alloc ~major:true zipped) in
  let budget = words_of_bytes (measure_alloc ~major:true separate) in
  let slack = 8 * (n / block_size) in
  Alcotest.(check bool)
    (Printf.sprintf "zip major %.0f words <= filters %.0f + %d" measured budget slack)
    true
    (measured <= budget +. float_of_int slack)

(* Forcing a BID folds block 0 first, using its first element as the
   [Array.make] witness, then fills the other blocks in parallel: every
   element is evaluated exactly once, and a float BID forces to a flat
   float array. *)
let test_to_array_witness () =
  let n = 1_000 in
  Fun.protect
    ~finally:(fun () -> Bds_runtime.Runtime.set_num_domains Bds_test_util.domains)
    (fun () ->
      List.iter
        (fun d ->
          Bds_runtime.Runtime.set_num_domains d;
          List.iter
            (fun (name, p) ->
              with_policy p (fun () ->
                  let tag = Printf.sprintf "d=%d %s" d name in
                  let calls = Array.make n 0 in
                  let scanned = fst (S.scan ( + ) 0 (S.iota n)) in
                  let counted =
                    S.mapi
                      (fun i x ->
                        calls.(i) <- calls.(i) + 1;
                        x)
                      scanned
                  in
                  Alcotest.(check int_array) (tag ^ " values")
                    (Array.init n (fun i -> i * (i - 1) / 2))
                    (S.to_array counted);
                  Alcotest.(check bool) (tag ^ " each element once") true
                    (Array.for_all (( = ) 1) calls);
                  let floats = S.to_array (S.map float_of_int scanned) in
                  Alcotest.(check bool) (tag ^ " flat float array") true
                    (Obj.tag (Obj.repr floats) = Obj.double_array_tag)))
            [
              ("B=1", Grain.Fixed 1);
              ("B=3", Grain.Fixed 3);
              ("B=17", Grain.Fixed 17);
              ("scaled", Grain.default_policy);
            ])
        [ 1; 2 ])

(* Flatten's spine keeps one offset per inner, not the inner [Seq.t]
   or its index function: inners built on demand by a RAD map die young,
   so none is reachable after a full major collection while the output
   lives, neither after the spine pass nor once the output has been
   emitted (the emission re-derives each inner and drops it after its
   segment). *)
let test_flatten_spine_drops_inners () =
  let n = 2_000 in
  let records = Weak.create n and fns = Weak.create n in
  let outer =
    S.map
      (fun i ->
        let get j = i + j in
        let inner = S.tabulate (i mod 4) get in
        Weak.set records i (Some inner);
        Weak.set fns i (Some get);
        inner)
      (S.iota n)
  in
  let out = S.flatten outer in
  let live weak =
    Gc.full_major ();
    let c = ref 0 in
    for i = 0 to n - 1 do
      if Weak.check weak i then incr c
    done;
    !c
  in
  Alcotest.(check int) "inner records reachable after the spine" 0 (live records);
  Alcotest.(check int) "inner index functions reachable after the spine" 0 (live fns);
  let expect = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to (i mod 4) - 1 do
      expect := !expect + i + j
    done
  done;
  Alcotest.(check int) "flatten sum" !expect (S.reduce ( + ) 0 out);
  Alcotest.(check int) "inner records reachable after emission" 0 (live records);
  Alcotest.(check int) "inner index functions reachable after emission" 0 (live fns);
  ignore (Sys.opaque_identity out)

let () =
  Alcotest.run "cost_model"
    [
      ( "figure 11",
        [
          Alcotest.test_case "tabulate/map" `Quick test_tabulate_map_delay_costs;
          Alcotest.test_case "force" `Quick test_force_costs;
          Alcotest.test_case "scan/reduce" `Quick test_scan_reduce_costs;
          Alcotest.test_case "zip" `Quick test_zip_costs;
          Alcotest.test_case "filter" `Quick test_filter_costs;
          Alcotest.test_case "flatten" `Quick test_flatten_costs;
        ] );
      ( "figure 5",
        [
          Alcotest.test_case "read/write table" `Quick test_figure5;
          Alcotest.test_case "bestcut alloc model" `Quick test_bestcut_alloc_model;
        ] );
      ("bfs (§5.1)", [ Alcotest.test_case "alloc bound" `Quick test_bfs_alloc_bound ]);
      ( "model vs reality",
        [
          Alcotest.test_case "map+reduce alloc" `Quick test_measured_alloc_reduce;
          Alcotest.test_case "scan pipeline alloc" `Quick test_measured_alloc_scan_pipeline;
        ] );
      ( "allocation oracle",
        [
          Alcotest.test_case "filter_op major <= 2x model" `Quick test_filter_op_major_alloc;
          Alcotest.test_case "partition major <= 2n" `Quick test_partition_major_alloc;
          Alcotest.test_case "flatten spine drops inners" `Quick
            test_flatten_spine_drops_inners;
          Alcotest.test_case "zip of filters major <= filters" `Quick
            test_zip_of_filters_major_alloc;
          Alcotest.test_case "to_array witness once" `Quick test_to_array_witness;
        ] );
    ]
