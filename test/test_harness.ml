(* The measurement/reporting harness itself: tables, ratios, SVG
   rendering, the registry, and measurement sanity. *)

module H = Bds_harness
open Bds_test_util

let () = init ()

let test_tables () =
  let s =
    H.Tables.render
      ~headers:[ "name"; "a"; "bb" ]
      ~rows:[ [ "x"; "1"; "2" ]; [ "longer"; "10"; "3" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "line count" 4 (List.length lines);
  (* All lines equal width (fixed layout). *)
  let widths = List.map String.length lines in
  List.iter (fun w -> Alcotest.(check int) "aligned" (List.hd widths) w) widths;
  Alcotest.(check bool) "contains header" true
    (String.length (List.hd lines) > 0)

let test_ratio () =
  Alcotest.(check string) "normal" "2.00" (H.Tables.ratio 4.0 2.0);
  Alcotest.(check string) "inf" "inf" (H.Tables.ratio 1.0 0.0);
  Alcotest.(check string) "both zero" "-" (H.Tables.ratio 0.0 0.0)

let test_svg () =
  let svg =
    H.Svg_plot.render ~title:"t" ~xlabel:"x" ~ylabel:"y"
      [
        { H.Svg_plot.label = "s1"; points = [ (1.0, 1.0); (2.0, 4.0); (3.0, 9.0) ] };
        { H.Svg_plot.label = "s2"; points = [ (1.0, 2.0); (2.0, 2.0); (3.0, 2.0) ] };
      ]
  in
  let contains needle =
    let n = String.length needle and m = String.length svg in
    let rec go i = i + n <= m && (String.sub svg i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "svg root" true (contains "<svg");
  Alcotest.(check bool) "closes" true (contains "</svg>");
  Alcotest.(check int) "one polyline per series" 2
    (let rec count i acc =
       if i + 9 > String.length svg then acc
       else if String.sub svg i 9 = "<polyline" then count (i + 9) (acc + 1)
       else count (i + 1) acc
     in
     count 0 0);
  Alcotest.(check bool) "legend labels" true (contains ">s1<" && contains ">s2<")

let test_svg_degenerate () =
  (* Single point, constant series: must not divide by zero. *)
  let svg =
    H.Svg_plot.render ~title:"t" ~xlabel:"x" ~ylabel:"y"
      [ { H.Svg_plot.label = "only"; points = [ (5.0, 3.0) ] } ]
  in
  Alcotest.(check bool) "renders" true (String.length svg > 100);
  Alcotest.(check bool) "no nan" true
    (not
       (let rec go i =
          i + 3 <= String.length svg && (String.sub svg i 3 = "nan" || go (i + 1))
        in
        go 0))

let test_registry () =
  Alcotest.(check int) "bid benches" 5 (List.length H.Registry.bid_benches);
  Alcotest.(check int) "rad benches" 8 (List.length H.Registry.rad_benches);
  Alcotest.(check bool) "ext benches" true (List.length H.Registry.ext_benches >= 5);
  List.iter
    (fun (b : H.Registry.bench) ->
      Alcotest.(check bool)
        (b.name ^ " findable")
        true
        (match H.Registry.find b.name with Some x -> x == b | None -> false);
      (* Tiny run of every registered version must complete. *)
      let versions = b.prepare (min 2000 b.default_size) in
      Alcotest.(check bool) (b.name ^ " has versions") true (List.length versions >= 2);
      List.iter (fun v -> v.H.Registry.run ()) versions)
    H.Registry.all;
  Alcotest.(check bool) "unknown" true (H.Registry.find "no-such-bench" = None)

(* Every version of a bench computes the same result: the registry
   wires each name to its own library's kernel, so the figures compare
   the same work.  Each run is read from freshly zeroed sinks; float
   results may differ by the reassociation of a parallel reduction. *)
let test_versions_agree (b : H.Registry.bench) () =
  let result (v : H.Registry.version) =
    H.Registry.sink_int := 0;
    H.Registry.sink_float := 0.0;
    v.run ();
    (v.vname, !H.Registry.sink_int, !H.Registry.sink_float)
  in
  match List.map result (b.prepare (min 2000 b.default_size)) with
  | [] -> Alcotest.fail (b.name ^ ": no versions")
  | (v0, i0, f0) :: rest ->
    List.iter
      (fun (v, i, f) ->
        Alcotest.(check int) (Printf.sprintf "%s int result = %s's" v v0) i0 i;
        Alcotest.(check (float (1e-9 *. Float.abs f0)))
          (Printf.sprintf "%s float result = %s's" v v0)
          f0 f)
      rest

let test_measure () =
  let a =
    H.Measure.alloc_single_domain (fun () ->
        Sys.opaque_identity (Array.make 200_000 0))
  in
  (* A 200k-word array is a major-heap allocation: ~1.6MB. *)
  Alcotest.(check bool)
    (Printf.sprintf "alloc %.0f covers array" a)
    true
    (a >= 1_500_000.0 && a < 10_000_000.0);
  Alcotest.(check string) "pp_time ms" "12.00ms" (H.Measure.pp_time 0.012);
  Alcotest.(check string) "pp_bytes" "1.5KB" (H.Measure.pp_bytes 1536.0)

let test_rounds_order () =
  let log = ref [] in
  let point name = H.Measure.point name (fun () -> log := name :: !log) in
  let timed = H.Measure.rounds ~repeat:3 [ point "a"; point "b" ] in
  Alcotest.(check (list string)) "one warm-up call per point, then a b a b"
    [ "a"; "b"; "a"; "b"; "a"; "b"; "a"; "b" ]
    (List.rev !log);
  Alcotest.(check (list string)) "names in order" [ "a"; "b" ] (List.map fst timed);
  List.iter
    (fun (name, (m : H.Measure.timed)) ->
      Alcotest.(check int) (name ^ " timed calls") 3 m.calls)
    timed

let test_rounds_calls () =
  let calls = ref 0 in
  let timed =
    H.Measure.rounds ~warmup:2 ~repeat:5 [ H.Measure.point "p" (fun () -> incr calls) ]
  in
  Alcotest.(check int) "warmup + repeat calls" 7 !calls;
  Alcotest.(check int) "timed calls" 5 (snd (List.hd timed)).H.Measure.calls

(* The timed calls sleep 2, 20 and 20 ms: the best is the short one, not
   a mean, and no timed call is faster than it. *)
let test_rounds_best () =
  let sleeps = ref [ 0.0; 0.002; 0.02; 0.02 ] in
  let nap () =
    match !sleeps with
    | d :: rest ->
      sleeps := rest;
      Unix.sleepf d
    | [] -> Alcotest.fail "more calls than planned"
  in
  match H.Measure.rounds ~repeat:3 [ H.Measure.point "nap" nap ] with
  | [ (_, m) ] ->
    Alcotest.(check bool) (Printf.sprintf "best %.4f >= 2 ms" m.best_s) true (m.best_s >= 0.002);
    Alcotest.(check bool) (Printf.sprintf "best %.4f < 20 ms" m.best_s) true (m.best_s < 0.02);
    Alcotest.(check bool)
      (Printf.sprintf "total %.4f covers the three calls" m.total_s)
      true (m.total_s >= 0.042);
    Alcotest.(check bool) "best <= every call" true
      (m.best_s *. float_of_int m.calls <= m.total_s)
  | _ -> Alcotest.fail "one point, one result"

(* Counters cover the timed calls only, not the warm-up: a point that
   spawns [k] tasks per call on a private pool reads [repeat] times what
   one call spawns.  One call spawns its [k] tasks plus the resume of
   its suspended await, the same count every call on a pool with no
   other domain.  The rounds run inside [Pool.run], whose own root task
   is then spawned outside them. *)
let test_rounds_counters () =
  let module Pool = Bds_runtime.Pool in
  let module T = Bds_runtime.Telemetry in
  let pool = Pool.create ~num_additional_domains:0 () in
  let k = 7 and repeat = 4 in
  let spawn () = List.iter (Pool.await pool) (List.init k (fun _ -> Pool.async pool ignore)) in
  let per_call, timed =
    Fun.protect
      ~finally:(fun () -> Pool.teardown pool)
      (fun () ->
        Pool.run pool (fun () ->
            let before = T.snapshot () in
            spawn ();
            let one = (T.diff ~before ~after:(T.snapshot ())).T.s_tasks_spawned in
            (one, H.Measure.rounds ~warmup:2 ~repeat [ H.Measure.point "spawn" spawn ])))
  in
  Alcotest.(check bool) (Printf.sprintf "one call spawns %d >= k" per_call) true (per_call >= k);
  let m = snd (List.hd timed) in
  Alcotest.(check int) "tasks spawned" (per_call * repeat)
    m.H.Measure.counters.T.s_tasks_spawned;
  Alcotest.(check bool) "not clamped" false m.H.Measure.clamped

(* Setup and teardown run around every call, outside the timed window. *)
let test_rounds_setup () =
  let inside = ref false and calls_inside = ref 0 in
  let timed =
    H.Measure.rounds ~repeat:3
      [
        H.Measure.point "slow setup"
          ~setup:(fun () ->
            Unix.sleepf 0.02;
            inside := true)
          ~teardown:(fun () ->
            inside := false;
            Unix.sleepf 0.02)
          (fun () -> if !inside then incr calls_inside);
      ]
  in
  let m = snd (List.hd timed) in
  Alcotest.(check int) "every call between setup and teardown" 4 !calls_inside;
  Alcotest.(check bool) "teardown ran" false !inside;
  Alcotest.(check bool) (Printf.sprintf "best %.4f < 20 ms" m.H.Measure.best_s) true
    (m.H.Measure.best_s < 0.02)

let () =
  Alcotest.run "harness"
    [
      ( "tables",
        [
          Alcotest.test_case "render" `Quick test_tables;
          Alcotest.test_case "ratio" `Quick test_ratio;
        ] );
      ( "svg",
        [
          Alcotest.test_case "render" `Quick test_svg;
          Alcotest.test_case "degenerate" `Quick test_svg_degenerate;
        ] );
      ("registry", [ Alcotest.test_case "all benches" `Quick test_registry ]);
      ( "versions agree",
        List.map
          (fun (b : H.Registry.bench) ->
            Alcotest.test_case b.name `Quick (test_versions_agree b))
          H.Registry.all );
      ( "measure",
        [
          Alcotest.test_case "alloc and printing" `Quick test_measure;
          Alcotest.test_case "rounds are round-robin" `Quick test_rounds_order;
          Alcotest.test_case "rounds call count" `Quick test_rounds_calls;
          Alcotest.test_case "rounds best call" `Quick test_rounds_best;
          Alcotest.test_case "rounds count timed calls only" `Quick test_rounds_counters;
          Alcotest.test_case "rounds setup untimed" `Quick test_rounds_setup;
        ] );
    ]
