(* The benchmark's summary statistics and span self times. *)

let close = Alcotest.(check (float 1e-9))

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  close "median" 50. (Stats.median xs);
  close "p99" 99. (Stats.percentile xs 99.);
  close "p100" 100. (Stats.percentile xs 100.);
  close "one sample" 7. (Stats.median [ 7. ])

(* The tail is p75 from 40 samples on (ten beyond it), else the
   median. *)
let test_tail () =
  let check n p = close (Printf.sprintf "%d samples" n) p (Stats.tail_percentile n) in
  check 41 75.;
  check 40 75.;
  check 39 50.;
  check 10_000 75.;
  check 5 50.;
  let n = 40 in
  let beyond = n - Stats.rank ~n (Stats.tail_percentile n) in
  Alcotest.(check bool) "ten beyond" true (beyond >= 10)

let test_geomean () =
  close "two" 4. (Stats.geomean [ 2.; 8. ]);
  close "equal" 3. (Stats.geomean [ 3.; 3.; 3. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.geomean: no values") (fun () ->
      ignore (Stats.geomean []))

let test_self_time () =
  close "no children" 10. (Stats.self_time ~t0:0. ~t1:10. []);
  close "disjoint" 5. (Stats.self_time ~t0:0. ~t1:10. [ (1., 3.); (5., 8.) ]);
  close "overlapping children count once" 4. (Stats.self_time ~t0:0. ~t1:10. [ (1., 5.); (3., 7.) ]);
  close "clipped to the parent" 8. (Stats.self_time ~t0:0. ~t1:10. [ (-5., 1.); (9., 20.) ])

(* Nested spans recorded through the recorder: workload > round >
   kernel, with a job on its own lane. *)
let test_nested_spans () =
  Spans.set_enabled true;
  Spans.with_span "workload" (fun () ->
      Spans.with_span "round" (fun () ->
          Spans.with_span "kernel:a" (fun () -> Unix.sleepf 0.002);
          Spans.with_span "kernel:b" (fun () -> Unix.sleepf 0.002)));
  Spans.record ~floating:true ~flow:99 ~id:99 ~parent:0 "job" ~t0:0. ~t1:1.;
  Spans.record ~floating:true ~id:100 ~parent:99 "submit" ~t0:0.2 ~t1:0.4;
  Spans.set_enabled false;
  let spans = Spans.spans () in
  let self = Spans.self_times spans in
  let find name = List.find (fun s -> s.Spans.name = name) spans in
  let self_of name = List.assoc (find name).Spans.id self in
  Alcotest.(check int) "spans" 6 (List.length spans);
  List.iter
    (fun (_, s) -> Alcotest.(check bool) "self time >= 0" true (s >= 0.))
    self;
  let round = find "round" in
  close "round self = round - kernels"
    (round.t1 -. round.t0 -. List.fold_left (fun s k -> s +. (k.Spans.t1 -. k.Spans.t0)) 0.
       [ find "kernel:a"; find "kernel:b" ])
    (self_of "round");
  close "job self" 0.8 (self_of "job");
  Alcotest.(check int) "parent" (find "workload").id round.parent;
  let summary = Spans.summary spans in
  Alcotest.(check (list string)) "summary names"
    [ "job"; "kernel:a"; "kernel:b"; "round"; "submit"; "workload" ]
    (List.map (fun (n, _, _, _) -> n) summary)

let () =
  Alcotest.run "benchmark stats"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "tail with ten beyond" `Quick test_tail;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "self time of nested spans" `Quick test_nested_spans;
        ] );
    ]
