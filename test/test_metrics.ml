(* Unit tests for the service-observability substrate: the labeled
   metrics registry and its OpenMetrics exposition/validator
   (lib/runtime/metrics.ml), and the flight recorder ring and its dump
   validator (lib/runtime/flight.ml).

   The registry is process-global, so tests use distinct family names
   and call [Metrics.reset] where a clean slate matters; the validator
   tests feed hand-written expositions, which keeps the negative cases
   (unsorted labels, non-monotone buckets) independent of the
   renderer. *)

module Metrics = Bds_runtime.Metrics
module Flight = Bds_runtime.Flight
module Telemetry = Bds_runtime.Telemetry

let contains s sub =
  let sl = String.length s and bl = String.length sub in
  let rec at i = i + bl <= sl && (String.sub s i bl = sub || at (i + 1)) in
  at 0

let check_contains what body sub =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %S in exposition" what sub)
    true (contains body sub)

let check_valid what body =
  match Metrics.validate_string body with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Printf.sprintf "%s: exposition invalid: %s" what e)

(* ------------------------------------------------------------------ *)
(* Registry and renderer                                               *)

let test_counter_render () =
  let f = Metrics.family ~help:"test requests" ~kind:Metrics.Counter
      "bds_test_requests"
  in
  Metrics.incr f ~labels:[ ("tenant", "a") ];
  Metrics.incr ~by:2 f ~labels:[ ("tenant", "b") ];
  Metrics.incr f ~labels:[ ("tenant", "a") ];
  let body = Metrics.render () in
  check_contains "type line" body "# TYPE bds_test_requests counter\n";
  check_contains "help line" body "# HELP bds_test_requests test requests\n";
  check_contains "series a" body "bds_test_requests_total{tenant=\"a\"} 2\n";
  check_contains "series b" body "bds_test_requests_total{tenant=\"b\"} 2\n";
  check_contains "telemetry bridge" body "# TYPE bds_runtime_";
  check_contains "uptime gauge" body "# TYPE bds_uptime_seconds gauge\n";
  check_contains "terminator" body "# EOF\n";
  check_valid "counter exposition" body

let test_label_ordering_and_escaping () =
  let f = Metrics.family ~kind:Metrics.Gauge "bds_test_escape" in
  (* Labels given out of order; value needs all three escapes. *)
  Metrics.set f ~labels:[ ("zone", "z\\1\"x\ny"); ("app", "bds") ] 4.5;
  let body = Metrics.render () in
  check_contains "sorted labels, escaped value" body
    "bds_test_escape{app=\"bds\",zone=\"z\\\\1\\\"x\\ny\"} 4.5\n";
  check_valid "escaped exposition" body

let test_histogram_render () =
  let f = Metrics.family ~kind:Metrics.Histogram "bds_test_latency_seconds" in
  Metrics.observe_ns f ~labels:[ ("op", "map") ] 1_000;
  Metrics.observe_ns f ~labels:[ ("op", "map") ] 2_000_000;
  Metrics.observe_ns f ~labels:[ ("op", "map") ] 2_000_000_000;
  let body = Metrics.render () in
  check_contains "histogram type" body
    "# TYPE bds_test_latency_seconds histogram\n";
  check_contains "+Inf bucket counts all" body
    "bds_test_latency_seconds_bucket{le=\"+Inf\",op=\"map\"} 3\n";
  check_contains "count" body "bds_test_latency_seconds_count{op=\"map\"} 3\n";
  check_contains "sum" body "bds_test_latency_seconds_sum{op=\"map\"} ";
  check_valid "histogram exposition" body

let test_family_misuse () =
  let f = Metrics.family ~kind:Metrics.Counter "bds_test_misuse" in
  let raises what g =
    match g () with
    | () -> Alcotest.fail (what ^ ": expected Invalid_argument")
    | exception Invalid_argument _ -> ()
  in
  raises "kind mismatch" (fun () ->
      ignore (Metrics.family ~kind:Metrics.Gauge "bds_test_misuse"));
  raises "set on counter" (fun () -> Metrics.set f ~labels:[] 1.0);
  raises "reserved le" (fun () -> Metrics.incr f ~labels:[ ("le", "x") ]);
  raises "bad label name" (fun () -> Metrics.incr f ~labels:[ ("9x", "v") ]);
  raises "duplicate label" (fun () ->
      Metrics.incr f ~labels:[ ("a", "1"); ("a", "2") ]);
  raises "bad family name" (fun () ->
      ignore (Metrics.family ~kind:Metrics.Counter "9bad"));
  raises "counter named _total" (fun () ->
      ignore (Metrics.family ~kind:Metrics.Counter "bds_test_x_total"))

let test_cardinality_cap () =
  let f = Metrics.family ~kind:Metrics.Counter "bds_test_cardinality" in
  for i = 0 to Metrics.max_series + 49 do
    Metrics.incr f ~labels:[ ("tenant", Printf.sprintf "t%05d" i) ]
  done;
  let body = Metrics.render () in
  check_contains "drops counted" body "bds_metrics_dropped_series_total 50\n";
  check_valid "capped exposition" body;
  (* Reset clears values and drop counts but keeps families. *)
  Metrics.reset ();
  let body = Metrics.render () in
  check_contains "drops cleared" body "bds_metrics_dropped_series_total 0\n"

(* ------------------------------------------------------------------ *)
(* Validator on hand-written expositions                               *)

let invalid what body fragment =
  match Metrics.validate_string body with
  | Ok _ -> Alcotest.fail (what ^ ": invalid exposition accepted")
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: error %S mentions %S" what e fragment)
      true (contains e fragment)

let test_validator_rejects () =
  invalid "missing EOF" "# TYPE a counter\na_total 1\n" "# EOF";
  invalid "undeclared sample" "b_total 1\n# EOF\n" "no matching TYPE";
  invalid "unsorted labels"
    "# TYPE a counter\na_total{z=\"1\",a=\"2\"} 1\n# EOF\n" "sorted";
  invalid "counter without _total" "# TYPE a counter\na 1\n# EOF\n"
    "no matching TYPE";
  invalid "bad escape" "# TYPE a gauge\na{l=\"x\\t\"} 1\n# EOF\n" "escape";
  invalid "redeclared family" "# TYPE a gauge\n# TYPE a counter\n# EOF\n"
    "duplicate TYPE";
  invalid "non-monotone buckets"
    ("# TYPE h histogram\n" ^ "h_bucket{le=\"0.1\"} 3\n"
   ^ "h_bucket{le=\"0.2\"} 2\n" ^ "h_bucket{le=\"+Inf\"} 3\n" ^ "h_count 3\n"
   ^ "h_sum 0.4\n" ^ "# EOF\n")
    "cumulative";
  invalid "le not increasing"
    ("# TYPE h histogram\n" ^ "h_bucket{le=\"0.2\"} 1\n"
   ^ "h_bucket{le=\"0.1\"} 2\n" ^ "h_bucket{le=\"+Inf\"} 2\n" ^ "h_count 2\n"
   ^ "h_sum 0.3\n" ^ "# EOF\n")
    "increasing";
  invalid "count mismatch"
    ("# TYPE h histogram\n" ^ "h_bucket{le=\"+Inf\"} 2\n" ^ "h_count 3\n"
   ^ "h_sum 0.3\n" ^ "# EOF\n")
    "count";
  invalid "text after EOF" "# TYPE a gauge\n# EOF\na 1\n" "after # EOF"

let test_validator_accepts () =
  let body =
    "# HELP h a histogram\n# TYPE h histogram\n"
    ^ "h_bucket{le=\"0.1\",op=\"x\"} 1\n" ^ "h_bucket{le=\"+Inf\",op=\"x\"} 2\n"
    ^ "h_count{op=\"x\"} 2\n" ^ "h_sum{op=\"x\"} 0.25\n" ^ "# TYPE g gauge\n"
    ^ "g{a=\"1\"} -0.5\n" ^ "# EOF\n"
  in
  match Metrics.validate_string body with
  | Ok n -> Alcotest.(check int) "sample count" 5 n
  | Error e -> Alcotest.fail ("valid exposition rejected: " ^ e)

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)

let test_flight_ring_wrap () =
  let t = Flight.create ~capacity:3 () in
  for i = 1 to 5 do
    Flight.record t ~reason:(Printf.sprintf "r%d" i)
  done;
  Alcotest.(check int) "recorded counts all" 5 (Flight.recorded t);
  Alcotest.(check int) "capacity" 3 (Flight.capacity t);
  let snaps = Flight.snapshots t in
  Alcotest.(check (list int))
    "oldest overwritten, seq preserved" [ 3; 4; 5 ]
    (List.map (fun s -> s.Flight.f_seq) snaps);
  Alcotest.(check (list string))
    "reasons follow" [ "r3"; "r4"; "r5" ]
    (List.map (fun s -> s.Flight.f_reason) snaps);
  match Flight.validate (Flight.dump_json t) with
  | Ok n -> Alcotest.(check int) "dump validates with 3 snapshots" 3 n
  | Error e -> Alcotest.fail ("wrapped dump invalid: " ^ e)

let test_flight_dump_file () =
  let t = Flight.create ~capacity:8 () in
  Flight.record t ~reason:"start" ~extra:[ ("queue_depth", 2.0) ];
  Flight.record t ~reason:"shutdown";
  let path = Filename.temp_file "bds_flight" ".json" in
  Flight.dump_file t path;
  (match Flight.validate_file path with
  | Ok n -> Alcotest.(check int) "file dump validates" 2 n
  | Error e -> Alcotest.fail ("file dump invalid: " ^ e));
  Sys.remove path

let test_flight_guards () =
  (match Flight.create ~capacity:1 () with
  | _ -> Alcotest.fail "capacity 1 accepted"
  | exception Invalid_argument _ -> ());
  (match Flight.validate "not json" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  (* A tampered dump — a gap in seq — must be rejected. *)
  let t = Flight.create ~capacity:4 () in
  Flight.record t ~reason:"a";
  Flight.record t ~reason:"b";
  let dump = Flight.dump_json t in
  let tampered =
    (* replace the second snapshot's "seq":2 with "seq":7 *)
    let b = Buffer.create (String.length dump) in
    let i = ref 0 in
    let n = String.length dump in
    let pat = "\"seq\":2" in
    while !i < n do
      if
        !i + String.length pat <= n
        && String.sub dump !i (String.length pat) = pat
      then begin
        Buffer.add_string b "\"seq\":7";
        i := !i + String.length pat
      end
      else begin
        Buffer.add_char b dump.[!i];
        incr i
      end
    done;
    Buffer.contents b
  in
  match Flight.validate tampered with
  | Ok _ -> Alcotest.fail "seq gap accepted"
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "error mentions seq (%s)" e)
      true (contains e "seq")

(* A snapshot carries exactly the Telemetry counters, in their order,
   and the dump holds nothing beyond them and the embedder's gauges. *)
let test_flight_counters_are_telemetry () =
  let t = Flight.create ~capacity:4 () in
  Flight.record t ~reason:"probe";
  let keys =
    match Flight.snapshots t with
    | [ s ] -> List.map fst s.Flight.f_counters
    | l -> Alcotest.failf "expected 1 snapshot, got %d" (List.length l)
  in
  Alcotest.(check (list string)) "telemetry keys"
    (List.map fst (Telemetry.to_assoc (Telemetry.snapshot ())))
    keys;
  Alcotest.(check bool) "no adapt object" false
    (contains (Flight.dump_json t) "adapt")

let test_uptime_monotone () =
  let u1 = Telemetry.uptime_ns () in
  let u2 = Telemetry.uptime_ns () in
  Alcotest.(check bool) "uptime does not go backwards" true (u2 >= u1);
  Alcotest.(check bool) "uptime positive" true (u1 >= 0)

let () =
  Alcotest.run "metrics"
    [
      ( "registry",
        [
          Alcotest.test_case "counter render" `Quick test_counter_render;
          Alcotest.test_case "label ordering + escaping" `Quick
            test_label_ordering_and_escaping;
          Alcotest.test_case "histogram render" `Quick test_histogram_render;
          Alcotest.test_case "family misuse" `Quick test_family_misuse;
          Alcotest.test_case "cardinality cap" `Quick test_cardinality_cap;
        ] );
      ( "validator",
        [
          Alcotest.test_case "rejects malformed" `Quick test_validator_rejects;
          Alcotest.test_case "accepts well-formed" `Quick
            test_validator_accepts;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring wrap" `Quick test_flight_ring_wrap;
          Alcotest.test_case "dump file" `Quick test_flight_dump_file;
          Alcotest.test_case "guards" `Quick test_flight_guards;
          Alcotest.test_case "counters are telemetry" `Quick
            test_flight_counters_are_telemetry;
          Alcotest.test_case "uptime monotone" `Quick test_uptime_monotone;
        ] );
    ]
