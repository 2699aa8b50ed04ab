(* The job-service layer: admission control, fair scheduling, deadlines,
   retry/backoff, circuit breaking, and graceful degradation.

   Everything here is bounded-time: no test waits on a job without a
   timeout, and the timeouts are generous enough for a loaded CI host
   while still catching a hang (the failure mode under test for the
   teardown suites).  Timing assertions check orders of magnitude, not
   cadences — a deadline-exceeded 50ms job must resolve well before its
   2s busy loop would, not within one scheduler tick. *)

module Service = Bds_service.Service
module Job = Bds_service.Job
module Backoff = Bds_service.Backoff
module Breaker = Bds_service.Breaker
module Fair_queue = Bds_service.Fair_queue
module Protocol = Bds_service.Protocol
module Runtime = Bds_runtime.Runtime
module Pool = Bds_runtime.Pool
module Chaos = Bds_runtime.Chaos
module Telemetry = Bds_runtime.Telemetry
open Bds_test_util

(* The shared small oversubscribed pool, unless BDS_NUM_DOMAINS sets the
   size: under BDS_NUM_DOMAINS=1 every test runs on a pool with no
   spawned worker domain. *)
let () = init ()

(* [init] leaves the pool size to BDS_NUM_DOMAINS when it is set, so the
   1-domain runtest rule and `make stress`'s sweep really run the suite
   at those counts. *)
let test_init_honours_num_domains () =
  let expected =
    match Bds_runtime.Env.pos_int "BDS_NUM_DOMAINS" with
    | Some d -> d
    | None -> domains
  in
  Alcotest.(check int) "workers" expected (Runtime.num_workers ())

(* Generous bound for "this job must resolve": catches hangs without
   flaking on slow hosts. *)
let wait_bound_s = 20.0

let wait_resolved what ticket =
  match Service.wait_timeout ticket wait_bound_s with
  | Some outcome -> outcome
  | None -> Alcotest.failf "%s: job #%d did not resolve" what (Service.id ticket)

let check_outcome what expected ticket =
  Alcotest.(check string) what expected (Job.pp_outcome (wait_resolved what ticket))

let submit_exn svc req =
  match Service.submit svc req with
  | Ok t -> t
  | Error (`Rejected r) -> Alcotest.failf "unexpected rejection: %s" (Job.reject_label r)
  | Error (`Bad_request m) -> Alcotest.failf "unexpected bad request: %s" m

let with_service ?config f =
  let svc = Service.create ?config () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) (fun () -> f svc)

let with_chaos cfg f =
  let old = Chaos.config () in
  Chaos.set_config (Some cfg);
  Fun.protect ~finally:(fun () -> Chaos.set_config old) f

(* Run [f] under the environment's chaos less the jobs kind.  For checks
   that pin one job's exact outcome: the @stress rule's jobs kind can
   cancel that job's attempts until the breaker, opened by earlier
   injected failures, sheds its retry. *)
let without_jobs_chaos f =
  match Chaos.config () with
  | Some cfg when List.mem Chaos.Jobs cfg.Chaos.kinds ->
    with_chaos { cfg with Chaos.kinds = List.filter (( <> ) Chaos.Jobs) cfg.Chaos.kinds } f
  | _ -> f ()

(* ------------------------------------------------------------------ *)
(* Backoff                                                             *)

let test_backoff_deterministic () =
  let t = Backoff.default in
  List.iter
    (fun (seed, attempt) ->
      Alcotest.(check (float 0.0))
        "same seed+attempt, same delay"
        (Backoff.delay t ~seed ~attempt)
        (Backoff.delay t ~seed ~attempt))
    [ (1, 1); (1, 2); (42, 1); (42, 7) ]

let test_backoff_bounds () =
  let t = { Backoff.base_s = 0.01; factor = 2.0; max_s = 0.1; jitter = 0.5 } in
  for attempt = 1 to 12 do
    for seed = 0 to 20 do
      let d = Backoff.delay t ~seed ~attempt in
      Alcotest.(check bool) "positive" true (d > 0.0);
      Alcotest.(check bool)
        (Printf.sprintf "capped (attempt %d: %f)" attempt d)
        true
        (d <= t.Backoff.max_s *. (1.0 +. t.Backoff.jitter))
    done
  done;
  (* Pre-cap growth: attempt 2 lies in [2*base*(1-j), 2*base*(1+j)],
     disjoint from attempt 1's [base*(1-j), base*(1+j)] only when jitter
     is small; check means instead with jitter off. *)
  let nj = { t with Backoff.jitter = 0.0 } in
  Alcotest.(check (float 1e-9)) "attempt 1 is base" 0.01 (Backoff.delay nj ~seed:5 ~attempt:1);
  Alcotest.(check (float 1e-9)) "attempt 2 doubles" 0.02 (Backoff.delay nj ~seed:5 ~attempt:2);
  Alcotest.(check (float 1e-9)) "attempt 9 hits the cap" 0.1 (Backoff.delay nj ~seed:5 ~attempt:9)

let test_backoff_decorrelated () =
  (* Different seeds should not share a retry schedule (thundering
     herd); with 0.5 jitter two equal draws are vanishingly unlikely. *)
  let t = Backoff.default in
  let d1 = Backoff.delay t ~seed:1 ~attempt:1 in
  let d2 = Backoff.delay t ~seed:2 ~attempt:1 in
  Alcotest.(check bool) "seeds decorrelate" true (d1 <> d2)

(* ------------------------------------------------------------------ *)
(* Breaker                                                             *)

let bcfg =
  { Breaker.window = 8; min_samples = 4; failure_threshold = 0.5; cooldown_s = 0.05 }

let test_breaker_opens_on_failure_rate () =
  let b = Breaker.create bcfg in
  let now = 0.0 in
  Alcotest.(check string) "starts closed" "closed"
    (Breaker.state_label (Breaker.state b ~now));
  (* Below min_samples: failures alone do not trip it. *)
  Breaker.record b ~now ~ok:false;
  Breaker.record b ~now ~ok:false;
  Breaker.record b ~now ~ok:false;
  Alcotest.(check string) "not enough samples" "closed"
    (Breaker.state_label (Breaker.state b ~now));
  Alcotest.(check bool) "closed allows retries" true (Breaker.allow_retry b ~now);
  Breaker.record b ~now ~ok:false;
  Alcotest.(check string) "4/4 failures opens" "open"
    (Breaker.state_label (Breaker.state b ~now));
  Alcotest.(check bool) "open sheds retries" false (Breaker.allow_retry b ~now)

let test_breaker_half_open_probe () =
  let b = Breaker.create bcfg in
  for _ = 1 to 4 do
    Breaker.record b ~now:0.0 ~ok:false
  done;
  Alcotest.(check bool) "still open before cooldown" false
    (Breaker.allow_retry b ~now:0.01);
  let later = 0.2 in
  Alcotest.(check bool) "first probe allowed" true (Breaker.allow_retry b ~now:later);
  Alcotest.(check bool) "second probe shed" false (Breaker.allow_retry b ~now:later);
  (* Probe succeeds: breaker closes and the window clears. *)
  Breaker.record b ~now:later ~ok:true;
  Alcotest.(check string) "probe success closes" "closed"
    (Breaker.state_label (Breaker.state b ~now:later));
  Alcotest.(check bool) "closed again" true (Breaker.allow_retry b ~now:later)

let test_breaker_reopens_on_probe_failure () =
  let b = Breaker.create bcfg in
  for _ = 1 to 4 do
    Breaker.record b ~now:0.0 ~ok:false
  done;
  Alcotest.(check bool) "probe" true (Breaker.allow_retry b ~now:0.2);
  Breaker.record b ~now:0.2 ~ok:false;
  Alcotest.(check string) "probe failure reopens" "open"
    (Breaker.state_label (Breaker.state b ~now:0.21));
  Alcotest.(check bool) "sheds again" false (Breaker.allow_retry b ~now:0.21)

let test_breaker_reset () =
  let b = Breaker.create bcfg in
  for _ = 1 to 4 do
    Breaker.record b ~now:0.0 ~ok:false
  done;
  Breaker.reset b;
  Alcotest.(check string) "closed after reset" "closed"
    (Breaker.state_label (Breaker.state b ~now:0.0));
  (* The window is empty: three failures are below min_samples. *)
  for _ = 1 to 3 do
    Breaker.record b ~now:0.0 ~ok:false
  done;
  Alcotest.(check bool) "window cleared" true (Breaker.allow_retry b ~now:0.0)

let test_breaker_mixed_rate_stays_closed () =
  let b = Breaker.create bcfg in
  (* One failure in four, so no prefix of the stream reaches the 0.5
     threshold once min_samples is met (the breaker evaluates on every
     record): 1/4, 2/8, sliding 2/8... *)
  for i = 0 to 7 do
    Breaker.record b ~now:0.0 ~ok:(i mod 4 <> 1)
  done;
  Alcotest.(check string) "below threshold" "closed"
    (Breaker.state_label (Breaker.state b ~now:0.0))

(* ------------------------------------------------------------------ *)
(* Fair queue                                                          *)

let test_fair_queue_round_robin () =
  let q = Fair_queue.create () in
  (* Tenant a floods before b and c arrive; service must interleave. *)
  List.iter (fun x -> ignore (Fair_queue.push q ~tenant:"a" x)) [ 1; 2; 3; 4 ];
  ignore (Fair_queue.push q ~tenant:"b" 10);
  ignore (Fair_queue.push q ~tenant:"c" 20);
  ignore (Fair_queue.push q ~tenant:"b" 11);
  Alcotest.(check int) "length" 7 (Fair_queue.length q);
  let order = List.init 7 (fun _ -> fst (Option.get (Fair_queue.try_take q))) in
  Alcotest.(check (list int))
    "round-robin across tenants, FIFO within"
    [ 1; 10; 20; 2; 11; 3; 4 ] order;
  Alcotest.(check (list (triple string int int)))
    "depths drained, high-water kept"
    [ ("a", 0, 4); ("b", 0, 2); ("c", 0, 1) ]
    (Fair_queue.depths q)

let test_fair_queue_close () =
  let q = Fair_queue.create () in
  Alcotest.(check bool) "push before close" true (Fair_queue.push q ~tenant:"a" 1);
  Fair_queue.close q;
  Alcotest.(check bool) "push after close" false (Fair_queue.push q ~tenant:"a" 2);
  Alcotest.(check (option int))
    "drains queued" (Some 1)
    (Option.map fst (Fair_queue.try_take q));
  Alcotest.(check (option int))
    "then None" None
    (Option.map fst (Fair_queue.try_take q))

let test_fair_queue_try_take () =
  let q = Fair_queue.create () in
  Alcotest.(check (option int)) "empty gives None" None
    (Option.map fst (Fair_queue.try_take q));
  List.iter (fun x -> ignore (Fair_queue.push q ~tenant:"a" x)) [ 1; 2 ];
  ignore (Fair_queue.push q ~tenant:"b" 10);
  let take () = Option.map fst (Fair_queue.try_take q) in
  let first = take () in
  let second = take () in
  Fair_queue.close q;
  let third = take () in
  Alcotest.(check (list (option int)))
    "round-robin, then drained after close"
    [ Some 1; Some 10; Some 2; None ]
    [ first; second; third; take () ]

let test_fair_queue_drain () =
  let q = Fair_queue.create () in
  List.iter (fun x -> ignore (Fair_queue.push q ~tenant:"a" x)) [ 1; 2 ];
  ignore (Fair_queue.push q ~tenant:"b" 3);
  Alcotest.(check (list int)) "drain round-robin" [ 1; 3; 2 ] (Fair_queue.drain q);
  Alcotest.(check int) "empty after drain" 0 (Fair_queue.length q)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)

let test_protocol_round_trip () =
  List.iter
    (fun line ->
      match Protocol.parse_command line with
      | Error e -> Alcotest.failf "parse %S: %s" line e
      | Ok cmd -> Alcotest.(check string) "round trip" line (Protocol.render_command cmd))
    [
      "SUBMIT sum n=1000";
      "SUBMIT busy tenant=alice deadline_ms=50 ms=2000";
      "POST fail retries=3 k=2";
      "WAIT 7";
      "STATS";
      "QUIT";
    ]

let test_protocol_reserved_keys () =
  match Protocol.parse_command "SUBMIT sum tenant=bob deadline_ms=40 retries=2 n=5" with
  | Error e -> Alcotest.fail e
  | Ok (Protocol.Submit r) ->
    Alcotest.(check string) "tenant" "bob" r.Job.tenant;
    Alcotest.(check (option int)) "deadline" (Some 40) r.Job.deadline_ms;
    Alcotest.(check (option int)) "retries" (Some 2) r.Job.retries;
    Alcotest.(check (list (pair string string))) "params" [ ("n", "5") ] r.Job.params
  | Ok _ -> Alcotest.fail "wrong command"

let test_protocol_errors () =
  List.iter
    (fun line ->
      match Protocol.parse_command line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" line)
    [ ""; "FROB x"; "SUBMIT"; "SUBMIT sum n"; "SUBMIT sum =v"; "WAIT"; "WAIT x"; "STATS now" ]

let test_protocol_responses () =
  let cases =
    [
      (Protocol.render_outcome (Job.Completed "42"), Protocol.R_outcome (Job.Completed "42"));
      (Protocol.render_outcome (Job.Failed "boom boom"), Protocol.R_outcome (Job.Failed "boom boom"));
      (Protocol.render_outcome Job.Cancelled, Protocol.R_outcome Job.Cancelled);
      (Protocol.render_outcome Job.Deadline_exceeded, Protocol.R_outcome Job.Deadline_exceeded);
      (Protocol.render_reject Job.Overloaded, Protocol.R_rejected Job.Overloaded);
      (Protocol.render_reject Job.Shutting_down, Protocol.R_rejected Job.Shutting_down);
      (Protocol.render_accepted 12, Protocol.R_accepted 12);
      (Protocol.render_bad "no\nsuch", Protocol.R_bad "no such");
      ("BYE", Protocol.R_bye);
    ]
  in
  List.iter
    (fun (line, expected) ->
      match Protocol.parse_response line with
      | Error e -> Alcotest.failf "parse response %S: %s" line e
      | Ok r -> Alcotest.(check bool) line true (r = expected))
    cases

(* ------------------------------------------------------------------ *)
(* Service semantics                                                   *)

let test_submit_completes () =
  with_service (fun svc ->
      let echo = submit_exn svc (Job.request ~params:[ ("msg", "hi") ] "echo") in
      check_outcome "echo" "completed(hi)" echo;
      let sum = submit_exn svc (Job.request ~params:[ ("n", "10000") ] "sum") in
      (* Same pipeline Workload.sum_pipeline computes. *)
      let expected =
        Bds.Seq.(reduce ( + ) 0 (map (fun x -> (x * 7) land 1023) (iota 10000)))
      in
      check_outcome "sum" (Printf.sprintf "completed(%d)" expected) sum)

let test_bad_request () =
  with_service (fun svc ->
      (match Service.submit svc (Job.request "nosuch") with
      | Error (`Bad_request _) -> ()
      | _ -> Alcotest.fail "unknown kind must be Bad_request");
      match Service.submit svc (Job.request ~params:[ ("n", "banana") ] "sum") with
      | Error (`Bad_request _) -> ()
      | _ -> Alcotest.fail "malformed param must be Bad_request")

let test_terminal_failure () =
  with_service (fun svc ->
      let t = submit_exn svc (Job.request "boom") in
      match wait_resolved "boom" t with
      | Job.Failed msg ->
        Alcotest.(check bool) ("payload: " ^ msg) true
          (String.length msg > 0)
      | o -> Alcotest.failf "expected Failed, got %s" (Job.pp_outcome o))

let test_overloaded_typed_rejection () =
  let config = { Service.default_config with Service.capacity = 1; runners = 1 } in
  with_service ~config (fun svc ->
      let before = Telemetry.snapshot () in
      let first = submit_exn svc (Job.request ~params:[ ("ms", "100") ] "busy") in
      (match Service.submit svc (Job.request "echo") with
      | Error (`Rejected Job.Overloaded) -> ()
      | Ok _ -> Alcotest.fail "second job must be shed at capacity 1"
      | Error e ->
        Alcotest.failf "wrong rejection: %s"
          (match e with
          | `Rejected r -> Job.reject_label r
          | `Bad_request m -> m));
      let d = Telemetry.diff ~before ~after:(Telemetry.snapshot ()) in
      Alcotest.(check int) "shed counted" 1 d.Telemetry.s_jobs_shed;
      check_outcome "first still completes" "completed(busy 100ms)" first)

let test_deadline_running_job () =
  with_service (fun svc ->
      let t0 = Unix.gettimeofday () in
      let t =
        submit_exn svc (Job.request ~params:[ ("ms", "2000") ] ~deadline_ms:50 "busy")
      in
      check_outcome "deadline fires" "deadline_exceeded" t;
      let elapsed = Unix.gettimeofday () -. t0 in
      (* Must return promptly after the 50ms deadline — far before the
         2s busy loop.  0.5s leaves room for a loaded CI host. *)
      Alcotest.(check bool)
        (Printf.sprintf "returned in %.0fms" (elapsed *. 1000.))
        true (elapsed < 0.5))

let test_deadline_queued_job () =
  (* One runner occupied by a long busy job: the queued job's deadline
     passes while it waits, and the monitor resolves it directly without
     an attempt ever running. *)
  let config = { Service.default_config with Service.capacity = 8; runners = 1 } in
  with_service ~config (fun svc ->
      let blocker = submit_exn svc (Job.request ~params:[ ("ms", "300") ] "busy") in
      let t0 = Unix.gettimeofday () in
      let queued =
        submit_exn svc (Job.request ~params:[ ("n", "1000") ] ~deadline_ms:20 "sum")
      in
      check_outcome "queued job deadline" "deadline_exceeded" queued;
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "resolved while blocker still running (%.0fms)" (elapsed *. 1000.))
        true (elapsed < 0.25);
      check_outcome "blocker unaffected" "completed(busy 300ms)" blocker)

let test_cancel_running_job () =
  with_service (fun svc ->
      let t = submit_exn svc (Job.request ~params:[ ("ms", "2000") ] "busy") in
      Thread.delay 0.02;
      let t0 = Unix.gettimeofday () in
      Service.cancel svc t;
      check_outcome "cancelled" "cancelled" t;
      Alcotest.(check bool) "cancel is prompt" true (Unix.gettimeofday () -. t0 < 0.5))

let test_cancel_queued_job () =
  let config = { Service.default_config with Service.capacity = 8; runners = 1 } in
  with_service ~config (fun svc ->
      let blocker = submit_exn svc (Job.request ~params:[ ("ms", "100") ] "busy") in
      let queued = submit_exn svc (Job.request ~params:[ ("n", "1000") ] "sum") in
      Service.cancel svc queued;
      check_outcome "queued cancel is immediate" "cancelled" queued;
      check_outcome "blocker unaffected" "completed(busy 100ms)" blocker)

let test_retry_transient_then_success () =
  without_jobs_chaos (fun () ->
      with_service (fun svc ->
          let before = Telemetry.snapshot () in
          let t =
            submit_exn svc (Job.request ~params:[ ("k", "2"); ("n", "1000") ] "fail")
          in
          (match wait_resolved "fail k=2" t with
          | Job.Completed _ -> ()
          | o -> Alcotest.failf "expected completion after retries, got %s" (Job.pp_outcome o));
          Alcotest.(check int) "used both retries" 2 (Service.For_testing.retries_used t);
          let d = Telemetry.diff ~before ~after:(Telemetry.snapshot ()) in
          Alcotest.(check int) "retries counted" 2 d.Telemetry.s_jobs_retried))

let test_retry_budget_exhausted () =
  with_service (fun svc ->
      let t =
        submit_exn svc
          (Job.request ~params:[ ("k", "99") ] ~retries:1 "fail")
      in
      match wait_resolved "fail k=99" t with
      | Job.Failed msg ->
        Alcotest.(check bool) ("mentions exhaustion: " ^ msg) true
          (String.length msg >= 17 && String.sub msg 0 17 = "retries exhausted")
      | o -> Alcotest.failf "expected Failed, got %s" (Job.pp_outcome o))

let test_breaker_sheds_retries () =
  (* A tiny window and a long cooldown: a burst of always-failing jobs
     trips the breaker, after which further retries are shed and the
     jobs fail fast with the typed retry-shed error. *)
  let config =
    {
      Service.default_config with
      Service.runners = 1;
      max_retries = 4;
      breaker =
        { Breaker.window = 4; min_samples = 2; failure_threshold = 0.5; cooldown_s = 60.0 };
    }
  in
  with_service ~config (fun svc ->
      let before = Telemetry.snapshot () in
      let tickets =
        List.init 4 (fun _ ->
            submit_exn svc (Job.request ~params:[ ("k", "99") ] "fail"))
      in
      let outcomes = List.map (wait_resolved "failing burst") tickets in
      let shed =
        List.filter
          (function
            | Job.Failed msg ->
              String.length msg >= 10 && String.sub msg 0 10 = "retry shed"
            | _ -> false)
          outcomes
      in
      Alcotest.(check bool) "breaker shed at least one retry" true (List.length shed >= 1);
      List.iter
        (function
          | Job.Failed _ -> ()
          | o -> Alcotest.failf "all must fail, got %s" (Job.pp_outcome o))
        outcomes;
      let d = Telemetry.diff ~before ~after:(Telemetry.snapshot ()) in
      Alcotest.(check bool) "retries_shed counted" true (d.Telemetry.s_jobs_retries_shed >= 1))

let test_on_complete_exactly_once () =
  with_service (fun svc ->
      let hits = Atomic.make 0 in
      let t =
        match
          Service.submit svc
            ~on_complete:(fun _ -> Atomic.incr hits)
            (Job.request ~params:[ ("msg", "cb") ] "echo")
        with
        | Ok t -> t
        | Error _ -> Alcotest.fail "submit failed"
      in
      ignore (wait_resolved "callback job" t);
      (* The callback runs on the resolving thread; give it a beat. *)
      let rec settle n =
        if Atomic.get hits = 0 && n > 0 then begin
          Thread.delay 0.01;
          settle (n - 1)
        end
      in
      settle 100;
      Alcotest.(check int) "exactly one callback" 1 (Atomic.get hits);
      Alcotest.(check int) "exactly one completion" 1 (Service.For_testing.completions t))

let test_shutdown_drains () =
  let svc = Service.create () in
  let tickets =
    List.init 8 (fun i ->
        submit_exn svc (Job.request ~params:[ ("n", string_of_int (1000 * (i + 1))) ] "sum"))
  in
  Service.shutdown svc;
  List.iter
    (fun t ->
      match Service.peek t with
      | Some (Job.Completed _) -> ()
      | Some o -> Alcotest.failf "drained job should complete, got %s" (Job.pp_outcome o)
      | None -> Alcotest.fail "job unresolved after drain shutdown")
    tickets;
  match Service.submit svc (Job.request "echo") with
  | Error (`Rejected Job.Shutting_down) -> ()
  | _ -> Alcotest.fail "submit after shutdown must be Shutting_down"

let test_shutdown_no_drain_cancels () =
  let config = { Service.default_config with Service.capacity = 16; runners = 1 } in
  let svc = Service.create ~config () in
  let blocker = submit_exn svc (Job.request ~params:[ ("ms", "100") ] "busy") in
  let queued =
    List.init 6 (fun _ -> submit_exn svc (Job.request ~params:[ ("ms", "100") ] "busy"))
  in
  Service.shutdown ~drain:false svc;
  (* Everything resolved; the queued jobs were cancelled, not run. *)
  List.iter
    (fun t ->
      match Service.peek t with
      | Some Job.Cancelled -> ()
      | Some o -> Alcotest.failf "queued job should cancel, got %s" (Job.pp_outcome o)
      | None -> Alcotest.fail "job unresolved after no-drain shutdown")
    queued;
  match Service.peek blocker with
  | Some (Job.Completed _ | Job.Cancelled) -> ()
  | Some o -> Alcotest.failf "blocker: unexpected %s" (Job.pp_outcome o)
  | None -> Alcotest.fail "blocker unresolved"

(* Voluntary context switches summed over the process's threads, read
   from Linux's /proc/self/task. *)
let voluntary_switches () =
  let key = "voluntary_ctxt_switches:" in
  let of_task tid =
    In_channel.with_open_text ("/proc/self/task/" ^ tid ^ "/status") (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> 0
          | Some l when String.starts_with ~prefix:key l ->
            let n = String.length key in
            int_of_string (String.trim (String.sub l n (String.length l - n)))
          | Some _ -> go ()
        in
        go ())
  in
  Array.fold_left
    (fun acc tid -> acc + (try of_task tid with Sys_error _ -> 0))
    0 (Sys.readdir "/proc/self/task")

(* A running job must not hold the threads of the domain that submitted
   it.  2 ms sleeps return on time (median of five) on the submitting
   thread and on a second client thread while a 40 ms job runs.  And no
   service thread wakes while a job runs: a 45 ms window with a 40 ms
   job running costs the process fewer than 60 voluntary context
   switches more than an idle 45 ms window (median of five rounds;
   checked where /proc is).  Runner threads that blocked on the attempt
   were woken at every monitor tick and passed the domain's runtime lock
   back and forth: 80-151 switches more at 2-4 domains, and the
   submitting thread's sleeps woke 1.5-5 ms late when a job finished
   during them.  Needs a worker domain, so a 1-domain pool is swapped
   for a 2-domain one for the test's duration. *)
let test_running_job_frees_submitter () =
  let workers = Runtime.num_workers () in
  if workers < 2 then Runtime.set_num_domains 2;
  Fun.protect
    ~finally:(fun () -> if workers < 2 then Runtime.set_num_domains workers)
    (fun () ->
      let config = { Service.default_config with Service.poll_cadence_s = 0.001 } in
      with_service ~config (fun svc ->
          let busy_40ms () = submit_exn svc (Job.request ~params:[ ("ms", "40") ] "busy") in
          let median xs = List.nth (List.sort compare xs) (List.length xs / 2) in
          let timed_sleeps () =
            List.init 5 (fun _ ->
                let t0 = Unix.gettimeofday () in
                Thread.delay 0.002;
                Unix.gettimeofday () -. t0)
          in
          let job = busy_40ms () in
          let on_client = ref [] in
          let client = Thread.create (fun () -> on_client := timed_sleeps ()) () in
          let on_submitter = timed_sleeps () in
          Thread.join client;
          List.iter
            (fun (who, sleeps) ->
              let took = median sleeps in
              Alcotest.(check bool)
                (Printf.sprintf "2 ms sleeps on the %s took %.1f ms (median)" who (took *. 1000.))
                true (took < 0.020))
            [ ("submitting thread", on_submitter); ("client thread", !on_client) ];
          ignore (wait_resolved "busy 40ms" job);
          if Sys.file_exists "/proc/self/task" then begin
            let window f =
              let s0 = voluntary_switches () in
              let r = f () in
              Thread.delay 0.045;
              (voluntary_switches () - s0, r)
            in
            let excess =
              List.init 5 (fun _ ->
                  let idle, () = window ignore in
                  let running, job = window busy_40ms in
                  ignore (wait_resolved "busy 40ms" job);
                  running - idle)
            in
            Alcotest.(check bool)
              (Printf.sprintf
                 "voluntary context switches while a job runs, over an idle window: %s"
                 (String.concat ", " (List.map string_of_int excess)))
              true
              (median excess < 60)
          end))

(* ------------------------------------------------------------------ *)
(* Degradation: pool death under the service                           *)

(* Every admitted job resolves to exactly one terminal outcome even when
   the backing pool is torn down / poisoned mid-flight, within a bounded
   time, and the service keeps serving afterwards on a healed pool. *)
let check_all_resolve_exactly_once what tickets =
  List.iter
    (fun t ->
      ignore (wait_resolved what t);
      Alcotest.(check int)
        (Printf.sprintf "%s: job #%d exactly-once" what (Service.id t))
        1
        (Service.For_testing.completions t))
    tickets

let mixed_request i =
  match i mod 4 with
  | 0 -> Job.request ~params:[ ("ms", "20") ] "busy"
  | 1 -> Job.request ~params:[ ("n", "20000") ] "sum"
  | 2 -> Job.request ~params:[ ("k", "1"); ("n", "1000") ] "fail"
  | _ -> Job.request ~params:[ ("ms", "30") ] ~deadline_ms:15 "busy"

(* A mixed batch: every resolved job is aggregated in the latency
   breakdown, whose components (queue wait, attempt run time, backoff)
   never exceed the wall time by more than clock reads straddling their
   edges (5%), and without chaos explain at least half of it.  The
   outcomes partition the admitted jobs. *)
let check_mixed_batch_breakdown () =
  let config = { Service.default_config with Service.capacity = 64; runners = 4 } in
  let before = Telemetry.snapshot () in
  let bk =
    with_service ~config (fun svc ->
        let tickets = List.init 24 (fun i -> submit_exn svc (mixed_request i)) in
        check_all_resolve_exactly_once "mixed batch" tickets;
        (* Accounting follows the outcome; shutdown waits for it. *)
        Service.shutdown svc;
        Service.latency_breakdown svc)
  in
  let d = Telemetry.diff ~before ~after:(Telemetry.snapshot ()) in
  let resolved =
    d.Telemetry.s_jobs_completed + d.Telemetry.s_jobs_failed
    + d.Telemetry.s_jobs_cancelled + d.Telemetry.s_jobs_deadline_exceeded
  in
  Alcotest.(check int) "admitted" 24 d.Telemetry.s_jobs_admitted;
  Alcotest.(check int) "outcomes partition admitted jobs" d.Telemetry.s_jobs_admitted resolved;
  Alcotest.(check int) "every job in the breakdown" 24 bk.Service.bk_jobs;
  let accounted = bk.Service.bk_queue_ns + bk.Service.bk_run_ns + bk.Service.bk_backoff_ns in
  let frac = float_of_int accounted /. float_of_int (Int.max 1 bk.Service.bk_wall_ns) in
  Alcotest.(check bool)
    (Printf.sprintf "components are %.1f%% of wall (<= 105%%)" (100.0 *. frac))
    true (frac <= 1.05);
  if Chaos.config () = None then
    Alcotest.(check bool)
      (Printf.sprintf "components are %.1f%% of wall without chaos (>= 50%%)" (100.0 *. frac))
      true (frac >= 0.5)

let test_mixed_batch_breakdown () = check_mixed_batch_breakdown ()

let test_pool_teardown_with_inflight_jobs () =
  let config = { Service.default_config with Service.capacity = 64; runners = 4 } in
  let before = Telemetry.snapshot () in
  let svc = Service.create ~config () in
  let tickets = List.init 24 (fun i -> submit_exn svc (mixed_request i)) in
  (* Tear the shared pool down while jobs are queued and running. *)
  Thread.delay 0.01;
  Runtime.shutdown ();
  check_all_resolve_exactly_once "teardown" tickets;
  (* The service healed itself: new work completes. *)
  without_jobs_chaos (fun () ->
      let after_death = submit_exn svc (Job.request ~params:[ ("msg", "alive") ] "echo") in
      check_outcome "keeps serving after teardown" "completed(alive)" after_death);
  Service.shutdown svc;
  let d = Telemetry.diff ~before ~after:(Telemetry.snapshot ()) in
  let resolved =
    d.Telemetry.s_jobs_completed + d.Telemetry.s_jobs_failed
    + d.Telemetry.s_jobs_cancelled + d.Telemetry.s_jobs_deadline_exceeded
  in
  Alcotest.(check int) "outcomes partition admitted jobs" d.Telemetry.s_jobs_admitted resolved

let test_worker_crash_fails_fast_and_heals () =
  let config = { Service.default_config with Service.capacity = 64; runners = 2 } in
  with_service ~config (fun svc ->
      let tickets =
        List.init 8 (fun _ -> submit_exn svc (Job.request ~params:[ ("ms", "50") ] "busy"))
      in
      Thread.delay 0.01;
      (* Crash a worker domain: an exception escapes the scheduler and
         poisons the pool. *)
      let pool = Runtime.get_pool () in
      Pool.For_testing.inject_raw_task pool (fun () -> failwith "injected worker crash");
      check_all_resolve_exactly_once "worker crash" tickets;
      (* The crash task waits in the overflow queue while the workers
         chain attempts through their own deques, so it can land after
         the last ticket: wait for it, or the echo below can be
         dispatched to the pool it is about to poison. *)
      let stop_at = Unix.gettimeofday () +. wait_bound_s in
      while Pool.health pool = `Ok && Unix.gettimeofday () < stop_at do
        Thread.delay 0.001
      done;
      Alcotest.(check bool) "injected crash poisoned the pool" true
        (match Pool.health pool with `Poisoned _ -> true | _ -> false);
      (* In-flight jobs either completed before the poison landed or
         failed fast with a typed error — never hung, never lost. *)
      List.iter
        (fun t ->
          match Service.peek t with
          | Some (Job.Completed _ | Job.Failed _) -> ()
          | Some o -> Alcotest.failf "unexpected outcome %s" (Job.pp_outcome o)
          | None -> assert false)
        tickets;
      let after = submit_exn svc (Job.request ~params:[ ("msg", "healed") ] "echo") in
      check_outcome "keeps serving after crash" "completed(healed)" after)

(* Two services share the global pool.  After one teardown each heals
   onto the same fresh pool: neither tears down the pool the other one
   installed (which would repeat at every monitor tick, failing the
   other's attempts), and both keep serving. *)
let test_two_services_heal_once () =
  let degraded svc =
    let n = Atomic.make 0 in
    Service.on_degrade svc (fun _ -> Atomic.incr n);
    n
  in
  let echo svc msg = submit_exn svc (Job.request ~params:[ ("msg", msg) ] "echo") in
  with_service (fun a ->
      with_service (fun b ->
          let da = degraded a and db = degraded b in
          check_outcome "a before teardown" "completed(a1)" (echo a "a1");
          check_outcome "b before teardown" "completed(b1)" (echo b "b1");
          Runtime.shutdown ();
          check_outcome "a after teardown" "completed(a2)" (echo a "a2");
          check_outcome "b after teardown" "completed(b2)" (echo b "b2");
          let fresh = Runtime.get_pool () in
          (* Some 25 monitor ticks of each service. *)
          Thread.delay 0.05;
          Alcotest.(check bool) "the fresh pool outlives both monitors" true
            (Runtime.get_pool () == fresh && Pool.health fresh = `Ok);
          Alcotest.(check (pair int int)) "each service healed once" (1, 1)
            (Atomic.get da, Atomic.get db);
          check_outcome "a still serving" "completed(a3)" (echo a "a3");
          check_outcome "b still serving" "completed(b3)" (echo b "b3")))

(* ------------------------------------------------------------------ *)
(* Chaos: the jobs fault kind                                          *)

(* The acceptance-criteria stress: under jobs-kind chaos, every admitted
   job still reaches exactly one terminal outcome (retries absorb the
   injected cancels, deadlines still fire, nothing hangs or double
   completes). *)
let test_chaos_jobs_exactly_once () =
  with_chaos
    { Chaos.seed = 3; p = 0.3; kinds = [ Chaos.Jobs ] }
    (fun () ->
      let config = { Service.default_config with Service.capacity = 64; runners = 4 } in
      let before = Telemetry.snapshot () in
      with_service ~config (fun svc ->
          let tickets = List.init 40 (fun i -> submit_exn svc (mixed_request i)) in
          check_all_resolve_exactly_once "chaos jobs" tickets);
      let d = Telemetry.diff ~before ~after:(Telemetry.snapshot ()) in
      let resolved =
        d.Telemetry.s_jobs_completed + d.Telemetry.s_jobs_failed
        + d.Telemetry.s_jobs_cancelled + d.Telemetry.s_jobs_deadline_exceeded
      in
      Alcotest.(check int) "outcomes partition admitted jobs" d.Telemetry.s_jobs_admitted
        resolved)

(* Trace round trip: tracing a chaos run must yield one connected
   admit→outcome flow per admitted job — retries, injected cancels and
   deadline resolutions included.  Service.shutdown flushes the
   recorder, so the file is complete once with_service returns. *)
let test_chaos_trace_round_trip () =
  with_chaos
    { Chaos.seed = 5; p = 0.25; kinds = [ Chaos.Jobs ] }
    (fun () ->
      let module Trace = Bds_runtime.Trace in
      let path = Filename.temp_file "bds_service_trace" ".json" in
      Trace.set_output (Some path);
      Trace.reset ();
      let before = Telemetry.snapshot () in
      let config =
        { Service.default_config with Service.capacity = 64; runners = 4 }
      in
      Fun.protect ~finally:(fun () -> Trace.set_output None) (fun () ->
          with_service ~config (fun svc ->
              let tickets =
                List.init 24 (fun i -> submit_exn svc (mixed_request i))
              in
              check_all_resolve_exactly_once "traced chaos jobs" tickets));
      let d = Telemetry.diff ~before ~after:(Telemetry.snapshot ()) in
      (match Trace.flows_of_file path with
      | Error e -> Alcotest.fail ("trace unreadable: " ^ e)
      | Ok (flows, disconnected) ->
        Alcotest.(check (list int)) "every flow connected" [] disconnected;
        Alcotest.(check int)
          "one flow per admitted job" d.Telemetry.s_jobs_admitted flows);
      Sys.remove path)

(* The breakdown bound and the outcome identity hold under jobs chaos
   too: injected cancels add retries and backoff, which the components
   must still account within the wall time. *)
let test_chaos_mixed_batch_breakdown () =
  with_chaos { Chaos.seed = 7; p = 0.2; kinds = [ Chaos.Jobs ] } check_mixed_batch_breakdown

let test_chaos_point_job_off_by_default () =
  with_chaos
    { Chaos.seed = 1; p = 1.0; kinds = [ Chaos.Delay; Chaos.Starve ] }
    (fun () ->
      (* The jobs fault point only fires for the jobs kind. *)
      for _ = 1 to 50 do
        match Chaos.point_job () with
        | `None -> ()
        | `Cancel _ | `Delay _ -> Alcotest.fail "point_job fired without jobs kind"
      done)

let test_chaos_point_job_fires () =
  with_chaos
    { Chaos.seed = 7; p = 1.0; kinds = [ Chaos.Jobs ] }
    (fun () ->
      let cancels = ref 0 and delays = ref 0 in
      for _ = 1 to 50 do
        match Chaos.point_job () with
        | `Cancel _ -> incr cancels
        | `Delay d ->
          Alcotest.(check bool) "delay bounded" true (d > 0.0 && d <= 0.02);
          incr delays
        | `None -> Alcotest.fail "p=1.0 must fire"
      done;
      Alcotest.(check bool) "both fault flavours occur" true (!cancels > 0 && !delays > 0))

(* Randomized bounded-time teardown property: whatever the (seeded) mix
   of job kinds and the teardown delay, every admitted job resolves to
   exactly one terminal outcome — the pool dying mid-flight included. *)
let qcheck_teardown_exactly_once =
  QCheck2.Test.make ~count:8 ~name:"service teardown resolves every job exactly once"
    QCheck2.Gen.(pair (int_range 4 16) (int_range 0 10))
    (fun (jobs, delay_ms) ->
      let config = { Service.default_config with Service.capacity = 32; runners = 3 } in
      let svc = Service.create ~config () in
      let tickets = List.init jobs (fun i -> submit_exn svc (mixed_request i)) in
      Thread.delay (float_of_int delay_ms /. 1000.);
      Runtime.shutdown ();
      let ok =
        List.for_all
          (fun t ->
            match Service.wait_timeout t wait_bound_s with
            | Some _ -> Service.For_testing.completions t = 1
            | None -> false)
          tickets
      in
      Service.shutdown svc;
      ok)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "service"
    [
      ( "backoff",
        [
          Alcotest.test_case "deterministic per seed+attempt" `Quick test_backoff_deterministic;
          Alcotest.test_case "bounds and growth" `Quick test_backoff_bounds;
          Alcotest.test_case "seeds decorrelate" `Quick test_backoff_decorrelated;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "opens on failure rate" `Quick test_breaker_opens_on_failure_rate;
          Alcotest.test_case "half-open single probe" `Quick test_breaker_half_open_probe;
          Alcotest.test_case "reopens on probe failure" `Quick
            test_breaker_reopens_on_probe_failure;
          Alcotest.test_case "mixed rate stays closed" `Quick
            test_breaker_mixed_rate_stays_closed;
          Alcotest.test_case "reset closes and clears" `Quick test_breaker_reset;
        ] );
      ( "fair queue",
        [
          Alcotest.test_case "round-robin across tenants" `Quick test_fair_queue_round_robin;
          Alcotest.test_case "close semantics" `Quick test_fair_queue_close;
          Alcotest.test_case "try_take" `Quick test_fair_queue_try_take;
          Alcotest.test_case "drain" `Quick test_fair_queue_drain;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "request round trip" `Quick test_protocol_round_trip;
          Alcotest.test_case "reserved keys" `Quick test_protocol_reserved_keys;
          Alcotest.test_case "parse errors" `Quick test_protocol_errors;
          Alcotest.test_case "response round trip" `Quick test_protocol_responses;
        ] );
      ( "service",
        [
          Alcotest.test_case "init honours BDS_NUM_DOMAINS" `Quick
            test_init_honours_num_domains;
          Alcotest.test_case "submit completes" `Quick test_submit_completes;
          Alcotest.test_case "bad request" `Quick test_bad_request;
          Alcotest.test_case "terminal failure" `Quick test_terminal_failure;
          Alcotest.test_case "typed Overloaded at capacity" `Quick
            test_overloaded_typed_rejection;
          Alcotest.test_case "deadline on running job" `Quick test_deadline_running_job;
          Alcotest.test_case "deadline on queued job" `Quick test_deadline_queued_job;
          Alcotest.test_case "cancel running job" `Quick test_cancel_running_job;
          Alcotest.test_case "cancel queued job" `Quick test_cancel_queued_job;
          Alcotest.test_case "retry then success" `Quick test_retry_transient_then_success;
          Alcotest.test_case "retry budget exhausted" `Quick test_retry_budget_exhausted;
          Alcotest.test_case "breaker sheds retries" `Quick test_breaker_sheds_retries;
          Alcotest.test_case "on_complete exactly once" `Quick test_on_complete_exactly_once;
          Alcotest.test_case "shutdown drains" `Quick test_shutdown_drains;
          Alcotest.test_case "shutdown without drain cancels" `Quick
            test_shutdown_no_drain_cancels;
          Alcotest.test_case "running job frees the submitter" `Quick
            test_running_job_frees_submitter;
          Alcotest.test_case "mixed batch: breakdown and outcomes" `Quick
            test_mixed_batch_breakdown;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "pool teardown with in-flight jobs" `Quick
            test_pool_teardown_with_inflight_jobs;
          Alcotest.test_case "worker crash fails fast and heals" `Quick
            test_worker_crash_fails_fast_and_heals;
          Alcotest.test_case "two services heal onto one fresh pool" `Quick
            test_two_services_heal_once;
        ] );
      ( "chaos jobs kind",
        [
          Alcotest.test_case "exactly-once under jobs chaos" `Quick
            test_chaos_jobs_exactly_once;
          Alcotest.test_case "trace round trip (connected flows)" `Quick
            test_chaos_trace_round_trip;
          Alcotest.test_case "mixed batch breakdown under jobs chaos" `Quick
            test_chaos_mixed_batch_breakdown;
          Alcotest.test_case "point_job needs the jobs kind" `Quick
            test_chaos_point_job_off_by_default;
          Alcotest.test_case "point_job fires at p=1" `Quick test_chaos_point_job_fires;
        ] );
      ( "teardown property",
        [ QCheck_alcotest.to_alcotest ~long:false qcheck_teardown_exactly_once ] );
    ]
