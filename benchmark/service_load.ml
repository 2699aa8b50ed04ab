(* The service-mix workload: open-loop load on the job service from one
   generator thread, in two fixed-cadence phases.  Every job is timed
   from the moment it was due, so a stalled generator shows up as
   latency instead of hiding it. *)

module Service = Bds_service.Service
module Job = Bds_service.Job
module Telemetry = Bds_runtime.Telemetry
module Splitmix = Bds_data.Splitmix

let n = 100_000
let deadline_ms = 250
let tenants = [| "tenant-a"; "tenant-b"; "tenant-c"; "tenant-d" |]
let light_rate = 150.
let overload_rate = 1200.

let config =
  { Service.default_config with Service.runners = 2; Service.capacity = 64 }

type kind = Sum | Scan | Filter | Fail_once

let request ~tenant kind =
  let params k = ("n", string_of_int n) :: k in
  match kind with
  | Sum -> Job.request ~params:(params []) ~tenant ~deadline_ms "sum"
  | Scan -> Job.request ~params:(params []) ~tenant ~deadline_ms "scan"
  | Filter -> Job.request ~params:(params []) ~tenant ~deadline_ms "filter"
  | Fail_once -> Job.request ~params:(params [ ("k", "1") ]) ~tenant ~deadline_ms "fail"

(* The pipelines' results, computed without the library: scan and
   filter in closed form, sum (of (7x mod 1024)) by a plain loop. *)
let expected =
  let sum = ref 0 in
  for x = 0 to n - 1 do
    sum := !sum + ((x * 7) land 1023)
  done;
  let sum = string_of_int !sum in
  function
  | Sum | Fail_once -> sum
  | Scan -> string_of_int ((n - 1) * n * (n + 1) / 6)
  | Filter ->
    let m = (n + 1) / 2 in
    string_of_int (m * (m - 1))

(* [count] jobs in the mix 40% sum, 30% scan, 0.5% fail-once and the
   rest filter, shuffled by the seed, each with a seeded tenant. *)
let schedule ~seed count =
  let share p = int_of_float (Float.round (p *. float_of_int count)) in
  let kinds =
    Array.concat
      [
        Array.make (share 0.4) Sum;
        Array.make (share 0.3) Scan;
        Array.make (share 0.005) Fail_once;
      ]
  in
  let kinds = Array.append kinds (Array.make (count - Array.length kinds) Filter) in
  for i = count - 1 downto 1 do
    let j = Splitmix.int_range_at ~seed ~bound:(i + 1) i in
    let t = kinds.(i) in
    kinds.(i) <- kinds.(j);
    kinds.(j) <- t
  done;
  Array.mapi
    (fun i k -> (k, tenants.(Splitmix.int_range_at ~seed:(seed + 1) ~bound:4 i)))
    kinds

type job = {
  kind : kind;
  due : float;  (** ns *)
  mutable submit_t0 : float;
  mutable submit_t1 : float;
  mutable admitted : bool;
  mutable done_at : float;
  mutable outcome : Job.outcome option;
}

type phase = {
  jobs : job array;
  bare_s : float;
      (** seconds of a job's own work: the job kinds run bare on the
          pool's worker domain, interleaved with the load, weighted by
          the mix *)
  t0 : float;  (** ns, the first due time *)
  resolved_by : float;  (** ns, the last outcome *)
  lost : int;  (** admitted jobs with no outcome *)
  wrong : int;  (** completed with a wrong payload *)
  breakdown : Service.breakdown;  (** over this phase's jobs *)
  counters : Telemetry.snapshot;
}

let ok j = match j.outcome with Some (Job.Completed s) -> s = expected j.kind | _ -> false

(* How long an admitted job may take to resolve before it counts as
   lost: its deadline plus a wide margin for the monitor. *)
let lost_after_s = 5.

let diff_breakdown (a : Service.breakdown) (b : Service.breakdown) =
  Service.
    {
      bk_jobs = b.bk_jobs - a.bk_jobs;
      bk_wall_ns = b.bk_wall_ns - a.bk_wall_ns;
      bk_queue_ns = b.bk_queue_ns - a.bk_queue_ns;
      bk_run_ns = b.bk_run_ns - a.bk_run_ns;
      bk_backoff_ns = b.bk_backoff_ns - a.bk_backoff_ns;
    }

(* The job bodies, run without the service. *)
let bare_bodies =
  lazy
    (List.map
       (fun kind ->
         match Bds_service.Workload.build (request ~tenant:tenants.(0) kind) with
         | Ok body -> (kind, fun () -> ignore (body ~attempt:1 : string))
         | Error e -> failwith e)
       [ Sum; Scan; Filter ])

(* The mix-weighted median of bare runs of each kind. *)
let bare_seconds runs =
  let kinds = [ (Sum, 0.4); (Scan, 0.3); (Filter, 0.295) ] in
  let weighted =
    List.filter_map
      (fun (kind, share) ->
        match List.filter_map (fun (k, t) -> if k = kind then Some t else None) runs with
        | [] -> None
        | ts -> Some (share, share *. Stats.median ts))
      kinds
  in
  List.fold_left (fun s (_, t) -> s +. t) 0. weighted
  /. List.fold_left (fun s (w, _) -> s +. w) 0. weighted

(* Offer [rate] jobs per second for [seconds], each at its due time,
   and after every [bare_every]th submission run that job's body bare on
   the worker domain, where jobs run: the yardstick latency and capacity
   are reported against, so that the service-mix metrics measure what
   the service adds to its jobs' own work.  [tick] runs between
   submissions (the traced run polls GC events there).  Returns once
   every admitted job has resolved or is lost. *)
let run_phase ?(tick = ignore) svc ~seed ~rate ~seconds ~bare_every name =
  Spans.with_span name @@ fun () ->
  let phase_span = !Spans.current in
  let plan = schedule ~seed (int_of_float (rate *. seconds)) in
  let resolved = Atomic.make 0 and bare = ref [] in
  let bk0 = Service.latency_breakdown svc and c0 = Telemetry.snapshot () in
  let t0 = Spans.now_ns () +. 1e6 in
  let period = 1e9 /. rate in
  let jobs =
    Array.mapi
      (fun i (kind, tenant) ->
        let due = t0 +. (float_of_int i *. period) in
        let j =
          { kind; due; submit_t0 = 0.; submit_t1 = 0.; admitted = false; done_at = 0.; outcome = None }
        in
        let wait = (due -. Spans.now_ns ()) /. 1e9 in
        if wait > 0. then Thread.delay wait;
        j.submit_t0 <- Spans.now_ns ();
        let on_complete o =
          j.done_at <- Spans.now_ns ();
          j.outcome <- Some o;
          Atomic.incr resolved
        in
        (match Service.submit ~on_complete svc (request ~tenant kind) with
        | Ok _ -> j.admitted <- true
        | Error _ -> ());
        j.submit_t1 <- Spans.now_ns ();
        (match List.assoc_opt kind (Lazy.force bare_bodies) with
        | Some body when i mod bare_every = 0 ->
          let run () = snd (Spans.timed body) in
          bare := (kind, Bds_runtime.Pool.async_external (Bds_runtime.Runtime.get_pool ()) run) :: !bare
        | _ -> ());
        tick ();
        j)
      plan
  in
  let admitted = Array.fold_left (fun n j -> if j.admitted then n + 1 else n) 0 jobs in
  let give_up = Spans.now_ns () +. (lost_after_s *. 1e9) in
  while Atomic.get resolved < admitted && Spans.now_ns () < give_up do
    tick ();
    Thread.delay 0.001
  done;
  let resolved_now = Atomic.get resolved in
  let resolved_by =
    Array.fold_left (fun m j -> if j.outcome <> None then Float.max m j.done_at else m) t0 jobs
  in
  Array.iter
    (fun j ->
      let id = Spans.fresh_id () in
      let t1 =
        if not j.admitted then j.submit_t1
        else if j.outcome = None then Spans.now_ns ()
        else Float.max j.done_at j.submit_t1
      in
      let outcome =
        match j.outcome with
        | Some o -> Job.outcome_label o
        | None -> if j.admitted then "lost" else "shed"
      in
      Spans.record ~floating:true ~flow:id ~id ~parent:phase_span "job"
        ~args:(Printf.sprintf {|"outcome":"%s"|} outcome)
        ~t0:(Spans.ns_to_us j.due) ~t1:(Spans.ns_to_us t1);
      Spans.record ~floating:true ~id:(Spans.fresh_id ()) ~parent:id "submit"
        ~t0:(Spans.ns_to_us j.submit_t0) ~t1:(Spans.ns_to_us j.submit_t1))
    jobs;
  {
    jobs;
    bare_s =
      bare_seconds
        (List.filter_map
           (fun (kind, p) ->
             match Bds_runtime.Pool.peek p with Some (Ok t) -> Some (kind, t) | _ -> None)
           !bare);
    t0;
    resolved_by;
    lost = admitted - resolved_now;
    wrong =
      Array.fold_left
        (fun n j -> match j.outcome with Some (Job.Completed _) when not (ok j) -> n + 1 | _ -> n)
        0 jobs;
    breakdown = diff_breakdown bk0 (Service.latency_breakdown svc);
    counters = Telemetry.diff ~before:c0 ~after:(Telemetry.snapshot ());
  }

(* A job that did not complete correctly never meets a latency limit. *)
let latencies_ms p =
  Array.to_list p.jobs
  |> List.map (fun j -> if ok j then (j.done_at -. j.due) /. 1e6 else infinity)

let late_ms p = Array.to_list p.jobs |> List.map (fun j -> (j.submit_t0 -. j.due) /. 1e6)
let submit_us p = Array.to_list p.jobs |> List.map (fun j -> (j.submit_t1 -. j.submit_t0) /. 1e3)
let offered p = Array.length p.jobs
let correct p = Array.fold_left (fun n j -> if ok j then n + 1 else n) 0 p.jobs

(* Correct completions per second, from the first due time to the last
   outcome. *)
let capacity_per_s p = float_of_int (correct p) /. ((p.resolved_by -. p.t0) /. 1e9)

type run = {
  light : phase;
  overload : phase;
  light_major_bytes : float;  (** major-heap bytes allocated in the light phase *)
  light_minor_words : float;
}

(* Two thirds of [seconds] at the light rate, then a third at the
   overload rate.  Bare runs take about 4% of the worker's time in
   either phase. *)
let measure ?tick svc ~seed ~seconds =
  let q0 = Gc.quick_stat () in
  let light =
    run_phase ?tick svc ~seed ~rate:light_rate ~seconds:(seconds *. 2. /. 3.) ~bare_every:8
      "phase:light"
  in
  let q1 = Gc.quick_stat () in
  let overload =
    run_phase ?tick svc ~seed:(seed + 7) ~rate:overload_rate ~seconds:(seconds /. 3.)
      ~bare_every:60 "phase:overload"
  in
  {
    light;
    overload;
    light_major_bytes = 8. *. (q1.major_words -. q0.major_words);
    light_minor_words = q1.minor_words -. q0.minor_words;
  }

(* Overload capacity times a job's bare seconds: the share of the
   worker's time the service keeps busy with job work. *)
let throughput_rel r = capacity_per_s r.overload *. r.overload.bare_s

(* Light-phase jobs [measure] offers for [seconds]: fixes the tail
   percentile. *)
let light_jobs ~seconds = int_of_float (light_rate *. seconds *. 2. /. 3.)

(* Closed-loop warm-up: a few jobs of every kind that does not sleep in
   retry backoff, one at a time. *)
let warm_up svc =
  List.iter
    (fun kind ->
      for _ = 1 to 5 do
        match Service.submit svc (request ~tenant:tenants.(0) kind) with
        | Ok tk -> ignore (Service.wait tk : Job.outcome)
        | Error _ -> ()
      done)
    [ Sum; Scan; Filter ]

(* About a light-phase [bare_s] on a quiet run of the 2-vCPU host this
   benchmark was built on: the host speed setup_s is scaled to.  It sets
   only the scale of setup_s. *)
let nominal_bare_s = 1.7e-3
