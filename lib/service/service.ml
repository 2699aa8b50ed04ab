(* The multi-tenant job scheduler (see service.mli and docs/SERVICE.md).

   Threading model.  No runner threads: an attempt is dispatched by
   whichever thread makes a slot useful, with [Pool.async] (a worker's
   own deque from a thunk on that worker, the overflow queue from any
   other thread).

   - [submit] queues the job and [pump]s: queued jobs start while fewer
     than [runners] hold a slot;
   - an attempt's [Pool.on_resolve] thunk, on the fulfilling domain,
     completes the job or defers its retry, frees the slot and pumps.
     It never raises, and never sleeps, tears down or heals a pool
     (healing joins the very domain the thunk runs on);
   - the monitor thread ticks every [poll_cadence_s]: it fires deferred
     steps (backoffs, chaos pre-start delays), enforces deadlines,
     abandons attempts whose job scope was cancelled or whose pool
     died, and heals a dead pool.

   A job holds its slot from dequeue to [release].  Each step of its
   life returns [`Finished] (release) or [`Held] (a timer or the pool
   has the next step); an attempt's [settled] flag gives its next step
   to whichever of the thunk and the monitor claims it first.

   Exactly-once outcomes.  All terminal transitions funnel through
   [complete], which assigns the outcome under the job's mutex at most
   once; every later call is a benign no-op (the monitor, an explicit
   cancel, and the attempt's thunk legitimately race).  The telemetry
   counter for the outcome is bumped iff the assignment won, so the
   counters are an exact per-outcome partition of admitted jobs. *)

module Pool = Bds_runtime.Pool
module Runtime = Bds_runtime.Runtime
module Cancel = Bds_runtime.Cancel
module Chaos = Bds_runtime.Chaos
module Telemetry = Bds_runtime.Telemetry
module Profile = Bds_runtime.Profile
module Trace = Bds_runtime.Trace
module Metrics = Bds_runtime.Metrics

let log_src = Logs.Src.create "bds.service" ~doc:"Pipeline job service"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Labeled metric families (docs/OBSERVABILITY.md "Service
   observability").  Registered once per process; every service
   instance feeds the same families, mirroring the Telemetry counters'
   process-global contract. *)

let m_jobs =
  Metrics.family ~kind:Metrics.Counter
    ~help:"Terminal job outcomes by tenant, kind and outcome." "bds_jobs"

let m_rejected =
  Metrics.family ~kind:Metrics.Counter
    ~help:"Submissions refused at admission, by reason." "bds_jobs_rejected"

let m_retries =
  Metrics.family ~kind:Metrics.Counter
    ~help:"Retry attempts scheduled, by tenant and kind." "bds_job_retries"

let m_latency =
  Metrics.family ~kind:Metrics.Histogram
    ~help:"Submit-to-outcome wall latency, by outcome."
    "bds_job_latency_seconds"

let m_queue_wait =
  Metrics.family ~kind:Metrics.Histogram
    ~help:"Fair-queue wait before the first attempt, by tenant."
    "bds_job_queue_wait_seconds"

let m_run =
  Metrics.family ~kind:Metrics.Histogram
    ~help:"Summed attempt execution time per job." "bds_job_run_seconds"

let m_backoff =
  Metrics.family ~kind:Metrics.Histogram
    ~help:"Summed retry-backoff (and injected pre-attempt delay) per job."
    "bds_job_backoff_wait_seconds"

let m_queue_depth =
  Metrics.family ~kind:Metrics.Gauge
    ~help:"Jobs currently queued, by tenant." "bds_queue_depth"

let m_queue_depth_max =
  Metrics.family ~kind:Metrics.Gauge
    ~help:"High-water queue depth since start, by tenant."
    "bds_queue_depth_max"

let m_outstanding =
  Metrics.family ~kind:Metrics.Gauge
    ~help:"Jobs admitted but not yet resolved." "bds_outstanding_jobs"

let m_breaker =
  Metrics.family ~kind:Metrics.Gauge
    ~help:"Circuit breaker: 0 closed, 1 half-open, 2 open."
    "bds_breaker_state"

type config = {
  capacity : int;
  runners : int;
  poll_cadence_s : float;
  max_retries : int;
  backoff : Backoff.t;
  breaker : Breaker.config;
}

let default_config =
  {
    capacity = 64;
    runners = 4;
    poll_cadence_s = 0.002;
    max_retries = 2;
    backoff = Backoff.default;
    breaker = Breaker.default_config;
  }

type job_state = Queued | Running

(* One dispatched attempt. *)
type attempt = {
  number : int;
  tok : Cancel.t;  (* attempt scope, a child of the job's *)
  pool : Pool.t;  (* the pool it was dispatched to *)
  settled : bool Atomic.t;  (* claimed by its thunk or by the monitor *)
  t0_us : float;
}

type job = {
  jid : int;
  request : Job.request;
  work : attempt:int -> string;
  deadline_at : float option;  (* absolute, Unix.gettimeofday clock *)
  max_retries : int;
  token : Cancel.t;  (* job scope: deadline / explicit cancel *)
  jm : Mutex.t;
  jcv : Condition.t;  (* completion broadcasts *)
  mutable state : job_state;
  mutable attempt : attempt option;  (* the latest dispatched attempt *)
  mutable outcome : Job.outcome option;
  mutable completions : int;  (* times an outcome was assigned (<= 1) *)
  mutable deadline_hit : bool;  (* set (under [jm]) before cancelling *)
  mutable on_complete : (Job.outcome -> unit) list;
  mutable retries_used : int;
  (* Latency-breakdown accounting, written by whichever step holds the
     job's slot (reads at completion may race a mid-attempt write;
     single-word ints never tear, so a stat is at worst one attempt
     stale — same discipline as Telemetry). *)
  submitted_at : float;
  mutable dequeued : bool;
  mutable queue_wait_ns : int;
  mutable run_ns : int;
  mutable backoff_ns : int;
}

type ticket = job

type t = {
  cfg : config;
  queue : job Fair_queue.t;
  registry : (int, job) Hashtbl.t;  (* outstanding jobs, keyed by id *)
  reg_m : Mutex.t;
  outstanding : int Atomic.t;
  next_id : int Atomic.t;
  breaker : Breaker.t;
  stopping : bool Atomic.t;  (* admission closed *)
  monitor_stop : bool Atomic.t;
  pool : Pool.t Atomic.t;  (* current shared pool (healed on poisoning) *)
  slot_m : Mutex.t;
  mutable in_flight : int;  (* jobs holding a slot, under [slot_m] *)
  timer_m : Mutex.t;
  mutable timers : (float * job * (unit -> unit)) list;  (* [defer]red *)
  mutable monitor_thread : Thread.t option;
  (* Latency breakdown aggregates over resolved jobs (ns). *)
  bd_jobs : int Atomic.t;
  bd_wall_ns : int Atomic.t;
  bd_queue_ns : int Atomic.t;
  bd_run_ns : int Atomic.t;
  bd_backoff_ns : int Atomic.t;
  (* Degradation observers (flight-recorder dump hook). *)
  on_degrade : (string -> unit) list Atomic.t;
}

let config t = t.cfg

let id (j : ticket) = j.jid

let now () = Unix.gettimeofday ()

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let registry_snapshot t =
  locked t.reg_m (fun () -> Hashtbl.fold (fun _ j acc -> j :: acc) t.registry [])

(* ------------------------------------------------------------------ *)
(* Exactly-once completion                                             *)

let count_outcome = function
  | Job.Completed _ -> Telemetry.incr_jobs_completed ()
  | Job.Failed _ -> Telemetry.incr_jobs_failed ()
  | Job.Cancelled -> Telemetry.incr_jobs_cancelled ()
  | Job.Deadline_exceeded -> Telemetry.incr_jobs_deadline_exceeded ()

(* Assign [outcome] if the job is still unresolved.  The loser of a
   (monitor | cancel | thunk) race is a silent no-op — the first
   terminal outcome sticks. *)
let complete t job outcome =
  let won =
    locked job.jm (fun () ->
        match job.outcome with
        | Some _ -> None
        | None ->
          job.outcome <- Some outcome;
          job.completions <- job.completions + 1;
          Condition.broadcast job.jcv;
          let cbs = job.on_complete in
          job.on_complete <- [];
          Some cbs)
  in
  match won with
  | None -> ()
  | Some cbs ->
    count_outcome outcome;
    locked t.reg_m (fun () -> Hashtbl.remove t.registry job.jid);
    (* Winner-only observability: the flow end closes the job's causal
       chain, and the latency breakdown partitions its wall time.  A job
       resolved without ever being dequeued (monitor deadline, cancel,
       shutdown) spent its whole life queued — attribute it so. *)
    let wall_ns =
      max 0 (int_of_float ((now () -. job.submitted_at) *. 1e9))
    in
    if not job.dequeued then job.queue_wait_ns <- wall_ns;
    let label = Job.outcome_label outcome in
    let tenant = job.request.Job.tenant and kind = job.request.Job.kind in
    Metrics.incr m_jobs
      ~labels:[ ("tenant", tenant); ("kind", kind); ("outcome", label) ];
    Metrics.observe_ns m_latency ~labels:[ ("outcome", label) ] wall_ns;
    Metrics.observe_ns m_queue_wait ~labels:[ ("tenant", tenant) ]
      job.queue_wait_ns;
    if job.run_ns > 0 then Metrics.observe_ns m_run ~labels:[] job.run_ns;
    if job.backoff_ns > 0 then
      Metrics.observe_ns m_backoff ~labels:[] job.backoff_ns;
    Atomic.incr t.bd_jobs;
    ignore (Atomic.fetch_and_add t.bd_wall_ns wall_ns : int);
    ignore (Atomic.fetch_and_add t.bd_queue_ns job.queue_wait_ns : int);
    ignore (Atomic.fetch_and_add t.bd_run_ns job.run_ns : int);
    ignore (Atomic.fetch_and_add t.bd_backoff_ns job.backoff_ns : int);
    Trace.emit_flow `End ~id:job.jid
      ~args_json:(Printf.sprintf {|"outcome":"%s"|} (Trace.escape_json label))
      "job";
    Log.debug (fun m ->
        m "job #%d (%s/%s) -> %s" job.jid job.request.Job.tenant
          job.request.Job.kind (Job.pp_outcome outcome));
    List.iter
      (fun f -> try f outcome with _ -> ())
      (List.rev cbs);
    (* Last: [shutdown] returns once no job is outstanding, and a
       completion running on a pool worker must have emitted its flow
       end and run its callbacks by then. *)
    Atomic.decr t.outstanding

(* ------------------------------------------------------------------ *)
(* Pool liveness and healing                                           *)

let current_pool t = Atomic.get t.pool

let pool_ok pool = match Pool.health pool with `Ok -> true | _ -> false

let diagnosis pool =
  match Pool.health pool with
  | `Poisoned d -> d
  | `Shutdown -> "pool shut down"
  | `Ok -> "pool unavailable"

(* ------------------------------------------------------------------ *)
(* Waiting                                                             *)

let peek (j : ticket) = locked j.jm (fun () -> j.outcome)

let wait (j : ticket) =
  locked j.jm (fun () ->
      while j.outcome = None do
        Condition.wait j.jcv j.jm
      done;
      Option.get j.outcome)

let wait_timeout (j : ticket) timeout_s =
  let stop_at = now () +. timeout_s in
  let rec go () =
    match peek j with
    | Some _ as r -> r
    | None ->
      if now () >= stop_at then None
      else begin
        Thread.delay 0.001;
        go ()
      end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Attempt execution                                                   *)

let terminal_for_cancelled job =
  if locked job.jm (fun () -> job.deadline_hit) then Job.Deadline_exceeded
  else Job.Cancelled

(* Classify an attempt exception: [`Terminal outcome] or
   [`Retry reason].  The failure matrix is docs/SERVICE.md. *)
let classify job attempt_tok = function
  | Cancel.Cancelled -> (
    (* The job scope (deadline / explicit / shutdown), or only the
       attempt's: a chaos job fault, recorded in the attempt token. *)
    if Cancel.is_cancelled job.token then `Terminal (terminal_for_cancelled job)
    else
      match Cancel.reason attempt_tok with
      | Some (Chaos.Injected_fault n, _) ->
        `Retry (Printf.sprintf "chaos job-cancel #%d" n)
      | Some (e, _) -> `Retry (Printexc.to_string e)
      | None -> `Retry "attempt cancelled")
  | Chaos.Injected_fault n -> `Retry (Printf.sprintf "chaos fault #%d" n)
  | Job.Transient msg -> `Retry msg
  | e -> `Terminal (Job.Failed (Printexc.to_string e))

let finish t job outcome =
  complete t job outcome;
  `Finished

(* Free a job's slot and start whatever it makes useful. *)
let rec release t =
  locked t.slot_m (fun () -> t.in_flight <- t.in_flight - 1);
  pump t

(* Start queued jobs while fewer than [runners] hold a slot.  A dead
   pool dispatches nothing: the queue waits for the monitor to heal. *)
and pump t =
  let next =
    locked t.slot_m (fun () ->
        if t.in_flight >= t.cfg.runners || not (pool_ok (current_pool t))
        then None
        else
          match Fair_queue.try_take t.queue with
          | Some _ as r ->
            t.in_flight <- t.in_flight + 1;
            r
          | None -> None)
  in
  match next with
  | None -> ()
  | Some (job, wait_s) ->
    (* Queue wait is measured where it happens — the fair queue stamped
       the enqueue; reconstruct the span from the wait it reports. *)
    job.dequeued <- true;
    job.queue_wait_ns <- int_of_float (wait_s *. 1e9);
    if Trace.enabled () then begin
      let t1 = Trace.now_us () in
      Trace.emit_span "queue_wait" ~cat:"job"
        ~args_json:
          (Printf.sprintf {|"jid":%d,"tenant":"%s"|} job.jid
             (Trace.escape_json job.request.Job.tenant))
        ~t0_us:(t1 -. (wait_s *. 1e6))
        ~t1_us:t1
    end;
    step t job (fun () -> begin_attempt t job 1);
    pump t

(* Run one step of [job]'s life, releasing its slot if the step
   finished the job.  Never raises: a scheduler-level bug resolves the
   job with a typed failure and keeps serving. *)
and step t job f =
  match f () with
  | `Held -> ()
  | `Finished -> release t
  | exception e ->
    let msg = Printexc.to_string e in
    (try
       Log.err (fun m -> m "unexpected exception handling job #%d: %s" job.jid msg);
       complete t job (Job.Failed ("internal: " ^ msg))
     with _ -> ());
    release t

(* Run [k] as a step of [job] at the first monitor tick after [d]
   seconds, or once the job resolves or its scope is cancelled.  The
   wait lands in the backoff bucket of the latency breakdown. *)
and defer t job d ~span ~args k =
  let t0 = Trace.now_us () in
  let fire () =
    step t job (fun () ->
        let t1 = Trace.now_us () in
        job.backoff_ns <- job.backoff_ns + int_of_float ((t1 -. t0) *. 1e3);
        Trace.emit_span span ~cat:"job" ~args_json:args ~t0_us:t0 ~t1_us:t1;
        k ())
  in
  locked t.timer_m (fun () -> t.timers <- (now () +. d, job, fire) :: t.timers);
  `Held

and begin_attempt t job number =
  (* Pre-attempt gate: the monitor or a cancel may have resolved the
     job while it sat queued or between attempts. *)
  let gate =
    locked job.jm (fun () ->
        if job.outcome <> None then `Already_done
        else if Cancel.is_cancelled job.token then `Job_cancelled
        else begin
          job.state <- Running;
          `Go
        end)
  in
  match gate with
  | `Already_done -> `Finished
  | `Job_cancelled -> finish t job (terminal_for_cancelled job)
  | `Go -> (
    let tok = Cancel.create ~parent:job.token () in
    (* Chaos job fault point: spurious attempt cancellation (feeds the
       retry path) or a pre-start delay (pushes the job toward its
       deadline). *)
    match Chaos.point_job () with
    | `None -> launch t job number tok
    | `Cancel n ->
      Cancel.cancel_with tok (Chaos.Injected_fault n) (Printexc.get_callstack 0);
      launch t job number tok
    | `Delay d ->
      defer t job d ~span:"chaos_delay"
        ~args:(Printf.sprintf {|"jid":%d|} job.jid)
        (fun () -> launch t job number tok))

(* Dispatch one attempt of [job] to the pool; its thunk settles it. *)
and launch t job number tok =
  Trace.emit_flow `Step ~id:job.jid
    ~args_json:(Printf.sprintf {|"attempt":%d|} number)
    "job";
  let pool = current_pool t in
  let att =
    { number; tok; pool; settled = Atomic.make false; t0_us = Trace.now_us () }
  in
  job.attempt <- Some att;
  let body () =
    (* Per-job-kind profile attribution: all attempt work (leaves of
       nested Seq/Runtime scopes included) lands under "job:<kind>". *)
    Profile.with_op ("job:" ^ job.request.Job.kind) (fun () ->
        Cancel.with_ambient tok (fun () ->
            Cancel.check tok;
            job.work ~attempt:number))
  in
  match Pool.async pool body with
  | exception (Pool.Shutdown | Pool.Worker_crashed _) ->
    settle t job att (`Pool_dead pool)
  | p ->
    if Pool.size pool <= 1 then begin
      (* No spawned worker domain (single-core host, BDS_NUM_DOMAINS=1)
         takes the attempt, so a helper thread [Pool.await]s the
         attempt: that executes it (or, while a [Pool.run] on this
         domain is in progress, waits for that run's thread to), and
         fails fast once the pool dies (the monitor then abandons the
         attempt). *)
      ignore
        (Thread.create (fun () -> try ignore (Pool.await pool p) with _ -> ()) ())
    end;
    (* Registered last: nothing after it may raise, or [step] would
       release the slot that the thunk releases too.  The thunk itself
       must not raise either: that would poison the pool. *)
    Pool.on_resolve p (fun () ->
        try
          step t job (fun () ->
              settle t job att
                (match Pool.peek p with
                | Some (Ok result) -> `Ok result
                | Some (Error (e, _)) -> `Exn e
                | None -> `Exn (Failure "attempt resolved without a result")))
        with _ -> ());
    `Held

(* Act on an attempt's result, once: the thunk and the monitor race to
   settle an attempt, and the loser leaves the job to the winner. *)
and settle t job att result =
  if Atomic.exchange att.settled true then `Held
  else begin
    let att_t1 = Trace.now_us () in
    job.run_ns <- job.run_ns + int_of_float ((att_t1 -. att.t0_us) *. 1e3);
    Trace.emit_span "attempt" ~cat:"job"
      ~args_json:(Printf.sprintf {|"jid":%d,"attempt":%d|} job.jid att.number)
      ~t0_us:att.t0_us ~t1_us:att_t1;
    match result with
    | `Ok result ->
      Breaker.record t.breaker ~now:(now ()) ~ok:true;
      finish t job (Job.Completed result)
    | `Pool_dead pool ->
      (* Worker crash / teardown under us: fail fast with a typed error
         (the monitor heals); a stranded body becomes a no-op. *)
      Cancel.cancel att.tok;
      finish t job (Job.Failed ("worker_crashed: " ^ diagnosis pool))
    | `Exn e -> (
      match classify job att.tok e with
      | `Terminal outcome -> finish t job outcome
      | `Retry reason ->
        let tnow = now () in
        Breaker.record t.breaker ~now:tnow ~ok:false;
        if att.number > job.max_retries then
          finish t job
            (Job.Failed
               (Printf.sprintf "retries exhausted after %d attempts: %s"
                  att.number reason))
        else if not (Breaker.allow_retry t.breaker ~now:tnow) then begin
          Telemetry.incr_jobs_retries_shed ();
          finish t job
            (Job.Failed
               (Printf.sprintf "retry shed: circuit breaker open (%s)" reason))
        end
        else begin
          let d = Backoff.delay t.cfg.backoff ~seed:job.jid ~attempt:att.number in
          (* Never wait past the deadline: the retry would be dead on
             arrival anyway, and the monitor resolves the job at the
             deadline regardless. *)
          let d =
            match job.deadline_at with
            | Some at -> Float.min d (Float.max 0.0 (at -. tnow))
            | None -> d
          in
          (* Back to the queue conceptually: the monitor treats
             between-attempt jobs like queued ones. *)
          locked job.jm (fun () -> job.state <- Queued);
          defer t job d ~span:"backoff_wait"
            ~args:(Printf.sprintf {|"jid":%d,"attempt":%d|} job.jid att.number)
            (fun () ->
              Telemetry.incr_jobs_retried ();
              Metrics.incr m_retries
                ~labels:
                  [
                    ("tenant", job.request.Job.tenant);
                    ("kind", job.request.Job.kind);
                  ];
              locked job.jm (fun () -> job.retries_used <- job.retries_used + 1);
              begin_attempt t job (att.number + 1))
        end)
  end

(* ------------------------------------------------------------------ *)
(* Monitor                                                             *)

(* Serialises heals across the services of a process, so two of them
   cannot both tear down the global pool for one death. *)
let heal_m = Mutex.create ()

let monitor_tick t =
  let tnow = now () in
  let ready =
    locked t.timer_m (fun () ->
        let ready, later =
          List.partition
            (fun (due, job, _) ->
              due <= tnow || peek job <> None || Cancel.is_cancelled job.token)
            t.timers
        in
        t.timers <- later;
        ready)
  in
  List.iter (fun (_, _, fire) -> fire ()) ready;
  List.iter
    (fun job ->
      let expired =
        match job.deadline_at with Some at -> tnow >= at | None -> false
      in
      let action =
        locked job.jm (fun () ->
            if job.outcome <> None || not expired then `Nothing
            else begin
              job.deadline_hit <- true;
              match job.state with
              | Queued -> `Complete_deadline
              | Running -> `Cancel_scope
            end)
      in
      (match action with
      | `Nothing -> ()
      | `Complete_deadline ->
        (* Queued past deadline: resolve directly — the job returns at
           deadline + one cadence even behind a long backlog. *)
        complete t job Job.Deadline_exceeded
      | `Cancel_scope -> Cancel.cancel job.token);
      (* Liveness: abandon an attempt stranded by its pool's death, or
         one whose job scope was cancelled while it may still sit in the
         pool's overflow queue.  If it runs later, its leading
         [Cancel.check] makes it a no-op that finds itself settled. *)
      match job.attempt with
      | Some att when not (Atomic.get att.settled) ->
        if not (pool_ok att.pool) then
          step t job (fun () -> settle t job att (`Pool_dead att.pool))
        else if Cancel.is_cancelled job.token then
          step t job (fun () -> settle t job att (`Exn Cancel.Cancelled))
      | _ -> ())
    (registry_snapshot t);
  (* Replace a poisoned/torn-down pool so the service keeps serving;
     only the monitor heals.  The global pool is torn down only while it
     is still the dead one: another service sharing it, or a
     [Runtime.set_num_domains], may have installed a fresh pool already,
     and that one is adopted as it is. *)
  let dead = current_pool t in
  if not (pool_ok dead) then begin
    let diag = diagnosis dead in
    Log.warn (fun m -> m "backing pool is dead (%s); swapping in a fresh pool" diag);
    locked heal_m (fun () ->
        if Runtime.get_pool () == dead then (try Runtime.shutdown () with _ -> ());
        Atomic.set t.pool (Runtime.get_pool ()));
    (* The breaker's window rated attempts on the pool that died; the
       fresh pool starts with a closed breaker. *)
    Breaker.reset t.breaker;
    List.iter (fun f -> try f diag with _ -> ()) (Atomic.get t.on_degrade);
    pump t
  end

let monitor_loop t =
  while not (Atomic.get t.monitor_stop) do
    monitor_tick t;
    Thread.delay t.cfg.poll_cadence_s
  done

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)

let create ?(config = default_config) () =
  if config.capacity < 1 then invalid_arg "Service.create: capacity < 1";
  if config.runners < 1 then invalid_arg "Service.create: runners < 1";
  if config.poll_cadence_s <= 0.0 then
    invalid_arg "Service.create: poll_cadence_s <= 0";
  let t =
    {
      cfg = config;
      queue = Fair_queue.create ();
      registry = Hashtbl.create 64;
      reg_m = Mutex.create ();
      outstanding = Atomic.make 0;
      next_id = Atomic.make 1;
      breaker = Breaker.create config.breaker;
      stopping = Atomic.make false;
      monitor_stop = Atomic.make false;
      pool = Atomic.make (Runtime.get_pool ());
      slot_m = Mutex.create ();
      in_flight = 0;
      timer_m = Mutex.create ();
      timers = [];
      monitor_thread = None;
      bd_jobs = Atomic.make 0;
      bd_wall_ns = Atomic.make 0;
      bd_queue_ns = Atomic.make 0;
      bd_run_ns = Atomic.make 0;
      bd_backoff_ns = Atomic.make 0;
      on_degrade = Atomic.make [];
    }
  in
  t.monitor_thread <- Some (Thread.create monitor_loop t);
  Log.debug (fun m ->
      m "service up: capacity=%d runners=%d cadence=%.1fms" config.capacity
        config.runners (config.poll_cadence_s *. 1000.));
  t

let reject_metric t req reason =
  ignore t;
  Metrics.incr m_rejected
    ~labels:
      [
        ("tenant", req.Job.tenant);
        ("kind", req.Job.kind);
        ("reason", reason);
      ]

let submit ?on_complete t req =
  if Atomic.get t.stopping then begin
    reject_metric t req (Job.reject_label Job.Shutting_down);
    Error (`Rejected Job.Shutting_down)
  end
  else
    match Workload.build req with
    | Error msg ->
      reject_metric t req "bad_request";
      Error (`Bad_request msg)
    | Ok work ->
      (* Admission control: CAS-claim an outstanding slot, or shed. *)
      let rec claim () =
        let cur = Atomic.get t.outstanding in
        if cur >= t.cfg.capacity then false
        else if Atomic.compare_and_set t.outstanding cur (cur + 1) then true
        else claim ()
      in
      if not (claim ()) then begin
        Telemetry.incr_jobs_shed ();
        reject_metric t req (Job.reject_label Job.Overloaded);
        Error (`Rejected Job.Overloaded)
      end
      else begin
        let jid = Atomic.fetch_and_add t.next_id 1 in
        let job =
          {
            jid;
            request = req;
            work;
            deadline_at =
              Option.map
                (fun ms -> now () +. (float_of_int ms /. 1000.))
                req.Job.deadline_ms;
            max_retries =
              (match req.Job.retries with
              | Some r -> max 0 r
              | None -> t.cfg.max_retries);
            token = Cancel.create ();
            jm = Mutex.create ();
            jcv = Condition.create ();
            state = Queued;
            attempt = None;
            outcome = None;
            completions = 0;
            deadline_hit = false;
            on_complete = (match on_complete with Some f -> [ f ] | None -> []);
            retries_used = 0;
            submitted_at = now ();
            dequeued = false;
            queue_wait_ns = 0;
            run_ns = 0;
            backoff_ns = 0;
          }
        in
        locked t.reg_m (fun () -> Hashtbl.replace t.registry jid job);
        Telemetry.incr_jobs_admitted ();
        (* Admission starts the job's causal flow; every later span of
           its life (queue_wait, attempts, backoff, outcome) links to
           this id. *)
        Trace.emit_flow `Start ~id:jid
          ~args_json:
            (Printf.sprintf {|"tenant":"%s","kind":"%s"|}
               (Trace.escape_json req.Job.tenant)
               (Trace.escape_json req.Job.kind))
          "job";
        let queued = Fair_queue.push t.queue ~tenant:req.Job.tenant job in
        pump t;
        if queued then Ok job
        else begin
          (* Shutdown closed the queue between the stopping check and
             the push: the job was admitted, so it still gets its one
             terminal outcome. *)
          complete t job Job.Cancelled;
          Error (`Rejected Job.Shutting_down)
        end
      end

let cancel t (j : ticket) =
  let queued =
    locked j.jm (fun () -> j.outcome = None && j.state = Queued)
  in
  if queued then
    (* Resolve immediately; if it is dequeued later, its pre-attempt
       gate sees the outcome and skips. *)
    complete t j Job.Cancelled;
  Cancel.cancel j.token

type summary = {
  sm_workers : int;
  sm_queue_depth : int;
  sm_outstanding : int;
  sm_breaker : string;
}

let summary t =
  {
    sm_workers = Pool.size (current_pool t);
    sm_queue_depth = Fair_queue.length t.queue;
    sm_outstanding = Atomic.get t.outstanding;
    sm_breaker = Breaker.state_label (Breaker.state t.breaker ~now:(now ()));
  }

type breakdown = {
  bk_jobs : int;
  bk_wall_ns : int;
  bk_queue_ns : int;
  bk_run_ns : int;
  bk_backoff_ns : int;
}

let latency_breakdown t =
  {
    bk_jobs = Atomic.get t.bd_jobs;
    bk_wall_ns = Atomic.get t.bd_wall_ns;
    bk_queue_ns = Atomic.get t.bd_queue_ns;
    bk_run_ns = Atomic.get t.bd_run_ns;
    bk_backoff_ns = Atomic.get t.bd_backoff_ns;
  }

(* Pull-style gauges: refreshed on demand (before a METRICS render)
   rather than by a collector thread, so a torn-down service never
   leaves a stale collector behind. *)
let collect_metrics t =
  List.iter
    (fun (tenant, depth, max_depth) ->
      Metrics.set m_queue_depth ~labels:[ ("tenant", tenant) ]
        (float_of_int depth);
      Metrics.set m_queue_depth_max ~labels:[ ("tenant", tenant) ]
        (float_of_int max_depth))
    (Fair_queue.depths t.queue);
  Metrics.set m_outstanding ~labels:[] (float_of_int (Atomic.get t.outstanding));
  let breaker_level =
    match Breaker.state_label (Breaker.state t.breaker ~now:(now ())) with
    | "closed" -> 0.0
    | "half_open" -> 1.0
    | _ -> 2.0
  in
  Metrics.set m_breaker ~labels:[] breaker_level

let on_degrade t f =
  let rec add () =
    let cur = Atomic.get t.on_degrade in
    if not (Atomic.compare_and_set t.on_degrade cur (f :: cur)) then add ()
  in
  add ()

let shutdown ?(drain = true) t =
  if not (Atomic.exchange t.stopping true) then begin
    Fair_queue.close t.queue;
    if not drain then
      List.iter (fun j -> Cancel.cancel j.token) (registry_snapshot t);
    (* Every admitted job reaches its terminal outcome before the
       monitor is joined: freed slots chew the (possibly cancelled)
       backlog, the monitor keeps deadlines and liveness honest. *)
    while Atomic.get t.outstanding > 0 do
      Thread.delay t.cfg.poll_cadence_s
    done;
    Atomic.set t.monitor_stop true;
    Option.iter Thread.join t.monitor_thread;
    t.monitor_thread <- None;
    (* A traced service must never lose buffered spans to a shutdown
       that does not tear the pool down. *)
    Trace.flush ();
    Log.debug (fun m -> m "service stopped (drain=%b)" drain)
  end

module For_testing = struct
  let completions (j : ticket) = locked j.jm (fun () -> j.completions)

  let retries_used (j : ticket) = locked j.jm (fun () -> j.retries_used)
end
