(** The multi-tenant pipeline-job service.

    Composes the runtime substrate into a long-running job layer:

    - {e admission control}: at most [capacity] jobs outstanding
      (queued + running); beyond that, {!submit} sheds load with a
      typed [Overloaded] rejection instead of queuing unboundedly;
    - {e fair scheduling}: admitted jobs wait in a per-tenant
      round-robin queue ({!Fair_queue}) and run on the shared global
      pool, at most [runners] in flight;
    - {e deadlines}: each job owns a {!Bds_runtime.Cancel} scope; a
      monitor thread cancels it when the wall-clock deadline passes, so
      a deadline-exceeded job returns within deadline + one poll
      cadence (queued jobs are failed directly, running ones unwind at
      the next cancellation poll);
    - {e retry with backoff}: attempts killed by retryable faults
      ([Job.Transient], [Chaos.Injected_fault], chaos job-cancels) are
      re-run after an exponential-backoff-with-jitter delay
      ({!Backoff}), up to the retry budget;
    - {e circuit breaking}: when the recent attempt failure rate spikes,
      {!Breaker} opens and further retries are shed (the job fails fast
      with a typed error) until a cooldown probe succeeds;
    - {e graceful degradation}: a worker-domain crash fails in-flight
      jobs fast with a typed [Failed] outcome, and the service swaps in
      a fresh pool and keeps serving;
    - {e observability}: every admitted job resolves to exactly one
      terminal outcome, counted in {!Bds_runtime.Telemetry}
      ([jobs_completed] / [jobs_cancelled] / [jobs_deadline_exceeded] /
      [jobs_failed], plus [jobs_admitted], [jobs_retried], [jobs_shed],
      [jobs_retries_shed]) and attributed per job kind in
      {!Bds_runtime.Profile} under op ["job:<kind>"].

    The full semantics, including the failure matrix, are documented in
    docs/SERVICE.md. *)

type config = {
  capacity : int;
      (** admission bound: max jobs outstanding (queued + running) *)
  runners : int;
      (** slots: max jobs in flight (dequeued and not yet resolved,
          backoff included).  No thread per slot: a freed slot starts
          the next queued job from the thread that freed it. *)
  poll_cadence_s : float;
      (** deadline/liveness monitor cadence, seconds *)
  max_retries : int;  (** default retry budget per job *)
  backoff : Backoff.t;
  breaker : Breaker.config;
}

val default_config : config
(** capacity 64, runners 4, 2ms cadence, 2 retries, {!Backoff.default},
    {!Breaker.default_config}. *)

type t

type ticket
(** Handle to one admitted job. *)

val create : ?config:config -> unit -> t
(** Start the service on the global runtime pool: spawns the monitor
    thread (deadlines, retry backoffs, pool healing) and nothing else.
    Attempts are dispatched by {!submit} and by the completion of
    earlier attempts. *)

val config : t -> config

val submit :
  ?on_complete:(Job.outcome -> unit) ->
  t ->
  Job.request ->
  (ticket, [ `Rejected of Job.reject | `Bad_request of string ]) result
(** Admit a job.  [`Rejected Overloaded] when the outstanding bound is
    reached (counted as [jobs_shed]), [`Rejected Shutting_down] after
    {!shutdown} began, [`Bad_request] on an unknown kind or malformed
    parameter (never admitted, no counter).  An admitted job may start
    on the calling thread, which dispatches its attempt to the pool
    without waiting for it.  [on_complete] runs exactly once, on the
    thread that resolves the job: often a pool worker domain, inside
    the attempt's completion, so keep it quick and non-blocking.  The
    job still counts against [capacity] while its callbacks run. *)

val id : ticket -> int

val peek : ticket -> Job.outcome option
(** The terminal outcome, if already resolved.  Never blocks. *)

val wait : ticket -> Job.outcome
(** Block until the job resolves. *)

val wait_timeout : ticket -> float -> Job.outcome option
(** [wait_timeout tk s]: like {!wait} but gives up after [s] seconds
    (polling at millisecond granularity).  Bounded-time test harness
    primitive — production callers use {!wait} or [on_complete]. *)

val cancel : t -> ticket -> unit
(** Cancel the job: resolved [Cancelled] immediately if still queued,
    else its scope token is cancelled and the running attempt unwinds
    at its next cancellation poll.  No-op on a resolved job. *)

(** {2 Introspection} *)

type summary = {
  sm_workers : int;  (** pool workers backing the service *)
  sm_queue_depth : int;  (** admitted jobs waiting to start *)
  sm_outstanding : int;  (** queued + running jobs *)
  sm_breaker : string;  (** [closed] / [open] / [half_open] *)
}

val summary : t -> summary

(** Cumulative latency breakdown over resolved jobs (nanoseconds):
    wall time (submit to outcome) alongside its three accounted
    components — fair-queue wait, summed attempt run time, and
    retry-backoff / injected-delay waits.  A job resolved without ever
    being dequeued counts its whole wall time as queue wait.  The
    residue (wall minus components) is scheduling overhead: dispatch,
    completion handling, monitor cadence. *)
type breakdown = {
  bk_jobs : int;  (** jobs aggregated *)
  bk_wall_ns : int;
  bk_queue_ns : int;
  bk_run_ns : int;
  bk_backoff_ns : int;
}

val latency_breakdown : t -> breakdown

val collect_metrics : t -> unit
(** Refresh this service's pull-style gauges ([bds_queue_depth],
    [bds_queue_depth_max], [bds_outstanding_jobs], [bds_breaker_state])
    in {!Bds_runtime.Metrics}.  Call before rendering an exposition;
    counters and histograms need no collection (they are pushed at the
    lifecycle points). *)

val on_degrade : t -> (string -> unit) -> unit
(** Register an observer called (with the pool's diagnosis) each time
    the service swaps in a fresh pool after a crash/teardown, whether
    it made that pool or adopted one that another service (or
    [Runtime.set_num_domains]) installed — the server's flight recorder
    dumps on this signal.  Observers run on the monitor thread, which
    heals the pool; keep them quick. *)

val shutdown : ?drain:bool -> t -> unit
(** Stop the service: admission closes ([Shutting_down]), then either
    every queued job runs to its outcome ([drain], the default) or all
    outstanding jobs are cancelled ([~drain:false], resolving
    [Cancelled]).  Blocks until every admitted job has its terminal
    outcome and its [on_complete] callbacks have run, joins the monitor
    thread, and flushes the trace recorder so a traced service never
    loses buffered spans.
    Idempotent; does not tear down the shared pool. *)

(** Test backdoors — not part of the public contract. *)
module For_testing : sig
  val completions : ticket -> int
  (** Times a terminal outcome was actually assigned (the exactly-once
      invariant says this is 1 for every resolved job). *)

  val retries_used : ticket -> int
end
