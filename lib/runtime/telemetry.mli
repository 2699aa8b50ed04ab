(** Always-on, low-overhead scheduler telemetry.

    Every hot path of the runtime (task pushes, steal attempts, grain
    chunks, cancellation polls, chaos injections) bumps a per-domain,
    cache-line-padded plain [int] — one domain-local store, no atomics —
    so the counters stay compiled in unconditionally: with tracing off
    their cost is unmeasurable.

    Counters are process-global and cumulative (they survive pool
    churn); use {!snapshot} before and after a region and {!diff} to
    attribute activity to it.  Snapshots read other domains' counters
    without synchronization: values may lag by in-flight increments but
    never tear (single-word ints) and never decrease. *)

(** Aggregated counter values at one point in time. *)
type snapshot = {
  s_tasks_spawned : int;  (** tasks pushed to a deque or overflow queue *)
  s_steal_attempts : int;  (** {!Ws_deque.steal} calls *)
  s_steals : int;  (** steal attempts that returned a task *)
  s_overflow_pushes : int;  (** pushes routed to the overflow queue *)
  s_chunks_executed : int;  (** sequential grain chunks run by [Runtime] *)
  s_cancel_polls : int;  (** cancellation-token checks *)
  s_cancel_trips : int;  (** checks that observed a cancelled token *)
  s_chaos_injections : int;  (** faults injected by {!Chaos} *)
  s_fused_folds : int;
      (** stream consumers that drove a native push fold (Stream) *)
  s_trickle_fallbacks : int;
      (** always 0: every stream fold is a native push loop.  Kept so
          the STATS schema and the counter listing stay unchanged. *)
  s_float_fast_path : int;
      (** float-reduction loops that ran monomorphic and unboxed
          ([Float_seq]'s floatarray block bodies, [Stream.sum_floats]
          over a pure index function, the float kernels' block loops);
          one bump per block/loop *)
  s_float_boxed_fallback : int;
      (** float-reduction loops that fell back to the generic boxed
          fold (non-materialisable producers); one bump per block *)
  s_shared_forces : int;
      (** BIDs forced into their memo because a second consumer arrived
          after the producer had already run once (shared-consumer plan,
          [Seq]); at most one bump per BID value *)
  s_jobs_admitted : int;  (** jobs accepted by the service admission queue *)
  s_jobs_completed : int;  (** jobs that produced a result *)
  s_jobs_cancelled : int;  (** jobs terminated by an explicit cancel *)
  s_jobs_deadline_exceeded : int;  (** jobs terminated by their deadline *)
  s_jobs_failed : int;  (** jobs that exhausted retries or raised *)
  s_jobs_retried : int;  (** retry attempts scheduled (one per re-run) *)
  s_jobs_shed : int;  (** submissions rejected at admission (overload) *)
  s_jobs_retries_shed : int;
      (** retries suppressed by an open circuit breaker *)
  s_idle_parks : int;
      (** idle workers that blocked on the pool's condition variable
          after their spin found no work *)
}

(** Sum of every domain's counters (racy lower bound; monotone). *)
val snapshot : unit -> snapshot

(** Per-field [after - before], clamped at 0 (racy reads can lag). *)
val diff : before:snapshot -> after:snapshot -> snapshot

(** Like {!diff}, also reporting whether any field had to be clamped —
    i.e. the snapshot pair was incoherent (taken around a region that
    raced other measurement, or in the wrong order).  Measurement
    harnesses use this to flag suspect [steals_per_s]-style rates
    instead of silently reporting 0. *)
val diff_checked : before:snapshot -> after:snapshot -> snapshot * bool

(** Fixed-order [(name, value)] list, the format surfaced by
    [bds_probe stats]. *)
val to_assoc : snapshot -> (string * int) list

(** The snapshot whose counter at slot [i] is [a.(i)], slots in
    {!to_assoc} order.  Exposed so tests can check that each key reads
    its own slot.  Raises [Invalid_argument] if [a] is shorter than the
    counter list. *)
val of_slots : int array -> snapshot

(** One-line rendering of {!to_assoc}. *)
val pp : snapshot -> string

(** Nanoseconds since the process's runtime was initialised.  Monotone
    non-decreasing across calls (modulo wall-clock steps; see the
    implementation note), never reset: scrapers use it to compute rates
    between two [STATS]/[METRICS] scrapes without wall-clock skew. *)
val uptime_ns : unit -> int

(** {2 Hook points} — called by the scheduler; also usable by tests. *)

val incr_tasks_spawned : unit -> unit
val incr_steal_attempts : unit -> unit
val incr_steals : unit -> unit
val incr_overflow_pushes : unit -> unit
val incr_chunks_executed : unit -> unit
val incr_cancel_polls : unit -> unit
val incr_cancel_trips : unit -> unit
val incr_chaos_injections : unit -> unit

(** Bumped once by each of [Stream]'s linear consumers (one push fold
    per drive, i.e. per block).  See docs/STREAMS.md. *)

val incr_fused_folds : unit -> unit

(** Bumped by the unboxed float lane ([Float_seq]'s floatarray loops,
    and [Stream.sum_floats], which [Seq.float_sum] runs on each block):
    one increment per block (or per whole loop for unblocked drives)
    recording whether the reduction ran monomorphic and unboxed or fell
    back to the generic boxed fold.  See docs/STREAMS.md "Unboxed float
    lane". *)

val incr_float_fast_path : unit -> unit
val incr_float_boxed_fallback : unit -> unit

(** Bumped by [Seq]'s shared-consumer memo plan: exactly once per BID
    whose producer would otherwise have run twice (the force that
    publishes the memo for all further consumers).  See
    docs/STREAMS.md "Shared consumers". *)

val incr_shared_forces : unit -> unit

(** Bumped by the job service ([lib/service]): exactly one terminal-
    outcome increment per admitted job, plus the admission / retry /
    shedding events around it.  See docs/SERVICE.md. *)

val incr_jobs_admitted : unit -> unit
val incr_jobs_completed : unit -> unit
val incr_jobs_cancelled : unit -> unit
val incr_jobs_deadline_exceeded : unit -> unit
val incr_jobs_failed : unit -> unit
val incr_jobs_retried : unit -> unit
val incr_jobs_shed : unit -> unit
val incr_jobs_retries_shed : unit -> unit

(** Bumped by [Pool]'s idle path just before a worker blocks on the
    pool's condition variable.  See docs/RUNTIME.md "Idle protocol". *)

val incr_idle_parks : unit -> unit
