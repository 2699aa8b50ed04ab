(* Always-on scheduler telemetry (see telemetry.mli for the contract).

   Each domain owns a private record of plain mutable ints, created
   lazily through DLS on first use and registered in a process-global
   list.  Increments are therefore one DLS read plus one unsynchronized
   store — no atomics, no contention, no shared cache lines — which is
   what keeps the counters cheap enough to leave compiled into every
   hot path of the scheduler.

   [snapshot] reads every registered record from the aggregating domain.
   Those reads race with the owners' stores; under the OCaml 5 memory
   model they may observe slightly stale values, but ints are single
   words (no tearing) and each counter only ever grows, so a snapshot is
   a consistent-enough lower bound for the statistics use-case.  Records
   of exited domains stay registered, so counters are cumulative over
   the whole process lifetime and snapshots are monotone. *)

type counters = {
  mutable tasks_spawned : int;
  mutable steal_attempts : int;
  mutable steals : int;
  mutable overflow_pushes : int;
  mutable chunks_executed : int;
  mutable cancel_polls : int;
  mutable cancel_trips : int;
  mutable chaos_injections : int;
  mutable fused_folds : int;
  (* Float-lane execution-path counters (lib/core/float_seq.ml and the
     Stream/Seq float reductions): which representation a float
     reduction loop actually ran over — a monomorphic unboxed loop, or
     the generic boxed fold it falls back to. *)
  mutable float_fast_path : int;
  mutable float_boxed_fallback : int;
  (* Shared-consumer memo plan (lib/core/seq.ml): a BID whose producer
     had already been consumed once was forced into its memo so further
     consumers reroute through the cached array instead of re-running
     the producer.  At most one bump per BID value over its lifetime. *)
  mutable shared_forces : int;
  (* Job-service outcome counters (lib/service): every admitted job
     resolves to exactly one terminal outcome, and the service bumps the
     matching counter at that single completion point. *)
  mutable jobs_admitted : int;
  mutable jobs_completed : int;
  mutable jobs_cancelled : int;
  mutable jobs_deadline_exceeded : int;
  mutable jobs_failed : int;
  mutable jobs_retried : int;
  mutable jobs_shed : int;
  mutable jobs_retries_shed : int;
  (* Adaptive-granularity controller ([Autotune]): grain adjustments
     committed (hysteresis moves and adopted probes) and probe regions
     run at a non-incumbent grain. *)
  mutable adapt_adjustments : int;
  mutable adapt_probes : int;
  (* Padding out to three cache lines (the 22 counters above plus these
     pads are 192 bytes of payload): adjacent domains' records can never
     share a line even when the allocator places them back to back. *)
  mutable pad0 : int;
  mutable pad1 : int;
}

type snapshot = {
  s_tasks_spawned : int;
  s_steal_attempts : int;
  s_steals : int;
  s_overflow_pushes : int;
  s_chunks_executed : int;
  s_cancel_polls : int;
  s_cancel_trips : int;
  s_chaos_injections : int;
  s_fused_folds : int;
  s_trickle_fallbacks : int;
  s_float_fast_path : int;
  s_float_boxed_fallback : int;
  s_shared_forces : int;
  s_jobs_admitted : int;
  s_jobs_completed : int;
  s_jobs_cancelled : int;
  s_jobs_deadline_exceeded : int;
  s_jobs_failed : int;
  s_jobs_retried : int;
  s_jobs_shed : int;
  s_jobs_retries_shed : int;
  s_adapt_adjustments : int;
  s_adapt_probes : int;
}

let registry_mutex = Mutex.create ()

let registry : counters list ref = ref []

(* Process start time, captured at module initialisation (the runtime
   library links into every entry point, so this is as early as any
   observer can ask).  [uptime_ns] is monotone as long as the wall clock
   is — OCaml's stdlib exposes no monotonic clock without extra
   libraries, and for rate computation over scrape intervals the
   distinction is noise. *)
let start_time = Unix.gettimeofday ()

let uptime_ns () =
  int_of_float ((Unix.gettimeofday () -. start_time) *. 1e9)

let fresh_counters () =
  {
    tasks_spawned = 0;
    steal_attempts = 0;
    steals = 0;
    overflow_pushes = 0;
    chunks_executed = 0;
    cancel_polls = 0;
    cancel_trips = 0;
    chaos_injections = 0;
    fused_folds = 0;
    float_fast_path = 0;
    float_boxed_fallback = 0;
    shared_forces = 0;
    jobs_admitted = 0;
    jobs_completed = 0;
    jobs_cancelled = 0;
    jobs_deadline_exceeded = 0;
    jobs_failed = 0;
    jobs_retried = 0;
    jobs_shed = 0;
    jobs_retries_shed = 0;
    adapt_adjustments = 0;
    adapt_probes = 0;
    pad0 = 0;
    pad1 = 0;
  }

let key : counters Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let c = fresh_counters () in
      Mutex.lock registry_mutex;
      registry := c :: !registry;
      Mutex.unlock registry_mutex;
      c)

let[@inline] local () = Domain.DLS.get key

let[@inline] incr_tasks_spawned () =
  let c = local () in
  c.tasks_spawned <- c.tasks_spawned + 1

let[@inline] incr_steal_attempts () =
  let c = local () in
  c.steal_attempts <- c.steal_attempts + 1

let[@inline] incr_steals () =
  let c = local () in
  c.steals <- c.steals + 1

let[@inline] incr_overflow_pushes () =
  let c = local () in
  c.overflow_pushes <- c.overflow_pushes + 1

let[@inline] incr_chunks_executed () =
  let c = local () in
  c.chunks_executed <- c.chunks_executed + 1

let[@inline] incr_cancel_polls () =
  let c = local () in
  c.cancel_polls <- c.cancel_polls + 1

let[@inline] incr_cancel_trips () =
  let c = local () in
  c.cancel_trips <- c.cancel_trips + 1

let[@inline] incr_chaos_injections () =
  let c = local () in
  c.chaos_injections <- c.chaos_injections + 1

let[@inline] incr_fused_folds () =
  let c = local () in
  c.fused_folds <- c.fused_folds + 1

let[@inline] incr_float_fast_path () =
  let c = local () in
  c.float_fast_path <- c.float_fast_path + 1

let[@inline] incr_float_boxed_fallback () =
  let c = local () in
  c.float_boxed_fallback <- c.float_boxed_fallback + 1

let[@inline] incr_shared_forces () =
  let c = local () in
  c.shared_forces <- c.shared_forces + 1

let[@inline] incr_jobs_admitted () =
  let c = local () in
  c.jobs_admitted <- c.jobs_admitted + 1

let[@inline] incr_jobs_completed () =
  let c = local () in
  c.jobs_completed <- c.jobs_completed + 1

let[@inline] incr_jobs_cancelled () =
  let c = local () in
  c.jobs_cancelled <- c.jobs_cancelled + 1

let[@inline] incr_jobs_deadline_exceeded () =
  let c = local () in
  c.jobs_deadline_exceeded <- c.jobs_deadline_exceeded + 1

let[@inline] incr_jobs_failed () =
  let c = local () in
  c.jobs_failed <- c.jobs_failed + 1

let[@inline] incr_jobs_retried () =
  let c = local () in
  c.jobs_retried <- c.jobs_retried + 1

let[@inline] incr_jobs_shed () =
  let c = local () in
  c.jobs_shed <- c.jobs_shed + 1

let[@inline] incr_jobs_retries_shed () =
  let c = local () in
  c.jobs_retries_shed <- c.jobs_retries_shed + 1

let[@inline] incr_adapt_adjustments () =
  let c = local () in
  c.adapt_adjustments <- c.adapt_adjustments + 1

let[@inline] incr_adapt_probes () =
  let c = local () in
  c.adapt_probes <- c.adapt_probes + 1

let zero =
  {
    s_tasks_spawned = 0;
    s_steal_attempts = 0;
    s_steals = 0;
    s_overflow_pushes = 0;
    s_chunks_executed = 0;
    s_cancel_polls = 0;
    s_cancel_trips = 0;
    s_chaos_injections = 0;
    s_fused_folds = 0;
    s_trickle_fallbacks = 0;
    s_float_fast_path = 0;
    s_float_boxed_fallback = 0;
    s_shared_forces = 0;
    s_jobs_admitted = 0;
    s_jobs_completed = 0;
    s_jobs_cancelled = 0;
    s_jobs_deadline_exceeded = 0;
    s_jobs_failed = 0;
    s_jobs_retried = 0;
    s_jobs_shed = 0;
    s_jobs_retries_shed = 0;
    s_adapt_adjustments = 0;
    s_adapt_probes = 0;
  }

let snapshot () =
  Mutex.lock registry_mutex;
  let records = !registry in
  Mutex.unlock registry_mutex;
  List.fold_left
    (fun acc c ->
      {
        s_tasks_spawned = acc.s_tasks_spawned + c.tasks_spawned;
        s_steal_attempts = acc.s_steal_attempts + c.steal_attempts;
        s_steals = acc.s_steals + c.steals;
        s_overflow_pushes = acc.s_overflow_pushes + c.overflow_pushes;
        s_chunks_executed = acc.s_chunks_executed + c.chunks_executed;
        s_cancel_polls = acc.s_cancel_polls + c.cancel_polls;
        s_cancel_trips = acc.s_cancel_trips + c.cancel_trips;
        s_chaos_injections = acc.s_chaos_injections + c.chaos_injections;
        s_fused_folds = acc.s_fused_folds + c.fused_folds;
        s_trickle_fallbacks = 0;
        s_float_fast_path = acc.s_float_fast_path + c.float_fast_path;
        s_float_boxed_fallback =
          acc.s_float_boxed_fallback + c.float_boxed_fallback;
        s_shared_forces = acc.s_shared_forces + c.shared_forces;
        s_jobs_admitted = acc.s_jobs_admitted + c.jobs_admitted;
        s_jobs_completed = acc.s_jobs_completed + c.jobs_completed;
        s_jobs_cancelled = acc.s_jobs_cancelled + c.jobs_cancelled;
        s_jobs_deadline_exceeded =
          acc.s_jobs_deadline_exceeded + c.jobs_deadline_exceeded;
        s_jobs_failed = acc.s_jobs_failed + c.jobs_failed;
        s_jobs_retried = acc.s_jobs_retried + c.jobs_retried;
        s_jobs_shed = acc.s_jobs_shed + c.jobs_shed;
        s_jobs_retries_shed = acc.s_jobs_retries_shed + c.jobs_retries_shed;
        s_adapt_adjustments = acc.s_adapt_adjustments + c.adapt_adjustments;
        s_adapt_probes = acc.s_adapt_probes + c.adapt_probes;
      })
    zero records

(* Clamped at 0 per field: the racy reads in [snapshot] can lag a domain
   that was mid-burst at [before] time, so tiny negative deltas are
   measurement noise, not meaningful.  [diff_checked] additionally says
   whether any field was clamped, so measurement harnesses can flag a
   snapshot pair as incoherent instead of silently reporting a zero. *)
let diff_checked ~before ~after =
  let clamped = ref false in
  let d a b =
    if a < b then begin
      clamped := true;
      0
    end
    else a - b
  in
  let s =
    {
      s_tasks_spawned = d after.s_tasks_spawned before.s_tasks_spawned;
      s_steal_attempts = d after.s_steal_attempts before.s_steal_attempts;
      s_steals = d after.s_steals before.s_steals;
      s_overflow_pushes = d after.s_overflow_pushes before.s_overflow_pushes;
      s_chunks_executed = d after.s_chunks_executed before.s_chunks_executed;
      s_cancel_polls = d after.s_cancel_polls before.s_cancel_polls;
      s_cancel_trips = d after.s_cancel_trips before.s_cancel_trips;
      s_chaos_injections = d after.s_chaos_injections before.s_chaos_injections;
      s_fused_folds = d after.s_fused_folds before.s_fused_folds;
      s_trickle_fallbacks = d after.s_trickle_fallbacks before.s_trickle_fallbacks;
      s_float_fast_path = d after.s_float_fast_path before.s_float_fast_path;
      s_float_boxed_fallback =
        d after.s_float_boxed_fallback before.s_float_boxed_fallback;
      s_shared_forces = d after.s_shared_forces before.s_shared_forces;
      s_jobs_admitted = d after.s_jobs_admitted before.s_jobs_admitted;
      s_jobs_completed = d after.s_jobs_completed before.s_jobs_completed;
      s_jobs_cancelled = d after.s_jobs_cancelled before.s_jobs_cancelled;
      s_jobs_deadline_exceeded =
        d after.s_jobs_deadline_exceeded before.s_jobs_deadline_exceeded;
      s_jobs_failed = d after.s_jobs_failed before.s_jobs_failed;
      s_jobs_retried = d after.s_jobs_retried before.s_jobs_retried;
      s_jobs_shed = d after.s_jobs_shed before.s_jobs_shed;
      s_jobs_retries_shed = d after.s_jobs_retries_shed before.s_jobs_retries_shed;
      s_adapt_adjustments =
        d after.s_adapt_adjustments before.s_adapt_adjustments;
      s_adapt_probes = d after.s_adapt_probes before.s_adapt_probes;
    }
  in
  (s, !clamped)

let diff ~before ~after = fst (diff_checked ~before ~after)

let to_assoc s =
  [
    ("tasks_spawned", s.s_tasks_spawned);
    ("steal_attempts", s.s_steal_attempts);
    ("steals", s.s_steals);
    ("overflow_pushes", s.s_overflow_pushes);
    ("chunks_executed", s.s_chunks_executed);
    ("cancel_polls", s.s_cancel_polls);
    ("cancel_trips", s.s_cancel_trips);
    ("chaos_injections", s.s_chaos_injections);
    ("fused_folds", s.s_fused_folds);
    ("trickle_fallbacks", s.s_trickle_fallbacks);
    ("float_fast_path", s.s_float_fast_path);
    ("float_boxed_fallback", s.s_float_boxed_fallback);
    ("shared_forces", s.s_shared_forces);
    ("jobs_admitted", s.s_jobs_admitted);
    ("jobs_completed", s.s_jobs_completed);
    ("jobs_cancelled", s.s_jobs_cancelled);
    ("jobs_deadline_exceeded", s.s_jobs_deadline_exceeded);
    ("jobs_failed", s.s_jobs_failed);
    ("jobs_retried", s.s_jobs_retried);
    ("jobs_shed", s.s_jobs_shed);
    ("jobs_retries_shed", s.s_jobs_retries_shed);
    ("adapt_adjustments", s.s_adapt_adjustments);
    ("adapt_probes", s.s_adapt_probes);
  ]

let pp s =
  String.concat " "
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (to_assoc s))
