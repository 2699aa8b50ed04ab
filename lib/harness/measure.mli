(** Timing and space measurement for the benchmark harness. *)

type sample = { time_s : float; alloc_bytes : float }

(** Wall-clock of a single run. *)
val time_once : (unit -> 'a) -> float

(** Minimum wall-clock over [repeat] runs after [warmup] runs. *)
val time : ?warmup:int -> ?repeat:int -> (unit -> 'a) -> float

type timed = {
  best_s : float;
  counters : Bds_runtime.Telemetry.snapshot;
  clamped : bool;  (** the reported delta hit the racy-snapshot clamp *)
}

(** Like {!time}, but additionally returns the scheduler-telemetry delta
    ({!Bds_runtime.Telemetry.diff_checked}) observed during the best
    (reported) run, so benchmark tables can show steals / tasks alongside
    times — plus whether that delta was clamped (and hence suspect). *)
val time_counters : ?warmup:int -> ?repeat:int -> (unit -> 'a) -> timed

(** Major-heap bytes allocated by one run of [f], measured on a
    single-domain pool (exact; see the implementation notes: this is the
    portable analogue of the paper's max-residency metric). Restores the
    previous worker count. *)
val alloc_single_domain : (unit -> 'a) -> float

(** Total allocated bytes (minor + major) of one run, same discipline. *)
val total_alloc_single_domain : (unit -> 'a) -> float

(** Run [f] with a global pool of [p] workers, restoring the previous
    pool afterwards. *)
val with_domains : int -> (unit -> 'a) -> 'a

val pp_time : float -> string
val pp_bytes : float -> string

(** Minor words the worker domain of a private 2-domain pool allocates
    between the end of one task and the start of the next, when the
    next is submitted after an idle gap of each length in [gaps]
    (seconds): the median of five gaps per length.
    Includes the fixed cost of running one task (promise, handler,
    overflow pop); whatever the idle spin and park add comes on top. *)
val idle_worker_words : float list -> float list
