(** Timing and space measurement for the benchmark harness. *)

(** One thing to time: a named call, with an optional [setup] and
    [teardown] run around each of its calls, outside the timed window
    (to switch a policy per point, say). *)
type point

val point :
  ?setup:(unit -> unit) -> ?teardown:(unit -> unit) -> string -> (unit -> 'a) -> point

type timed = {
  best_s : float;  (** fastest timed call *)
  total_s : float;  (** sum over the timed calls *)
  calls : int;  (** number of timed calls *)
  counters : Bds_runtime.Telemetry.snapshot;
      (** {!Bds_runtime.Telemetry.diff_checked} deltas summed over the
          timed calls *)
  clamped : bool;  (** some summed delta hit the racy-snapshot clamp *)
}

(** [rounds ~repeat points] times [points] in shared rounds: first
    [warmup] (default 1) untimed rounds, then [repeat] timed rounds,
    each round one call of every point, in order.  Host drift between
    rounds then slows every point alike instead of one point's block of
    calls.  So does a slow spell right after {!with_domains}: on a
    2-core host the calls of about the first 0.6 s sometimes each take
    3x a later one (cause unknown).  Returns each point's name and
    times, in order.  Rates should divide the summed counters by
    [total_s].
    @raise Invalid_argument if [repeat < 1]. *)
val rounds : ?warmup:int -> repeat:int -> point list -> (string * timed) list

(** Major-heap bytes allocated by one run of [f], measured on a
    single-domain pool (exact; see the implementation notes: this is the
    portable analogue of the paper's max-residency metric). Restores the
    previous worker count. *)
val alloc_single_domain : (unit -> 'a) -> float

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
