(** Circuit breaker over a sliding window of attempt outcomes.

    Protects the pool from retry storms: when the recent failure rate
    spikes, the breaker {e opens} and the scheduler sheds retries (the
    failing job resolves [Failed] immediately instead of burning pool
    time on attempts that will very likely fail again).  After a
    cooldown the breaker goes {e half-open} and admits one probe retry:
    success closes it, failure re-opens it for another cooldown.

    All methods take [now] explicitly (seconds, any monotonic-enough
    clock) so the state machine is deterministic under test.  The
    implementation is mutex-protected and callable from any thread. *)

type config = {
  window : int;  (** attempts remembered (sliding window size) *)
  min_samples : int;  (** no tripping before this many samples *)
  failure_threshold : float;
      (** open when [failures / samples >= threshold], in (0, 1] *)
  cooldown_s : float;  (** open -> half-open delay *)
}

val default_config : config
(** window 32, min_samples 8, threshold 0.5, cooldown 250ms. *)

type t

val create : config -> t

val record : t -> now:float -> ok:bool -> unit
(** Record one attempt outcome.  A failure may trip the breaker open; a
    success while half-open closes it (and clears the window). *)

val allow_retry : t -> now:float -> bool
(** Closed: always true.  Open: false until [cooldown_s] has elapsed,
    then the breaker turns half-open and this returns true exactly once
    per probe (concurrent callers race for the single probe slot). *)

val reset : t -> unit
(** Close the breaker and clear its window, as a successful half-open
    probe does. *)

val state : t -> now:float -> [ `Closed | `Open | `Half_open ]
(** Current state (advancing open -> half-open if the cooldown has
    elapsed at [now]). *)

val state_label : [ `Closed | `Open | `Half_open ] -> string
(** [closed] / [open] / [half_open]. *)
