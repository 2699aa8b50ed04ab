(** The service's workload catalogue: mapping a {!Job.request} to an
    executable pipeline body.

    A body is [attempt:int -> string]: it runs on a pool worker under
    the job's cancellation scope (so [Seq] pipelines inherit per-job
    cancellation through the ambient token) and returns the rendered
    result.  [attempt] is 1-based and lets deterministic fault
    workloads ([fail]) misbehave on early attempts only.

    Kinds (parameters in brackets, with defaults):
    - [sum  [n=100000]] — [reduce (+) (map ( *7 mod) (iota n))]
    - [scan [n=100000]] — [scan_incl] then [reduce]
    - [filter [n=100000]] — [filter even] then [reduce] (masked-region path)
    - [busy [ms=50]] — cancellation-polled busy loop of [ms]
      milliseconds (deadline / cancel fodder)
    - [fail [k=1] [n=1000]] — raises {!Job.Transient} on the first [k]
      attempts, then behaves like [sum n] (deterministic retry fodder)
    - [boom] — always raises (non-retryable terminal failure)
    - [echo [msg=pong]] — returns [msg] immediately *)

val build : Job.request -> (attempt:int -> string, string) result
(** [Error msg] on an unknown kind or malformed parameter — callers
    surface it as a typed [bad_request] before admission. *)

val kinds : string list
(** Known workload names, for usage messages. *)
