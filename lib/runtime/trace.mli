(** Chrome-trace observability for the runtime.

    When [BDS_TRACE=<file>] is set in the environment (or {!set_output}
    is called), every [Runtime] cancellation scope and every sequential
    grain chunk records a complete span — name, category, timestamp,
    duration, and the chunk's [\[lo, hi)] range — into a per-domain ring
    buffer.  {!flush} (called automatically at pool teardown, and at
    process exit when [BDS_TRACE] was set at startup) writes all buffers
    as Chrome trace-event JSON, loadable in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}, one track per domain.

    With tracing disabled an instrumentation point costs a single atomic
    boolean load.  Ring buffers hold a fixed number of events per domain
    and overwrite their oldest entries when full; the flushed JSON names
    each track with the number of events dropped, if any. *)

(** True when spans are being recorded. *)
val enabled : unit -> bool

(** [with_span ?cat ?lo ?hi name f] runs [f] and, if tracing is enabled,
    records its duration as a span.  [cat] defaults to ["scope"]; pass
    [~cat:"chunk"] with [lo]/[hi] for iteration chunks. *)
val with_span : ?cat:string -> ?lo:int -> ?hi:int -> string -> (unit -> 'a) -> 'a

(** Microseconds since the recorder's epoch — the timestamp base every
    recorded event uses.  For measuring a span whose start is only known
    after the fact (e.g. queue wait measured at dequeue), capture
    [now_us] bounds and record with {!emit_span}. *)
val now_us : unit -> float

(** [emit_span ?cat ?lo ?hi ?args_json name ~t0_us ~t1_us] records a
    complete span with explicit timestamps (from {!now_us}).
    [args_json], when non-empty, is a pre-rendered JSON fragment (e.g.
    [{|"tenant":"a"|}]) spliced into the event's ["args"] object — use
    {!escape_json} for the values.  No-op when tracing is disabled. *)
val emit_span :
  ?cat:string -> ?lo:int -> ?hi:int -> ?args_json:string -> string ->
  t0_us:float -> t1_us:float -> unit

(** [emit_flow step ~id name] records a Chrome-trace flow event —
    [`Start]/[`Step]/[`End] map to phases ["s"]/["t"]/["f"] — linking
    the spans of one logical operation (e.g. a job's admit → attempts →
    outcome) across threads under the correlation [id].  [cat] defaults
    to ["job"].  No-op when tracing is disabled. *)
val emit_flow :
  [ `Start | `Step | `End ] -> id:int -> ?cat:string -> ?args_json:string ->
  string -> unit

(** JSON string-escape (for building [args_json] fragments safely). *)
val escape_json : string -> string

(** Redirect (or, with [None], disable) trace output at runtime.
    Overrides the [BDS_TRACE] environment variable. *)
val set_output : string option -> unit

(** Discard all buffered events (test isolation). *)
val reset : unit -> unit

(** Write every buffered event to the configured output file as Chrome
    trace JSON.  A no-op when no output is configured.  Called by
    [Pool.teardown].  An unwritable file is reported on stderr
    ([warning: BDS_TRACE: could not write trace: ...]), never raised. *)
val flush : unit -> unit

(** [validate_file path] checks that [path] parses as JSON and is shaped
    like a Chrome trace (a top-level object whose ["traceEvents"] array
    holds well-formed events); returns the event count.  Backs
    [bds_probe trace-check] and the unit tests — no external JSON
    library required. *)
val validate_file : string -> (int, string) result

(** Like {!validate_file}, on an in-memory string. *)
val validate_string : string -> (int, string) result

(** [count_events_file path ~name] counts the events in a trace file
    whose ["name"] field equals [name] (e.g. ["block"] for the per-block
    spans of [Runtime.apply_blocks]).  Backs [bds_probe trace-count] and
    the granularity cram test. *)
val count_events_file : string -> name:string -> (int, string) result

(** [dropped_of_file path] reads the total number of events lost to ring
    wrap-around from the trace's top-level ["bdsDroppedEvents"] key
    (per-domain counts are also flushed as ["bds_dropped_events"]
    metadata events).  Traces written before that key existed read as 0.
    Backs the drop warning of [bds_probe trace-check]. *)
val dropped_of_file : string -> (int, string) result

(** [flows_of_file path] inspects the flow events of a trace and returns
    [(flows, disconnected)]: the number of distinct flow ids, and the
    (sorted) ids lacking a start or an end anchor.  A job flow emitted
    by the service is connected iff its admit ([`Start]) and outcome
    ([`End]) events both survived the ring.  Backs the job-flow check of
    [bds_probe trace-check] and the service trace round-trip test. *)
val flows_of_file : string -> (int * int list, string) result

(** Test backdoors — not part of the public contract. *)
module For_testing : sig
  (** [(name, cat)] of every buffered event, across all domains. *)
  val events : unit -> (string * string) list
end
