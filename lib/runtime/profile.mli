(** Opt-in per-operation work/span profiler.

    Set [BDS_PROFILE=1] (blank or ["0"] is the explicit opt-out, like
    [BDS_TRACE]/[BDS_CHAOS]) and every profiled operation — the [Seq]
    combinators, [Psort.sort], [Stream]'s linear folds — accumulates
    under its op name: call count, wall time, {e work} (summed duration
    of its sequential leaves, kept in a per-domain {!Histogram} so
    p50/p99/max leaf latency come for free), and a {e span} estimate
    (serial time plus each parallel region's longest leaf).  From these
    the report derives achieved parallelism (work/wall), per-worker
    utilization, and a Cilkview-style grain diagnostic ("chunks too
    small: 41% of chunk time < 5µs").

    Disabled, every instrumentation point costs one atomic load.  The
    ambient op context is per thread exactly like [Cancel.ambient]:
    nothing migrates it, and [Pool] clears it around every task via
    {!ambient}/{!set_ambient}. *)

val enabled : unit -> bool
(** [BDS_PROFILE] / {!set_enabled}. *)

val set_enabled : bool -> unit
(** Override [BDS_PROFILE] at runtime (tests, [bds_probe report]). *)

(** {2 Instrumentation points} *)

val with_op : string -> (unit -> 'a) -> 'a
(** [with_op name f] runs [f] as profiled operation [name].  Outermost
    wins: when an op is already open on this thread (or [f] runs inside a
    profiled leaf), [f] just runs — its time folds into the enclosing
    op. *)

type region
(** One parallel region (a [Runtime] primitive call) inside an op.
    [None]-like when profiling is off or no op is open, making the hook
    free to thread through uninstrumented paths. *)

val with_region : (region -> 'a) -> 'a
(** [with_region f] opens a region, runs [f] with it (its leaves go
    there), and closes it, also on exception. *)

val leaf : region -> (unit -> 'a) -> 'a
(** [leaf r f] times [f] as one sequential leaf of [r]'s op: the
    duration is recorded in the op's latency histogram (work) and
    CAS-maxed into the region (span).  Callable from any domain — worker
    leaves capture [r] in their closures.  While [f] runs the domain is
    marked in-leaf, so nested {!with_op}/{!seq_op} calls stay free. *)

val seq_op : string -> (unit -> 'a) -> 'a
(** Profile a sequential operation (e.g. a [Stream] fold): outermost, it
    opens op [name] and records the whole run as a single leaf
    (work = wall, parallelism 1); under an open op it records a leaf of
    that op; inside a profiled leaf it is free. *)

(** {2 Ambient state} — [Pool] clears it around every task; same
    contract as [Cancel.ambient]/[Cancel.set_ambient]. *)

type ambient

val no_ambient : ambient

val ambient : unit -> ambient

val set_ambient : ambient -> unit

(** {2 Reporting} *)

val tiny_chunk_ns : int
(** Leaves shorter than this (5µs) count toward the grain diagnostic. *)

val tiny_warn_fraction : float
(** Warn when tiny leaves hold more than this share (0.25) of work. *)

type row = {
  r_name : string;
  r_calls : int;
  r_wall_ns : int;  (** summed wall time of outermost calls *)
  r_work_ns : int;  (** summed leaf durations *)
  r_span_ns : int;  (** summed critical-path estimates *)
  r_chunks : int;  (** leaves recorded *)
  r_p50_ns : int;  (** median leaf latency *)
  r_p99_ns : int;
  r_max_chunk_ns : int;
  r_parallelism : float;  (** work / wall *)
  r_tiny_fraction : float;  (** share of work in leaves < {!tiny_chunk_ns} *)
}

val rows : unit -> row list
(** One row per op with at least one completed call, sorted by name. *)

val grain_warning : row -> string option
(** The grain diagnostic for a row, when it trips. *)

val render : workers:int -> row list -> string
(** Human-readable table plus grain warnings ([bds_probe report]). *)

val render_json : workers:int -> row list -> string
(** Machine-readable form of {!render} ([bds_probe report --json]). *)

val reset : unit -> unit
(** Drop all recorded ops (test isolation). *)
