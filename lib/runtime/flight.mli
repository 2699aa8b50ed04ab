(** Always-on flight recorder: a fixed-size ring of periodic runtime
    snapshots, dumped as JSON when something goes wrong.

    Each {!record} captures the cumulative {!Telemetry} counters, a
    reason tag and any extra caller-supplied gauges, into a ring that
    overwrites its oldest snapshot when full — so memory is bounded no
    matter how long the process runs, and a dump always holds the
    {e most recent} window.

    The module is passive: it owns no thread and installs no handlers.
    The server samples it on an interval and dumps on SIGQUIT, on pool
    degradation and at shutdown (see docs/SERVICE.md "Flight
    recorder"); being passive keeps it unit-testable and reusable by
    any other embedder.

    Snapshot counters are cumulative (Telemetry's contract), so deltas
    between consecutive snapshots are rates and the last snapshot is
    comparable against a final [STATS] scrape. *)

type t

val create : ?capacity:int -> unit -> t
(** A new recorder holding the last [capacity] (default 120) snapshots.
    Raises [Invalid_argument] when [capacity < 2] — a flight recorder
    that cannot show a delta records nothing worth dumping. *)

val capacity : t -> int

val recorded : t -> int
(** Total snapshots ever recorded (>= the number retained). *)

val record : ?extra:(string * float) list -> t -> reason:string -> unit
(** Capture one snapshot.  [reason] tags why ("interval", "sigquit",
    "degraded: ...", "shutdown"); [extra] carries embedder gauges
    (queue depth, outstanding jobs).  Thread-safe. *)

type snap = {
  f_seq : int;  (** 1-based sequence number, strictly increasing *)
  f_ts : float;  (** [Unix.gettimeofday] at capture *)
  f_uptime_ns : int;
  f_reason : string;
  f_counters : (string * int) list;  (** [Telemetry.to_assoc] order *)
  f_extra : (string * float) list;
}

val snapshots : t -> snap list
(** Retained snapshots, oldest first. *)

val dump_json : t -> string
(** The whole recorder as one JSON object: [schema_version], capacity,
    total recorded count, and the retained snapshots (oldest first). *)

val dump_file : t -> string -> unit
(** {!dump_json} to a file, atomically (tmp + rename): a dump raced by
    a crash never leaves a truncated file behind. *)

val validate : string -> (int, string) result
(** Check a dump: JSON shape, [schema_version] 1, snapshot count within
    capacity/recorded bounds, strictly consecutive [seq], non-decreasing
    [uptime_ns], and monotone cumulative counters.  [Ok n] is the number
    of retained snapshots. *)

val validate_file : string -> (int, string) result
(** {!validate} on a file's contents ([Error] on read failure too). *)
