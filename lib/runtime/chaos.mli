(** Deterministic chaos injection for the task pool.

    Controlled by the [BDS_CHAOS] environment variable:

    {v
    BDS_CHAOS="seed=<int>,p=<float>,kinds=<kind>[+<kind>...]"
    v}

    where [<kind>] is one of:

    - [raise]  — a scheduled task raises {!Injected_fault} instead of
                 running its body (exercises exception containment and
                 cancellation paths);
    - [delay]  — a task body is preceded by a short busy-wait (shakes
                 schedule interleavings and steal/suspend races);
    - [starve] — a steal attempt spuriously fails (exercises the idle /
                 retry protocol and overflow draining);
    - [jobs]   — an admitted service job is spuriously cancelled or
                 delayed just before an attempt starts (exercises the
                 retry-with-backoff and deadline paths of
                 [lib/service]; see {!point_job}).

    Fields may appear in any order; [seed] defaults to [1], [p] (the
    per-site fault probability, in [0..1]) defaults to [0.01], and [kinds]
    defaults to [delay+starve] — the semantics-preserving kinds, so the
    full test suite can run under chaos and still check exact results.
    The empty (or blank) string is the explicit opt-out: [BDS_CHAOS=''] disables
    chaos (handy for pinning chaos off in one command of a sweep whose
    environment sets it globally).  A malformed value disables chaos and
    is reported by {!describe}.

    Fault decisions come from a per-domain splitmix64 stream derived from
    the seed, so a given seed yields a reproducible fault plan per domain
    (modulo which domain executes which task). *)

type kind = Raise | Delay | Starve | Jobs

type config = { seed : int; p : float; kinds : kind list }

(** Raised inside a task when a [raise]-kind fault fires; the payload is
    the global fault counter at injection time. *)
exception Injected_fault of int

(** The active configuration ([None] when chaos is off). *)
val config : unit -> config option

(** Override the configuration programmatically (tests); [None] turns
    chaos off.  Resets per-domain fault streams. *)
val set_config : config option -> unit

(** Parse a [BDS_CHAOS]-formatted string.  [Ok None] for the empty (or
    all-blank) string — the explicit chaos-off opt-out. *)
val parse : string -> (config option, string) result

(** One line describing the active configuration, e.g.
    ["chaos: seed=7 p=0.500 kinds=raise+delay+starve"] or ["chaos: off"];
    a parse failure of [BDS_CHAOS] is mentioned here. *)
val describe : unit -> string

(** Fault point at the start of a task body: may busy-wait ([delay]) or
    raise {!Injected_fault} ([raise]).  No-op when chaos is off. *)
val point_task : unit -> unit

(** Fault point in the steal path: true when this steal attempt should
    spuriously fail ([starve]).  Always false when chaos is off. *)
val starve_steal : unit -> bool

(** Fault point at the start of a service job attempt ([jobs] kind):
    [`Cancel n] asks the caller to cancel the attempt (payload: the
    global fault counter, for {!Injected_fault}), [`Delay s] asks it to
    sleep [s] seconds before starting.  [`None] when chaos is off or
    the [jobs] kind is not active. *)
val point_job : unit -> [ `None | `Cancel of int | `Delay of float ]
