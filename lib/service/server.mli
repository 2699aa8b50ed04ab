(** Unix-domain-socket front end for {!Service}, speaking {!Protocol}.

    One accept loop, one sys-thread per connection.  {!stop} is safe to
    call from a signal handler: it atomically flips the stopping flag
    and closes the listening socket, which unblocks the accept loop; the
    loop then shuts the service down (cancelling outstanding jobs),
    which flushes the trace recorder, and emits the profiler report if
    profiling is enabled — so a [bds_serve] killed by SIGINT/SIGTERM
    never silently truncates its observability output.

    The server also owns the service's {!Bds_runtime.Flight} recorder:
    a sampler thread snapshots telemetry + queue gauges every
    [flight_interval_s] (default 1s), and the ring is dumped to
    [flight_path] on {!request_flight_dump} (wired to SIGQUIT in
    [bds_serve]), on pool degradation, and at shutdown.  When
    [metrics_path] is set, the sampler also rewrites that file with a
    fresh OpenMetrics exposition each interval (atomic tmp + rename). *)

type t

val create :
  ?config:Service.config ->
  ?flight_path:string ->
  ?flight_interval_s:float ->
  ?metrics_path:string ->
  path:string ->
  unit ->
  t
(** Bind and listen on the Unix socket at [path] (unlinking any stale
    socket file first) and start the backing {!Service}.  Without
    [flight_path] the flight ring still records (it is cheap) but is
    never written to disk.  [flight_interval_s] is clamped to >= 50ms.
    @raise Unix.Unix_error if the bind fails. *)

val serve : t -> unit
(** Run the accept loop until {!stop}.  Returns after the service has
    fully shut down (every admitted job resolved, trace flushed), the
    final flight snapshot is dumped, and the socket file is removed. *)

val stop : t -> unit
(** Request shutdown.  Async-signal-safe in the OCaml sense (runs from
    [Sys.signal] handlers); idempotent. *)

val request_flight_dump : t -> unit
(** Ask the sampler to snapshot ("sigquit") and dump the flight ring at
    its next 50ms slice.  Async-signal-safe (one atomic store) — this is
    the SIGQUIT handler's body in [bds_serve]. *)
