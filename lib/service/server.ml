(* Unix-socket front end (see server.mli). *)

module Telemetry = Bds_runtime.Telemetry
module Profile = Bds_runtime.Profile
module Metrics = Bds_runtime.Metrics
module Flight = Bds_runtime.Flight

let log_src = Logs.Src.create "bds.server" ~doc:"bds_serve socket front end"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  service : Service.t;
  path : string;
  listen_fd : Unix.file_descr;
  stopping : bool Atomic.t;
  (* POSTed jobs waiting for a WAIT, shared across connections. *)
  tickets : (int, Service.ticket) Hashtbl.t;
  tickets_m : Mutex.t;
  (* Flight recorder: the server owns the sampling cadence and the dump
     triggers; the ring itself is passive (lib/runtime/flight.ml). *)
  flight : Flight.t;
  flight_path : string option;
  flight_interval_s : float;
  metrics_path : string option;
  dump_requested : bool Atomic.t; (* set from the SIGQUIT handler *)
  sampler_stop : bool Atomic.t;
  mutable sampler : Thread.t option;
}

(* One snapshot of the service into the flight ring, with the gauges
   that are not in Telemetry (queue backlog, outstanding, breaker). *)
let flight_record t ~reason =
  let s = Service.summary t.service in
  let extra =
    [
      ("queue_depth", float_of_int s.Service.sm_queue_depth);
      ("outstanding", float_of_int s.Service.sm_outstanding);
    ]
  in
  Flight.record ~extra t.flight ~reason

let flight_dump t =
  match t.flight_path with
  | None -> ()
  | Some path -> (
    try Flight.dump_file t.flight path
    with Sys_error msg ->
      Log.err (fun m -> m "flight dump to %s failed: %s" path msg))

(* Refresh the service gauges and render the full OpenMetrics exposition:
   the METRICS response body. *)
let metrics_exposition t =
  Service.collect_metrics t.service;
  Metrics.render ()

let metrics_dump t =
  match t.metrics_path with
  | None -> ()
  | Some path -> (
    let body = metrics_exposition t in
    let tmp = path ^ ".tmp" in
    try
      let oc = open_out tmp in
      output_string oc body;
      close_out oc;
      Sys.rename tmp path
    with Sys_error msg ->
      Log.err (fun m -> m "metrics dump to %s failed: %s" path msg))

let create ?config ?flight_path ?(flight_interval_s = 1.0) ?metrics_path
    ~path () =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 64;
  let t =
    {
      service = Service.create ?config ();
      path;
      listen_fd;
      stopping = Atomic.make false;
      tickets = Hashtbl.create 64;
      tickets_m = Mutex.create ();
      flight = Flight.create ();
      flight_path;
      flight_interval_s = (if flight_interval_s < 0.05 then 0.05 else flight_interval_s);
      metrics_path;
      dump_requested = Atomic.make false;
      sampler_stop = Atomic.make false;
      sampler = None;
    }
  in
  (* A pool crash/heal is exactly the moment the recent window matters:
     snapshot and dump right away, from the healing thread. *)
  Service.on_degrade t.service (fun diag ->
      flight_record t ~reason:("degraded: " ^ diag);
      flight_dump t);
  t

let stop t =
  if not (Atomic.exchange t.stopping true) then
    (* Closing the listener makes the blocked [accept] fail, which is
       the wake-up; shutdown proper happens in [serve]'s exit path so a
       signal handler stays minimal. *)
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()

let request_flight_dump t = Atomic.set t.dump_requested true

(* The STATS payload: one-line JSON with schema_version (2), monotonic
   uptime_ns, the Service.summary fields and the jobs_* telemetry
   counters. *)
let stats_json t =
  let s = Service.summary t.service in
  let jobs =
    Telemetry.to_assoc (Telemetry.snapshot ())
    |> List.filter (fun (k, _) -> String.length k > 5 && String.sub k 0 5 = "jobs_")
    |> List.map (fun (k, v) -> Printf.sprintf "%S:%d" k v)
    |> String.concat ","
  in
  Printf.sprintf
    "{\"schema_version\":2,\"uptime_ns\":%d,\"workers\":%d,\"queue_depth\":%d,\"outstanding\":%d,\"breaker\":%S,\"jobs\":{%s}}"
    (Telemetry.uptime_ns ()) s.Service.sm_workers s.Service.sm_queue_depth
    s.Service.sm_outstanding s.Service.sm_breaker jobs

let remember t ticket =
  Mutex.lock t.tickets_m;
  Hashtbl.replace t.tickets (Service.id ticket) ticket;
  Mutex.unlock t.tickets_m

let recall t id =
  Mutex.lock t.tickets_m;
  let r = Hashtbl.find_opt t.tickets id in
  Mutex.unlock t.tickets_m;
  r

let respond_submit t req =
  match Service.submit t.service req with
  | Error (`Rejected r) -> Protocol.render_reject r
  | Error (`Bad_request msg) -> Protocol.render_bad msg
  | Ok ticket -> Protocol.render_outcome (Service.wait ticket)

let respond_post t req =
  match Service.submit t.service req with
  | Error (`Rejected r) -> Protocol.render_reject r
  | Error (`Bad_request msg) -> Protocol.render_bad msg
  | Ok ticket ->
    remember t ticket;
    Protocol.render_accepted (Service.id ticket)

let respond_wait t id =
  match recall t id with
  | None -> Protocol.render_bad (Printf.sprintf "unknown job id %d" id)
  | Some ticket -> Protocol.render_outcome (Service.wait ticket)

let handle_connection t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let send line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line -> (
      match Protocol.parse_command line with
      | Error msg ->
        send (Protocol.render_bad msg);
        loop ()
      | Ok (Protocol.Submit req) ->
        send (respond_submit t req);
        loop ()
      | Ok (Protocol.Post req) ->
        send (respond_post t req);
        loop ()
      | Ok (Protocol.Wait id) ->
        send (respond_wait t id);
        loop ()
      | Ok Protocol.Stats ->
        send ("STATS " ^ stats_json t);
        loop ()
      | Ok Protocol.Metrics ->
        (* Header line, then the exposition; its "# EOF" line is the
           wire terminator (Protocol docs). *)
        output_string oc "METRICS\n";
        output_string oc (metrics_exposition t);
        flush oc;
        loop ()
      | Ok Protocol.Quit -> send "BYE")
  in
  (try loop ()
   with e ->
     (* A dropped connection (EPIPE on send, etc.) must not kill the
        server; it only ends this conversation. *)
     Log.debug (fun m -> m "connection error: %s" (Printexc.to_string e)));
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Sampler: interval snapshots into the flight ring, periodic metrics
   file refresh, and servicing of SIGQUIT dump requests.  Sleeps in
   50ms slices so a dump request or shutdown is honoured promptly. *)
let sampler_loop t =
  let slice = 0.05 in
  let until = ref (Unix.gettimeofday () +. t.flight_interval_s) in
  while not (Atomic.get t.sampler_stop) do
    Thread.delay slice;
    if Atomic.exchange t.dump_requested false then begin
      flight_record t ~reason:"sigquit";
      flight_dump t;
      Log.app (fun m ->
          m "flight recorder dumped%s (%d snapshots recorded)"
            (match t.flight_path with
            | Some p -> " to " ^ p
            | None -> "")
            (Flight.recorded t.flight))
    end;
    if Unix.gettimeofday () >= !until then begin
      flight_record t ~reason:"interval";
      metrics_dump t;
      until := Unix.gettimeofday () +. t.flight_interval_s
    end
  done

let serve t =
  Log.app (fun m ->
      m "bds_serve listening on %s (capacity=%d runners=%d)" t.path
        (Service.config t.service).Service.capacity
        (Service.config t.service).Service.runners);
  flight_record t ~reason:"start";
  t.sampler <- Some (Thread.create sampler_loop t);
  let rec accept_loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
      ignore (Thread.create (fun () -> handle_connection t fd) ());
      accept_loop ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _)
      when Atomic.get t.stopping ->
      ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if Atomic.get t.stopping then () else accept_loop ()
  in
  accept_loop ();
  Log.app (fun m -> m "bds_serve stopping");
  (* Cancel outstanding jobs rather than draining: a signalled server
     should exit promptly, and every admitted job still resolves
     (Cancelled) before we return.  Service.shutdown flushes the trace
     recorder. *)
  Service.shutdown ~drain:false t.service;
  Atomic.set t.sampler_stop true;
  (match t.sampler with Some th -> Thread.join th | None -> ());
  (* Final snapshot after shutdown so the dump's last entry matches a
     final STATS scrape, then dump unconditionally. *)
  flight_record t ~reason:"shutdown";
  flight_dump t;
  metrics_dump t;
  if Profile.enabled () then
    prerr_string
      (Profile.render ~workers:(Bds_runtime.Runtime.num_workers ())
         (Profile.rows ()));
  (try Unix.unlink t.path with Unix.Unix_error _ -> ());
  Log.app (fun m -> m "bds_serve stopped")
