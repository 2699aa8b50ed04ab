(* Chrome-trace scope/chunk recorder (see trace.mli for the contract).

   When enabled ([BDS_TRACE=<file>], or [set_output] from tests), every
   Runtime scope and sequential chunk records one complete ("ph":"X")
   event — name, category, start timestamp, duration, optional [lo,hi)
   iteration range — into a per-domain ring buffer.  Recording is a few
   domain-local stores; nothing is shared, nothing is flushed on the hot
   path.  When disabled, the only cost at an instrumentation point is
   one atomic bool load.

   [flush] serialises every ring into Chrome's trace-event JSON format
   (the "traceEvents" array of chrome://tracing / Perfetto), one track
   ("tid") per domain.  Pool teardown calls it, so any program that ends
   with [Runtime.shutdown] — the bench harness, bds_probe, the tests —
   writes its trace without further plumbing; an [at_exit] hook covers
   programs that never tear the pool down explicitly.

   Rings are fixed-capacity (events per domain) and overwrite their
   oldest events when full; the flushed JSON reports how many were
   dropped per domain so a truncated trace is never mistaken for a
   complete one. *)

let capacity = 16384 (* events per domain; must be a power of two *)

type ring = {
  dom : int;
  names : string array;
  cats : string array;
  ts : float array; (* start, µs since [epoch] *)
  dur : float array; (* µs *)
  lo : int array; (* iteration range args; min_int = absent *)
  hi : int array;
  ph : Bytes.t; (* event phase: 'X' complete, 's'/'t'/'f' flow *)
  fid : int array; (* flow id; min_int = absent *)
  extra : string array; (* pre-rendered JSON args fragment; "" = absent *)
  mutable count : int; (* total events ever recorded on this ring *)
}

(* ------------------------------------------------------------------ *)
(* State *)

(* A blank value is the explicit opt-out (mirroring BDS_CHAOS=''), so
   a tracing sweep can pin tracing off for one command. *)
let output : string option Atomic.t = Atomic.make (Env.get "BDS_TRACE")

let enabled_flag = Atomic.make (Atomic.get output <> None)

let[@inline] enabled () = Atomic.get enabled_flag

let epoch = Unix.gettimeofday ()

let now_us () = (Unix.gettimeofday () -. epoch) *. 1e6

let registry_mutex = Mutex.create ()

let registry : ring list ref = ref []

let make_ring dom =
  {
    dom;
    names = Array.make capacity "";
    cats = Array.make capacity "";
    ts = Array.make capacity 0.0;
    dur = Array.make capacity 0.0;
    lo = Array.make capacity min_int;
    hi = Array.make capacity min_int;
    ph = Bytes.make capacity 'X';
    fid = Array.make capacity min_int;
    extra = Array.make capacity "";
    count = 0;
  }

(* Rings are big (6 arrays x capacity), so they are allocated on a
   domain's first *recorded* event, not eagerly for every domain of a
   tracing-off process. *)
let key : ring option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let local_ring () =
  let cell = Domain.DLS.get key in
  match !cell with
  | Some r -> r
  | None ->
    let r = make_ring (Domain.self () :> int) in
    Mutex.lock registry_mutex;
    registry := r :: !registry;
    Mutex.unlock registry_mutex;
    cell := Some r;
    r

let record_full name cat ph fid extra t0 t1 lo hi =
  let r = local_ring () in
  let i = r.count land (capacity - 1) in
  r.names.(i) <- name;
  r.cats.(i) <- cat;
  r.ts.(i) <- t0;
  r.dur.(i) <- t1 -. t0;
  r.lo.(i) <- lo;
  r.hi.(i) <- hi;
  Bytes.set r.ph i ph;
  r.fid.(i) <- fid;
  r.extra.(i) <- extra;
  r.count <- r.count + 1

let record name cat t0 t1 lo hi = record_full name cat 'X' min_int "" t0 t1 lo hi

let emit_span ?(cat = "scope") ?(lo = min_int) ?(hi = min_int)
    ?(args_json = "") name ~t0_us ~t1_us =
  if enabled () then record_full name cat 'X' min_int args_json t0_us t1_us lo hi

let emit_flow step ~id ?(cat = "job") ?(args_json = "") name =
  if enabled () then begin
    let ph = match step with `Start -> 's' | `Step -> 't' | `End -> 'f' in
    let t = now_us () in
    record_full name cat ph id args_json t t min_int min_int
  end

let with_span ?(cat = "scope") ?(lo = min_int) ?(hi = min_int) name f =
  if not (enabled ()) then f ()
  else begin
    let t0 = now_us () in
    match f () with
    | v ->
      record name cat t0 (now_us ()) lo hi;
      v
    | exception e ->
      (* Record the span even when it unwinds: cancelled scopes are
         exactly the ones worth seeing in a trace. *)
      record name cat t0 (now_us ()) lo hi;
      raise e
  end

let set_output path =
  Atomic.set output path;
  Atomic.set enabled_flag (path <> None)

let reset () =
  Mutex.lock registry_mutex;
  let rings = !registry in
  Mutex.unlock registry_mutex;
  List.iter (fun r -> r.count <- 0) rings

(* ------------------------------------------------------------------ *)
(* Flushing *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let escape_json = escape

let write_events oc =
  Mutex.lock registry_mutex;
  let rings = !registry in
  Mutex.unlock registry_mutex;
  let pid = Unix.getpid () in
  let first = ref true in
  let emit fmt =
    Printf.ksprintf
      (fun s ->
        if !first then first := false else output_string oc ",\n";
        output_string oc s)
      fmt
  in
  let total = ref 0 in
  let total_dropped = ref 0 in
  List.iter
    (fun r ->
      let dropped = Int.max 0 (r.count - capacity) in
      total_dropped := !total_dropped + dropped;
      let label =
        if dropped = 0 then Printf.sprintf "domain %d" r.dom
        else Printf.sprintf "domain %d (%d events dropped)" r.dom dropped
      in
      emit
        {|{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"%s"}}|}
        pid r.dom (escape label);
      (* Machine-readable per-domain drop count: the thread_name label
         above is for humans in the trace viewer, this metadata event is
         what [dropped_of_file] and `bds_probe trace-check` read. *)
      emit
        {|{"name":"bds_dropped_events","ph":"M","pid":%d,"tid":%d,"args":{"dropped_events":%d}}|}
        pid r.dom dropped;
      let stored = Int.min r.count capacity in
      for i = 0 to stored - 1 do
        incr total;
        let args =
          (* [lo,hi) range and any pre-rendered fragment merge into one
             "args" object; both are optional. *)
          let range =
            if r.lo.(i) = min_int then ""
            else Printf.sprintf {|"lo":%d,"hi":%d|} r.lo.(i) r.hi.(i)
          in
          let fields =
            match (range, r.extra.(i)) with
            | "", "" -> ""
            | f, "" | "", f -> f
            | a, b -> a ^ "," ^ b
          in
          if fields = "" then "" else Printf.sprintf {|,"args":{%s}|} fields
        in
        match Bytes.get r.ph i with
        | 'X' ->
          emit {|{"name":"%s","cat":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d%s}|}
            (escape r.names.(i)) (escape r.cats.(i)) r.ts.(i) r.dur.(i) pid r.dom args
        | ph ->
          (* Flow events: 's' start / 't' step / 'f' end, correlated by
             "id".  The end event binds to the enclosing slice ("bp":"e")
             so Perfetto draws the arrow into the terminal span. *)
          let bp = if ph = 'f' then {|,"bp":"e"|} else "" in
          emit {|{"name":"%s","cat":"%s","ph":"%c","id":%d,"ts":%.3f,"pid":%d,"tid":%d%s%s}|}
            (escape r.names.(i)) (escape r.cats.(i)) ph r.fid.(i) r.ts.(i) pid r.dom bp args
      done)
    rings;
  (!total, !total_dropped)

(* An unwritable path warns instead of raising: flush runs in pool
   teardown and at exit, where an exception would abort the program's
   own shutdown. *)
let flush () =
  match Atomic.get output with
  | None -> ()
  | Some path -> (
    try
      Out_channel.with_open_text path (fun oc ->
          output_string oc "{\"traceEvents\":[\n";
          let _n, dropped = write_events oc in
          Printf.fprintf oc
            "\n],\"bdsDroppedEvents\":%d,\"displayTimeUnit\":\"ms\"}\n" dropped)
    with Sys_error e ->
      Printf.eprintf "warning: BDS_TRACE: could not write trace: %s\n%!" e)

(* Programs that exit without tearing the pool down still get their
   trace.  Registered only when BDS_TRACE was set at startup; tests that
   enable tracing via [set_output] flush explicitly. *)
let () = if enabled () then at_exit flush

(* ------------------------------------------------------------------ *)
(* Trace-JSON validation (used by `bds_probe trace-check` and the unit
   tests), on the shared dependency-free parser [Tiny_json]. *)

(* The "traceEvents" array of a trace document: the one reader under
   every checker below. *)
let events_of_string s =
  match Tiny_json.parse s with
  | exception Tiny_json.Bad e -> Error ("not valid JSON: " ^ e)
  | Tiny_json.Obj fields -> (
    match List.assoc_opt "traceEvents" fields with
    | Some (Tiny_json.Arr events) -> Ok events
    | Some _ -> Error "\"traceEvents\" is not an array"
    | None -> Error "missing \"traceEvents\" key")
  | _ -> Error "top level is not an object"

(* [of_string] over the contents of [path]; an unreadable file is an
   [Error] with the system's message. *)
let of_file of_string path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> of_string s

let validate_string s =
  let check_event = function
    | Tiny_json.Obj ev ->
      let has k = List.mem_assoc k ev in
      if not (has "name" && has "ph" && has "pid" && has "tid") then
        Error "event missing one of name/ph/pid/tid"
      (* Complete events additionally carry a timestamp/duration. *)
      else if
        List.assoc_opt "ph" ev = Some (Tiny_json.Str "X")
        && not (has "ts" && has "dur")
      then Error "X event missing ts/dur"
      else Ok ()
    | _ -> Error "event is not an object"
  in
  let rec go n = function
    | [] -> Ok n
    | ev :: tl -> ( match check_event ev with Ok () -> go (n + 1) tl | Error _ as e -> e)
  in
  Result.bind (events_of_string s) (go 0)

let validate_file = of_file validate_string

let count_events_string s ~name =
  Result.map
    (List.fold_left
       (fun n ev ->
         match ev with
         | Tiny_json.Obj fields
           when List.assoc_opt "name" fields = Some (Tiny_json.Str name) ->
           n + 1
         | _ -> n)
       0)
    (events_of_string s)

let count_events_file path ~name = of_file (count_events_string ~name) path

(* Total events dropped to ring wrap-around, from the top-level
   "bdsDroppedEvents" key the flusher writes.  Traces from before that
   key existed read as 0 dropped rather than erroring: absence of
   evidence of drops is how those files were always interpreted. *)
let dropped_of_string s =
  match Tiny_json.parse_result s with
  | Error e -> Error ("not valid JSON: " ^ e)
  | Ok v -> (
    match Tiny_json.member "bdsDroppedEvents" v with
    | Some (Tiny_json.Num f) -> Ok (int_of_float f)
    | Some _ -> Error "\"bdsDroppedEvents\" is not a number"
    | None -> ( match v with Tiny_json.Obj _ -> Ok 0 | _ -> Error "top level is not an object"))

let dropped_of_file = of_file dropped_of_string

(* Flow connectivity: group the 's'/'t'/'f' events by "id" and report
   which flows are missing their start or end anchor.  A connected flow
   is one with at least one 's' and at least one 'f'; 't' steps are
   optional.  Backs `bds_probe trace-check`'s job-flow check and the
   service round-trip test. *)
let flows_of_string s =
  Result.map
    (fun events ->
      let tbl : (int, bool * bool) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun ev ->
          match ev with
          | Tiny_json.Obj fields -> (
            match (List.assoc_opt "ph" fields, List.assoc_opt "id" fields) with
            | Some (Tiny_json.Str ph), Some (Tiny_json.Num id)
              when ph = "s" || ph = "t" || ph = "f" ->
              let id = int_of_float id in
              let s0, f0 =
                Option.value (Hashtbl.find_opt tbl id) ~default:(false, false)
              in
              Hashtbl.replace tbl id (s0 || ph = "s", f0 || ph = "f")
            | _ -> ())
          | _ -> ())
        events;
      let disconnected =
        Hashtbl.fold (fun id (s, f) acc -> if s && f then acc else id :: acc) tbl []
        |> List.sort compare
      in
      (Hashtbl.length tbl, disconnected))
    (events_of_string s)

let flows_of_file = of_file flows_of_string

(* ------------------------------------------------------------------ *)
(* Test backdoors *)

module For_testing = struct
  let events () =
    Mutex.lock registry_mutex;
    let rings = !registry in
    Mutex.unlock registry_mutex;
    List.concat_map
      (fun r ->
        let stored = Int.min r.count capacity in
        List.init stored (fun i -> (r.names.(i), r.cats.(i))))
      rings
end
