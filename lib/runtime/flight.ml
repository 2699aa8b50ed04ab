(* Flight recorder (see flight.mli for the contract).

   A mutex-guarded ring of immutable snapshot records.  Recording is a
   telemetry snapshot — service-interval cadence, so
   the mutex discipline of [Metrics] applies: simple beats clever. *)

type snap = {
  f_seq : int;
  f_ts : float;
  f_uptime_ns : int;
  f_reason : string;
  f_counters : (string * int) list;
  f_extra : (string * float) list;
}

type t = {
  cap : int;
  ring : snap option array;
  mutable count : int; (* total ever recorded *)
  mutex : Mutex.t;
}

let create ?(capacity = 120) () =
  if capacity < 2 then invalid_arg "Flight.create: capacity must be >= 2";
  { cap = capacity; ring = Array.make capacity None; count = 0;
    mutex = Mutex.create () }

let capacity t = t.cap

let recorded t = t.count

let record ?(extra = []) t ~reason =
  let counters = Telemetry.to_assoc (Telemetry.snapshot ()) in
  Mutex.lock t.mutex;
  let s =
    {
      f_seq = t.count + 1;
      f_ts = Unix.gettimeofday ();
      f_uptime_ns = Telemetry.uptime_ns ();
      f_reason = reason;
      f_counters = counters;
      f_extra = extra;
    }
  in
  t.ring.(t.count mod t.cap) <- Some s;
  t.count <- t.count + 1;
  Mutex.unlock t.mutex

let snapshots t =
  Mutex.lock t.mutex;
  let stored = Int.min t.count t.cap in
  let first = t.count - stored in
  let out =
    List.init stored (fun i ->
        match t.ring.((first + i) mod t.cap) with
        | Some s -> s
        | None -> assert false)
  in
  Mutex.unlock t.mutex;
  out

let render_snap b s =
  Buffer.add_string b
    (Printf.sprintf
       {|{"seq":%d,"ts":%.6f,"uptime_ns":%d,"reason":"%s","counters":{|}
       s.f_seq s.f_ts s.f_uptime_ns (Trace.escape_json s.f_reason));
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf {|"%s":%d|} k v))
    s.f_counters;
  Buffer.add_string b "},\"extra\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf {|"%s":%g|} (Trace.escape_json k) v))
    s.f_extra;
  Buffer.add_string b "}}"

let dump_json t =
  let snaps = snapshots t in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       {|{"schema_version":1,"capacity":%d,"recorded":%d,"snapshots":[|}
       t.cap t.count);
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      render_snap b s)
    snaps;
  Buffer.add_string b "]}\n";
  Buffer.contents b

let dump_file t path =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (dump_json t);
  close_out oc;
  Sys.rename tmp path

(* Dump validator: structure plus the cross-snapshot invariants that
   make a dump trustworthy — strictly increasing seq, non-decreasing
   uptime, and monotone cumulative counters (Telemetry's contract).
   Used by `bds_probe flight-check` and the smoke scripts. *)
let validate body =
  let module J = Tiny_json in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match J.parse_result body with
  | Error e -> Error ("not JSON: " ^ e)
  | Ok root -> (
    let int_field name v =
      match Option.bind (J.member name v) J.to_float with
      | Some f -> Ok (int_of_float f)
      | None -> fail "missing numeric field %S" name
    in
    let ( let* ) = Result.bind in
    let* version = int_field "schema_version" root in
    if version <> 1 then fail "unsupported schema_version %d" version
    else
      let* cap = int_field "capacity" root in
      let* recorded = int_field "recorded" root in
      match Option.bind (J.member "snapshots" root) J.to_list with
      | None -> Error "missing snapshots array"
      | Some snaps ->
        let stored = List.length snaps in
        if stored > cap then
          fail "%d snapshots exceed capacity %d" stored cap
        else if stored > recorded then
          fail "%d snapshots exceed recorded count %d" stored recorded
        else begin
          (* prev: seq, uptime, counters of the previous snapshot *)
          let check prev s =
            let* prev_seq, prev_up, prev_counters = prev in
            let* seq = int_field "seq" s in
            let* up = int_field "uptime_ns" s in
            if seq <> prev_seq + 1 && prev_seq >= 0 then
              fail "seq %d does not follow %d" seq prev_seq
            else if up < prev_up then
              fail "uptime_ns went backwards at seq %d" seq
            else if J.member "reason" s = None then
              fail "snapshot %d missing reason" seq
            else
              match J.member "counters" s with
              | Some (J.Obj counters) ->
                let* () =
                  List.fold_left
                    (fun acc (k, v) ->
                      let* () = acc in
                      match (v, List.assoc_opt k prev_counters) with
                      | J.Num n, Some p when n < p ->
                        fail "counter %s went backwards at seq %d" k seq
                      | J.Num _, _ -> Ok ()
                      | _ -> fail "counter %s not a number at seq %d" k seq)
                    (Ok ()) counters
                in
                let nums =
                  List.filter_map
                    (fun (k, v) ->
                      match v with J.Num n -> Some (k, n) | _ -> None)
                    counters
                in
                Ok (seq, up, nums)
              | _ -> fail "snapshot %d missing counters object" seq
          in
          let* _ = List.fold_left check (Ok (-1, 0, [])) snaps in
          Ok stored
        end)

let validate_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | body -> validate body
  | exception Sys_error msg -> Error msg
