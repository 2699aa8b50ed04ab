(* The benchmark's own spans, kept in memory and written out as a Chrome
   trace when a traced run ends.  A span is recorded around each call the
   benchmark makes into a layer; spans of one job share the job's id. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  name : string;
  floating : bool;
      (** recorded off the main thread and overlapping its siblings
          (service jobs): drawn on a lane of its own in the trace *)
  flow : int;  (** job id linking the span's start and end; 0 for none *)
  t0 : float;  (** µs since [epoch_ns] *)
  t1 : float;
  args : string;  (** pre-rendered JSON fields, or "" *)
}

(* Monotonic nanoseconds: the clock OCaml's runtime events are stamped
   with, so GC phases line up with the spans. *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())
let epoch_ns = now_ns ()
let ns_to_us ns = (ns -. epoch_ns) /. 1e3
let now_us () = ns_to_us (now_ns ())

(* [f ()] and the seconds it took. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, (now_ns () -. t0) /. 1e9)

let on = ref false
let lock = Mutex.create ()
let recorded : span list ref = ref []
let next_id = Atomic.make 1

(* The innermost open [with_span] of the main thread. *)
let current = ref 0

let set_enabled b = on := b

let fresh_id () = Atomic.fetch_and_add next_id 1
let add s = Mutex.protect lock (fun () -> recorded := s :: !recorded)

let record ?(floating = false) ?(flow = 0) ?(args = "") ~id ~parent name ~t0
    ~t1 =
  if !on then add { id; parent; name; floating; flow; t0; t1; args }

(* Main thread only: nests under the innermost open span. *)
let with_span ?(args = "") name f =
  if not !on then f ()
  else begin
    let id = fresh_id () and parent = !current in
    current := id;
    let t0 = now_us () in
    Fun.protect
      ~finally:(fun () ->
        current := parent;
        record ~args ~id ~parent name ~t0 ~t1:(now_us ()))
      f
  end

let spans () = Mutex.protect lock (fun () -> List.rev !recorded)

(* Self time of every span, by id. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s -> (s.id, Stats.self_time ~t0:s.t0 ~t1:s.t1 (Hashtbl.find_all children s.id)))
    spans

(* Per span name: (name, count, total µs, self µs), by name. *)
let summary spans =
  let self = Hashtbl.of_seq (List.to_seq (self_times spans)) in
  let acc = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let c, tot, sf = Option.value (Hashtbl.find_opt acc s.name) ~default:(0, 0., 0.) in
      Hashtbl.replace acc s.name (c + 1, tot +. (s.t1 -. s.t0), sf +. Hashtbl.find self s.id))
    spans;
  Hashtbl.fold (fun name (c, tot, sf) l -> (name, c, tot, sf) :: l) acc []
  |> List.sort compare

(* Lanes: main-thread spans on lane 0; each floating root takes the
   lowest lane free at its start, and its descendants follow it. *)
let lanes spans =
  let lane = Hashtbl.create 1024 in
  let free_at = ref [||] in
  let take t0 t1 =
    let rec find i =
      if i = Array.length !free_at then begin
        free_at := Array.append !free_at [| t1 |];
        i + 1
      end
      else if !free_at.(i) <= t0 then begin
        !free_at.(i) <- t1;
        i + 1
      end
      else find (i + 1)
    in
    find 0
  in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec lane_of s =
    match Hashtbl.find_opt lane s.id with
    | Some l -> l
    | None ->
      let l =
        match Hashtbl.find_opt by_id s.parent with
        | Some p when s.floating && p.floating -> lane_of p
        | _ when s.floating -> take s.t0 s.t1
        | _ -> 0
      in
      Hashtbl.replace lane s.id l;
      l
  in
  List.iter
    (fun s -> ignore (lane_of s))
    (List.sort (fun a b -> Float.compare a.t0 b.t0) spans);
  (lane, Array.length !free_at)

let escape = Bds_runtime.Trace.escape_json

(* Write [spans] plus [extra] (pre-rendered trace events, e.g. GC
   tracks) as a Chrome trace. *)
let write_chrome path ~extra spans =
  let self = Hashtbl.of_seq (List.to_seq (self_times spans)) in
  let lane, nlanes = lanes spans in
  let events = ref [] in
  let emit e = events := e :: !events in
  let thread tid label =
    emit
      (Printf.sprintf
         {|{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"%s"}}|}
         tid (escape label))
  in
  thread 0 "benchmark";
  for l = 1 to nlanes do
    thread l (Printf.sprintf "jobs %d" l)
  done;
  List.iter
    (fun s ->
      let tid = Hashtbl.find lane s.id in
      let args =
        Printf.sprintf {|"id":%d,"parent":%d,"self_us":%.3f%s|} s.id s.parent
          (Hashtbl.find self s.id)
          (if s.args = "" then "" else "," ^ s.args)
      in
      emit
        (Printf.sprintf
           {|{"name":"%s","cat":"benchmark","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{%s}}|}
           (escape s.name) s.t0 (s.t1 -. s.t0) tid args);
      if s.flow <> 0 then begin
        emit
          (Printf.sprintf
             {|{"name":"job","cat":"job","ph":"s","id":%d,"ts":%.3f,"pid":1,"tid":%d}|}
             s.flow s.t0 tid);
        emit
          (Printf.sprintf
             {|{"name":"job","cat":"job","ph":"f","bp":"e","id":%d,"ts":%.3f,"pid":1,"tid":%d}|}
             s.flow s.t1 tid)
      end)
    spans;
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"traceEvents\":[\n";
      output_string oc (String.concat ",\n" (List.rev_append !events extra));
      output_string oc "\n],\"bdsDroppedEvents\":0,\"displayTimeUnit\":\"ms\"}\n")
