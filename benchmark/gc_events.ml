(* GC activity of every domain, read from OCaml's runtime events.

   A pause is a domain's outermost runtime phase other than waiting on a
   condition: a major slice, a stop-the-world section it leads, or the
   handling of another domain's stop-the-world request.  Minor
   collections and major cycles are stop-the-world, so every domain sees
   each one; the busiest ring counts them. *)

module RE = Runtime_events

type t = {
  cursor : RE.cursor;
  open_phases : (int, int * float) Hashtbl.t;  (* ring -> depth, outermost start ns *)
  mutable pauses : (int * float * float) list;  (* ring, start ns, end ns *)
  minors : (int, int) Hashtbl.t;
  cycles : (int, int) Hashtbl.t;
  mutable lost : int;
}

let bump tbl ring = Hashtbl.replace tbl ring (1 + Option.value (Hashtbl.find_opt tbl ring) ~default:0)
let ns ts = Int64.to_float (RE.Timestamp.to_int64 ts)

let runtime_begin t ring ts phase =
  (match phase with
  | RE.EV_MINOR -> bump t.minors ring
  | RE.EV_MAJOR_GC_CYCLE_DOMAINS -> bump t.cycles ring
  | _ -> ());
  match (Hashtbl.find_opt t.open_phases ring, phase) with
  | None, RE.EV_DOMAIN_CONDITION_WAIT -> ()
  | None, _ -> Hashtbl.replace t.open_phases ring (1, ns ts)
  | Some (d, t0), _ -> Hashtbl.replace t.open_phases ring (d + 1, t0)

let runtime_end t ring ts _phase =
  match Hashtbl.find_opt t.open_phases ring with
  | None -> ()
  | Some (d, t0) when d > 1 -> Hashtbl.replace t.open_phases ring (d - 1, t0)
  | Some (_, t0) ->
    Hashtbl.remove t.open_phases ring;
    t.pauses <- (ring, t0, ns ts) :: t.pauses

let make () =
  RE.start ();
  {
    cursor = RE.create_cursor None;
    open_phases = Hashtbl.create 8;
    pauses = [];
    minors = Hashtbl.create 8;
    cycles = Hashtbl.create 8;
    lost = 0;
  }

let poll t =
  let callbacks =
    RE.Callbacks.create ~runtime_begin:(runtime_begin t) ~runtime_end:(runtime_end t)
      ~lost_events:(fun _ n -> t.lost <- t.lost + n)
      ()
  in
  ignore (RE.read_poll t.cursor callbacks None : int)

(* Forget everything read so far. *)
let reset t =
  poll t;
  t.pauses <- [];
  Hashtbl.reset t.minors;
  Hashtbl.reset t.cycles;
  t.lost <- 0

let busiest tbl = Hashtbl.fold (fun _ n m -> max n m) tbl 0
let minor_collections t = busiest t.minors
let major_cycles t = busiest t.cycles
let pauses_us t = List.map (fun (_, t0, t1) -> (t1 -. t0) /. 1e3) t.pauses
let lost t = t.lost

(* The pauses as Chrome trace events, one track per ring. *)
let trace_events t =
  let tid ring = 1000 + ring in
  let rings = List.sort_uniq compare (List.map (fun (r, _, _) -> r) t.pauses) in
  List.map
    (fun r ->
      Printf.sprintf
        {|{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"gc, domain ring %d"}}|}
        (tid r) r)
    rings
  @ List.rev_map
      (fun (r, t0, t1) ->
        Printf.sprintf
          {|{"name":"gc pause","cat":"gc","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d}|}
          (Spans.ns_to_us t0) ((t1 -. t0) /. 1e3) (tid r))
      t.pauses
