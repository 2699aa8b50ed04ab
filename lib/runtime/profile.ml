(* Opt-in per-operation work/span profiler (see profile.mli).

   Activation mirrors [Trace]: one atomic bool, read once per
   instrumentation point, set from [BDS_PROFILE] at startup (empty or
   "0" is the explicit opt-out) or from [set_enabled] in tests.  Off,
   every hook is one atomic load and nothing else, so the hooks stay
   compiled into the library unconditionally.

   Attribution model (a Cilkview-flavoured estimate, not an exact DAG
   measurement):

   - an *op* is an outermost user-facing operation (Seq.map, Seq.scan,
     Psort.sort, a Stream fold...).  [with_op] is outermost-wins: nested
     ops — flatten calling to_array, a sort's merge calling a Seq op —
     fold into the enclosing op so wall time is never double-counted.
   - *wall* is the op's elapsed time on the calling thread.
   - *work* is the summed duration of the op's sequential leaves
     (scheduler chunks, block bodies, sort base cases), each recorded
     into the op's per-domain latency histogram.
   - *span* is estimated per parallel region (one [Runtime] primitive
     call) as the region's longest single leaf; the op's span is its
     serial time outside regions plus the sum of region maxima, clamped
     to [1, wall].  Purely sequential ops therefore get span = wall.
   - derived: parallelism = work / wall (achieved, "burdened"
     parallelism — on a 1-worker pool this is ~1.0 by construction);
     utilization = parallelism / workers; and a grain diagnostic from
     the fraction of leaf time spent in leaves shorter than
     [tiny_chunk_ns].

   Ambient state (the current op and an in-leaf flag) lives in DLS, per
   thread, like [Cancel.ambient]: nothing migrates it, since a join
   waits in place on the thread that forked.  [Pool] clears it via
   [ambient]/[set_ambient] around every task, so a task run while its
   thread waits inside an op or a leaf profiles into its own op, not
   the waiter's, and restores it afterwards.

   The clock is [Unix.gettimeofday] rebased to a process-start epoch
   (the [Trace] trick: keeps the float mantissa dense so the ns
   conversion stays µs-accurate).  OCaml's stdlib exposes no monotonic
   clock; µs resolution is plenty for leaves that the grain policy
   already sizes in the tens of µs. *)

let enabled_flag = Atomic.make (Env.flag "BDS_PROFILE")

let[@inline] enabled () = Atomic.get enabled_flag

let set_enabled b = Atomic.set enabled_flag b

let epoch = Unix.gettimeofday ()

let[@inline] now_ns () = int_of_float ((Unix.gettimeofday () -. epoch) *. 1e9)

(* ------------------------------------------------------------------ *)
(* Op registry *)

type op = {
  name : string;
  calls : int Atomic.t;
  wall_ns : int Atomic.t;
  span_ns : int Atomic.t;
  chunks : Histogram.t;  (* leaf durations; total_ns is the op's work *)
}

let registry_mutex = Mutex.create ()

let registry : (string, op) Hashtbl.t = Hashtbl.create 16

let find_op name =
  Mutex.lock registry_mutex;
  let op =
    match Hashtbl.find_opt registry name with
    | Some op -> op
    | None ->
      let op =
        {
          name;
          calls = Atomic.make 0;
          wall_ns = Atomic.make 0;
          span_ns = Atomic.make 0;
          chunks = Histogram.create ();
        }
      in
      Hashtbl.add registry name op;
      op
  in
  Mutex.unlock registry_mutex;
  op

let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.reset registry;
  Mutex.unlock registry_mutex

(* ------------------------------------------------------------------ *)
(* Ambient state *)

type ctx = {
  op : op;
  t0 : int;
  (* Mutated only by the op's own thread (ordinary sequential code),
     read once at [with_op]'s epilogue. *)
  mutable prim_wall : int;  (* summed wall of the op's parallel regions *)
  mutable prim_span : int;  (* summed longest-leaf of those regions *)
}

type dls = { mutable cur : ctx option; mutable in_leaf : bool }

let dls_key : dls Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { cur = None; in_leaf = false })

type ambient = { a_cur : ctx option; a_in_leaf : bool }

let no_ambient = { a_cur = None; a_in_leaf = false }

let ambient () =
  if not (enabled ()) then no_ambient
  else
    let d = Domain.DLS.get dls_key in
    match d.cur with
    | None when not d.in_leaf -> no_ambient
    | _ -> { a_cur = d.cur; a_in_leaf = d.in_leaf }

let set_ambient a =
  let d = Domain.DLS.get dls_key in
  d.cur <- a.a_cur;
  d.in_leaf <- a.a_in_leaf

(* ------------------------------------------------------------------ *)
(* Instrumentation *)

let with_op name f =
  if not (enabled ()) then f ()
  else begin
    let d = Domain.DLS.get dls_key in
    (* Outermost wins; leaves never open ops (a Stream fold inside a
       Seq block driver is already accounted as that block's leaf). *)
    if d.cur <> None || d.in_leaf then f ()
    else begin
      let op = find_op name in
      let ctx = { op; t0 = now_ns (); prim_wall = 0; prim_span = 0 } in
      d.cur <- Some ctx;
      let finish () =
        (Domain.DLS.get dls_key).cur <- None;
        let wall = Int.max 1 (now_ns () - ctx.t0) in
        Atomic.incr op.calls;
        ignore (Atomic.fetch_and_add op.wall_ns wall);
        let span = wall - ctx.prim_wall + ctx.prim_span in
        let span = if span < 1 then 1 else if span > wall then wall else span in
        ignore (Atomic.fetch_and_add op.span_ns span)
      in
      match f () with
      | v ->
        finish ();
        v
      | exception e ->
        (* Account cancelled/failed ops too: a run that dies half-way is
           exactly the one whose profile gets inspected. *)
        finish ();
        raise e
    end
  end

type region_data = {
  r_ctx : ctx;
  r_t0 : int;
  r_max_leaf : int Atomic.t;
}

type region = region_data option

let region_begin () =
  if not (enabled ()) then None
  else
    let d = Domain.DLS.get dls_key in
    match d.cur with
    | None -> None
    | Some ctx ->
      Some { r_ctx = ctx; r_t0 = now_ns (); r_max_leaf = Atomic.make 0 }

let region_end = function
  | None -> ()
  | Some r ->
    let w = Int.max 0 (now_ns () - r.r_t0) in
    let m = Int.min (Atomic.get r.r_max_leaf) w in
    r.r_ctx.prim_wall <- r.r_ctx.prim_wall + w;
    r.r_ctx.prim_span <- r.r_ctx.prim_span + m

let with_region f =
  match region_begin () with
  | None -> f None
  | Some _ as r -> (
    match f r with
    | v ->
      region_end r;
      v
    | exception e ->
      region_end r;
      raise e)

let leaf (r : region) f =
  match r with
  | None -> f ()
  | Some r ->
    let d = Domain.DLS.get dls_key in
    let saved = d.in_leaf in
    d.in_leaf <- true;
    let t0 = now_ns () in
    let finish () =
      (Domain.DLS.get dls_key).in_leaf <- saved;
      let dt = Int.max 0 (now_ns () - t0) in
      Histogram.record r.r_ctx.op.chunks ~ns:dt;
      let rec bump () =
        let cur = Atomic.get r.r_max_leaf in
        if dt > cur && not (Atomic.compare_and_set r.r_max_leaf cur dt) then
          bump ()
      in
      bump ()
    in
    (match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e)

let seq_op name f =
  if not (enabled ()) then f ()
  else
    let d = Domain.DLS.get dls_key in
    if d.in_leaf then f ()
    else
      match d.cur with
      (* Inside an op body, outside any leaf (e.g. a Stream fold driven
         directly from an op's spine): account it as a leaf of the
         enclosing op. *)
      | Some _ -> with_region (fun r -> leaf r f)
      | None -> with_op name (fun () -> with_region (fun r -> leaf r f))

(* ------------------------------------------------------------------ *)
(* Reporting *)

let tiny_chunk_ns = 5_000

let tiny_warn_fraction = 0.25

type row = {
  r_name : string;
  r_calls : int;
  r_wall_ns : int;
  r_work_ns : int;
  r_span_ns : int;
  r_chunks : int;
  r_p50_ns : int;
  r_p99_ns : int;
  r_max_chunk_ns : int;
  r_parallelism : float;
  r_tiny_fraction : float;  (* share of leaf time in leaves < tiny_chunk_ns *)
}

let rows () =
  Mutex.lock registry_mutex;
  let ops = Hashtbl.fold (fun _ op acc -> op :: acc) registry [] in
  Mutex.unlock registry_mutex;
  ops
  |> List.filter_map (fun op ->
         let calls = Atomic.get op.calls in
         if calls = 0 then None
         else begin
           let h = Histogram.snapshot op.chunks in
           let work = Histogram.total_ns h in
           let wall = Int.max 1 (Atomic.get op.wall_ns) in
           let tiny =
             if work = 0 then 0.
             else
               float_of_int (Histogram.time_below h ~threshold_ns:tiny_chunk_ns)
               /. float_of_int work
           in
           Some
             {
               r_name = op.name;
               r_calls = calls;
               r_wall_ns = wall;
               r_work_ns = work;
               r_span_ns = Atomic.get op.span_ns;
               r_chunks = Histogram.total_count h;
               r_p50_ns = Histogram.p50 h;
               r_p99_ns = Histogram.p99 h;
               r_max_chunk_ns = Histogram.max_ns h;
               r_parallelism = float_of_int work /. float_of_int wall;
               r_tiny_fraction = tiny;
             }
         end)
  |> List.sort (fun a b -> String.compare a.r_name b.r_name)

let grain_warning row =
  if row.r_chunks > 0 && row.r_tiny_fraction > tiny_warn_fraction then
    Some
      (Printf.sprintf
         "%s: chunks too small: %.0f%% of chunk time < %dus (raise \
          BDS_BLOCK_SIZE)"
         row.r_name
         (100. *. row.r_tiny_fraction)
         (tiny_chunk_ns / 1000))
  else None

let pp_ns n =
  let f = float_of_int n in
  if n < 1_000 then Printf.sprintf "%dns" n
  else if n < 1_000_000 then Printf.sprintf "%.1fus" (f /. 1e3)
  else if n < 1_000_000_000 then Printf.sprintf "%.1fms" (f /. 1e6)
  else Printf.sprintf "%.2fs" (f /. 1e9)

let render ~workers rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "profile report (%d worker%s)\n" workers
       (if workers = 1 then "" else "s"));
  Buffer.add_string b
    "op calls chunks p50 p99 work span parallelism utilization\n";
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%s %d %d %s %s %s %s %.1f %.2f\n" r.r_name r.r_calls
           r.r_chunks (pp_ns r.r_p50_ns) (pp_ns r.r_p99_ns) (pp_ns r.r_work_ns)
           (pp_ns r.r_span_ns) r.r_parallelism
           (r.r_parallelism /. float_of_int (Int.max 1 workers))))
    rows;
  List.iter
    (fun r ->
      match grain_warning r with
      | Some w -> Buffer.add_string b ("warning: " ^ w ^ "\n")
      | None -> ())
    rows;
  if rows = [] then
    Buffer.add_string b "(no ops recorded; set BDS_PROFILE=1 and run a pipeline)\n";
  Buffer.contents b

let render_json ~workers rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "{\"workers\":%d,\"ops\":[" workers);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"%s\",\"calls\":%d,\"chunks\":%d,\"wall_ns\":%d,\"work_ns\":%d,\"span_ns\":%d,\"p50_ns\":%d,\"p99_ns\":%d,\"max_chunk_ns\":%d,\"parallelism\":%.3f,\"utilization\":%.3f,\"tiny_fraction\":%.3f}"
           r.r_name r.r_calls r.r_chunks r.r_wall_ns r.r_work_ns r.r_span_ns
           r.r_p50_ns r.r_p99_ns r.r_max_chunk_ns r.r_parallelism
           (r.r_parallelism /. float_of_int (Int.max 1 workers))
           r.r_tiny_fraction))
    rows;
  Buffer.add_string b "]}";
  Buffer.contents b
