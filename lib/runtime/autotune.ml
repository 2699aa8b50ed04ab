(* Online self-tuning granularity controller (see autotune.mli).

   Closes the profiler->Grain loop: with [Grain.adaptive] on, every
   auto-grained parallel region reports its leaf statistics
   ([Profile.region_stats]) and steal/task telemetry here at region end,
   and the next region of the same (op label, log2 size bucket, worker
   count) key runs at whatever grain the controller has converged to.

   Control law (per key, all state in one [entry]):

   - The tuned quantity is a single number: elements per sequential
     leaf.  Element loops ([Runtime.parallel_for]/[parallel_for_reduce])
     apply it as the leaf grain; block-based ops apply it as the block
     size ([Block.size] -> {!block_size}), whose block bodies are the
     leaves of [Runtime.apply_blocks] regions.  One quantity, one table.

   - Multiplicative increase/decrease with hysteresis: an observation
     whose mean leaf latency falls below [lo_leaf_ns] votes "too fine",
     one above [hi_leaf_ns] with genuinely starved parallelism (fewer
     than [balance_floor] leaves per worker, more than one worker, and
     thieves that came up empty) votes "too coarse"; only after
     [hysteresis_k] consecutive votes in the same direction does the
     grain double / halve, clamped to [[min_grain],
     min([max_grain], 2^(bucket+1))].  Anything in the window resets
     both streaks, so noise cannot walk the grain.

   - Probing: every [probe_period] in-window observations the controller
     schedules one region at a neighbouring grain (x2 / /2, alternating)
     and compares its wall-clock ns/element against the incumbent's EWMA;
     only a >10% win is adopted.  This is what tracks drift — a domain
     count change reshapes the key, but chaos-induced slowdown or data
     shape changes show up as a probe suddenly winning.

   - The table is a fixed-capacity, open-addressed array of atomics:
     lookups are lock-free CAS inserts, a full table simply stops
     adapting new keys, and every per-entry cell is an [Atomic.t] whose
     updates are intentionally racy — concurrent regions of the same key
     may each apply an observation, and the hysteresis clamp keeps the
     result sane regardless of interleaving.

   Explicit settings always win: a [BDS_GRAIN]/[set_leaf_grain] override
   disables leaf decisions, a non-default block policy disables block
   decisions ({!Grain.policy_is_default}), and an explicit [?grain]
   argument never reaches this module at all. *)

let min_n = 512
let min_grain = 16
let max_grain = 1 lsl 22
let balance_floor = 8

let lo_leaf_ns = Atomic.make 20_000
let hi_leaf_ns = Atomic.make 1_000_000
let hysteresis_k = Atomic.make 3
let probe_period_state = Atomic.make 16

let set_leaf_window ~lo_ns ~hi_ns =
  if lo_ns < 1 || hi_ns <= lo_ns then
    invalid_arg "Autotune.set_leaf_window: need 1 <= lo_ns < hi_ns";
  Atomic.set lo_leaf_ns lo_ns;
  Atomic.set hi_leaf_ns hi_ns

let set_hysteresis k =
  if k < 1 then invalid_arg "Autotune.set_hysteresis: K must be >= 1";
  Atomic.set hysteresis_k k

let hysteresis () = Atomic.get hysteresis_k

let set_probe_period p =
  if p < 2 then invalid_arg "Autotune.set_probe_period: period must be >= 2";
  Atomic.set probe_period_state p

let probe_period () = Atomic.get probe_period_state

let[@inline] enabled () = Grain.adaptive ()

(* Size bucket: floor(log2 n), shared with the latency histograms so one
   bucketing function covers both axes. *)
let size_bucket = Histogram.bucket_of_ns

(* ------------------------------------------------------------------ *)
(* The decision table *)

type entry = {
  e_op : string;
  e_bucket : int;
  e_workers : int;
  grain : int Atomic.t;  (* incumbent elements-per-leaf *)
  fine : int Atomic.t;  (* consecutive "too fine" votes *)
  coarse : int Atomic.t;  (* consecutive "too coarse" votes *)
  obs_count : int Atomic.t;  (* in-window observations at the incumbent *)
  ewma_npe : int Atomic.t;  (* EWMA wall ns/element x1024; 0 = unset *)
  probe_pending : int Atomic.t;  (* grain to try on the next decision; 0 = none *)
  probe_dir : int Atomic.t;  (* last probe direction, alternated *)
  adjustments : int Atomic.t;
  probes : int Atomic.t;
  last_leaf_ns : int Atomic.t;  (* mean leaf ns of the latest observation *)
  last_leaves : int Atomic.t;
}

(* Per-entry clamp: never tune outside [min_grain, max_grain], and never
   past the key's own size bucket (a grain above 2^(bucket+1) is just
   "one leaf", which the coarse rule can no longer distinguish). *)
let clamp_grain ~bucket g =
  let hi = Int.min max_grain (1 lsl (Int.min 61 (bucket + 1))) in
  let hi = Int.max hi min_grain in
  Int.max min_grain (Int.min hi g)

let capacity = 512  (* power of two; open addressing masks into it *)

let slots : entry option Atomic.t array =
  Array.init capacity (fun _ -> Atomic.make None)

let slot_of ~op ~bucket ~workers =
  Hashtbl.hash (op, bucket, workers) land (capacity - 1)

let fresh_entry ~op ~bucket ~workers ~init =
  {
    e_op = op;
    e_bucket = bucket;
    e_workers = workers;
    grain = Atomic.make (clamp_grain ~bucket init);
    fine = Atomic.make 0;
    coarse = Atomic.make 0;
    obs_count = Atomic.make 0;
    ewma_npe = Atomic.make 0;
    probe_pending = Atomic.make 0;
    probe_dir = Atomic.make (-1);
    adjustments = Atomic.make 0;
    probes = Atomic.make 0;
    last_leaf_ns = Atomic.make 0;
    last_leaves = Atomic.make 0;
  }

(* Lock-free find-or-create: linear probing from the key's hash slot;
   CAS claims an empty slot, a lost CAS re-reads the same slot (the
   winner may have inserted exactly our key).  A full table returns
   [None] — the caller falls back to the static heuristic. *)
let lookup ~op ~n ~workers ~init =
  let bucket = size_bucket n in
  let rec go i tries =
    if tries >= capacity then None
    else
      match Atomic.get slots.(i) with
      | Some e ->
        if e.e_op = op && e.e_bucket = bucket && e.e_workers = workers then
          Some e
        else go ((i + 1) land (capacity - 1)) (tries + 1)
      | None ->
        let e = fresh_entry ~op ~bucket ~workers ~init in
        if Atomic.compare_and_set slots.(i) None (Some e) then Some e
        else go i tries
  in
  go (slot_of ~op ~bucket ~workers) 0

let entry_grain e = Atomic.get e.grain

(* The grain the next region of this key should run at: the pending
   probe if one is scheduled (claimed by CAS so concurrent regions run
   at most one probe per schedule), the incumbent otherwise. *)
let pick e =
  let p = Atomic.get e.probe_pending in
  if p <> 0 && Atomic.compare_and_set e.probe_pending p 0 then p
  else Atomic.get e.grain

(* ------------------------------------------------------------------ *)
(* The control law *)

let[@inline] near a b =
  (* Within 25% of b: block sizes are re-derived as ceil(n/nb), so an
     incumbent-grain region does not reproduce the incumbent exactly. *)
  abs (a - b) * 4 <= b

let commit_adjustment e g =
  Atomic.set e.grain g;
  Atomic.set e.fine 0;
  Atomic.set e.coarse 0;
  (* The EWMA measured the old grain; re-learn at the new one. *)
  Atomic.set e.ewma_npe 0;
  Atomic.incr e.adjustments;
  Telemetry.incr_adapt_adjustments ()

let record e ~n ~used ~wall_ns ~leaves ~leaf_ns ~steal_attempts ~steals =
  if leaves > 0 && n > 0 then begin
    let mean_leaf = leaf_ns / leaves in
    Atomic.set e.last_leaf_ns mean_leaf;
    Atomic.set e.last_leaves leaves;
    let cur = Atomic.get e.grain in
    let npe = wall_ns * 1024 / n in
    if not (near used cur) then begin
      (* A probe (or a region decided before the last adjustment):
         evidence about a neighbouring grain.  Adopt only a clear win
         over the incumbent's EWMA — >10% lower wall ns/element. *)
      Atomic.incr e.probes;
      Telemetry.incr_adapt_probes ();
      let ew = Atomic.get e.ewma_npe in
      if ew > 0 && npe > 0 && npe * 10 < ew * 9 then
        commit_adjustment e (clamp_grain ~bucket:e.e_bucket used)
    end
    else begin
      let ew = Atomic.get e.ewma_npe in
      Atomic.set e.ewma_npe (if ew = 0 then npe else ((3 * ew) + npe) / 4);
      let k = Atomic.get hysteresis_k in
      let lo = Atomic.get lo_leaf_ns and hi = Atomic.get hi_leaf_ns in
      let bucket = e.e_bucket in
      if mean_leaf < lo && clamp_grain ~bucket (cur * 2) > cur then begin
        (* Leaves too small to amortize scheduling: vote to coarsen. *)
        Atomic.set e.coarse 0;
        let f = Atomic.get e.fine + 1 in
        if f >= k then commit_adjustment e (clamp_grain ~bucket (cur * 2))
        else Atomic.set e.fine f
      end
      else if
        mean_leaf > hi && e.e_workers > 1
        && leaves < balance_floor * e.e_workers
        && steal_attempts > steals
        && clamp_grain ~bucket (cur / 2) < cur
      then begin
        (* Leaves long AND too few to balance AND thieves came up empty:
           vote to refine.  On one worker (or with plenty of leaves)
           long leaves are pure win, so no vote. *)
        Atomic.set e.fine 0;
        let c = Atomic.get e.coarse + 1 in
        if c >= k then commit_adjustment e (clamp_grain ~bucket (cur / 2))
        else Atomic.set e.coarse c
      end
      else begin
        (* In the window: reset both streaks (hysteresis), and
           periodically schedule a probe at a neighbouring grain. *)
        Atomic.set e.fine 0;
        Atomic.set e.coarse 0;
        let o = Atomic.get e.obs_count + 1 in
        Atomic.set e.obs_count o;
        if o mod Atomic.get probe_period_state = 0 && Atomic.get e.ewma_npe > 0
        then begin
          let dir = -Atomic.get e.probe_dir in
          Atomic.set e.probe_dir dir;
          let cand =
            clamp_grain ~bucket (if dir > 0 then cur * 2 else cur / 2)
          in
          if cand <> cur then Atomic.set e.probe_pending cand
        end
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Region hooks (called by Runtime and Block.size) *)

type obs = {
  o_entry : entry;
  o_n : int;
  o_used : int;
  o_t0 : float;
  o_before : Telemetry.snapshot;
}

let[@inline] now () = Unix.gettimeofday ()

let leaf_init ~n ~workers =
  Int.max 1 (n / (Grain.chunks_per_worker * Int.max 1 workers))

let make_obs e ~n ~used =
  { o_entry = e; o_n = n; o_used = used; o_t0 = now ();
    o_before = Telemetry.snapshot () }

(* Leaf-grain decision for an auto-grained element loop: [None] defers
   to the static heuristic (adaptation off, BDS_GRAIN pinned, the loop
   too small to matter, no op label to key on, or a full table). *)
let leaf_decision ~n ~workers =
  if (not (enabled ())) || n < min_n || Grain.leaf_grain_override () <> None
  then None
  else
    match Profile.current_op_name () with
    | None -> None
    | Some op -> (
      match lookup ~op ~n ~workers ~init:(leaf_init ~n ~workers) with
      | None -> None
      | Some e ->
        let g = Int.min n (pick e) in
        Some (g, make_obs e ~n ~used:g))

(* Block-size decision for BID construction / blocked reductions: the
   observation arrives later, from the [apply_blocks] region that runs
   the blocks ({!region_enter}).  [None] defers to [Grain.block_size]. *)
let block_size ~workers n =
  if (not (enabled ())) || n < min_n || not (Grain.policy_is_default ()) then
    None
  else
    match Profile.current_op_name () with
    | None -> None
    | Some op -> (
      match lookup ~op ~n ~workers ~init:(Grain.block_size ~workers n) with
      | None -> None
      | Some e -> Some (Int.min n (pick e)))

(* Observation-only entry for regions whose granularity was fixed before
   the region started (block grids): attribute the region to the key it
   would have been decided under. *)
let region_enter ~n ~used ~workers =
  if (not (enabled ())) || n < min_n then None
  else
    match Profile.current_op_name () with
    | None -> None
    | Some op -> (
      match lookup ~op ~n ~workers ~init:(leaf_init ~n ~workers) with
      | None -> None
      | Some e -> Some (make_obs e ~n ~used))

let obs_end o (stats : Profile.region_stats option) =
  match stats with
  | None -> ()
  | Some { Profile.leaves; leaf_ns; max_leaf_ns = _ } ->
    let wall_ns = int_of_float ((now () -. o.o_t0) *. 1e9) in
    let d = Telemetry.diff ~before:o.o_before ~after:(Telemetry.snapshot ()) in
    record o.o_entry ~n:o.o_n ~used:o.o_used ~wall_ns ~leaves ~leaf_ns
      ~steal_attempts:d.Telemetry.s_steal_attempts ~steals:d.Telemetry.s_steals

(* ------------------------------------------------------------------ *)
(* Observability *)

type info = {
  i_op : string;
  i_bucket : int;
  i_workers : int;
  i_grain : int;
  i_obs : int;
  i_adjustments : int;
  i_probes : int;
  i_last_leaf_ns : int;
  i_last_leaves : int;
}

let dump () =
  let acc = ref [] in
  Array.iter
    (fun slot ->
      match Atomic.get slot with
      | None -> ()
      | Some e ->
        acc :=
          {
            i_op = e.e_op;
            i_bucket = e.e_bucket;
            i_workers = e.e_workers;
            i_grain = Atomic.get e.grain;
            i_obs = Atomic.get e.obs_count;
            i_adjustments = Atomic.get e.adjustments;
            i_probes = Atomic.get e.probes;
            i_last_leaf_ns = Atomic.get e.last_leaf_ns;
            i_last_leaves = Atomic.get e.last_leaves;
          }
          :: !acc)
    slots;
  List.sort
    (fun a b ->
      match String.compare a.i_op b.i_op with
      | 0 -> (
        match compare a.i_bucket b.i_bucket with
        | 0 -> compare a.i_workers b.i_workers
        | c -> c)
      | c -> c)
    !acc

(* Test isolation only: racy against concurrent inserts by design. *)
let reset () = Array.iter (fun slot -> Atomic.set slot None) slots

let table_stats () =
  List.fold_left
    (fun (n, obs, adj) i -> (n + 1, obs + i.i_obs, adj + i.i_adjustments))
    (0, 0, 0) (dump ())

(* ------------------------------------------------------------------ *)
(* Persistence (BDS_ADAPT_TABLE)

   A service restart should not relearn every grain from the defaults:
   with [BDS_ADAPT_TABLE=<path>] set, the decision table is loaded at
   module initialisation and atomically rewritten (tmp + rename) at pool
   teardown and process exit.  The format is one versioned header plus
   one line per entry; a file that does not parse fails fast naming the
   variable — a half-loaded table would silently pin wrong grains. *)

let env_var = "BDS_ADAPT_TABLE"

let magic = "bds-adapt-table v1"

(* Find-or-create keyed on an explicit bucket (load-time twin of
   [lookup], which buckets from [n]); restores the bookkeeping counts so
   `bds_probe grain` and the flight recorder show the inherited state. *)
let insert ~op ~bucket ~workers ~grain ~obs ~adjustments ~probes =
  let restore e =
    Atomic.set e.grain (clamp_grain ~bucket grain);
    Atomic.set e.obs_count obs;
    Atomic.set e.adjustments adjustments;
    Atomic.set e.probes probes
  in
  let rec go i tries =
    if tries >= capacity then ()
    else
      match Atomic.get slots.(i) with
      | Some e ->
        if e.e_op = op && e.e_bucket = bucket && e.e_workers = workers then
          restore e
        else go ((i + 1) land (capacity - 1)) (tries + 1)
      | None ->
        let e = fresh_entry ~op ~bucket ~workers ~init:grain in
        restore e;
        if Atomic.compare_and_set slots.(i) None (Some e) then ()
        else go i tries
  in
  go (slot_of ~op ~bucket ~workers) 0

let save_file path =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (magic ^ "\n");
  List.iter
    (fun i ->
      Printf.fprintf oc "%S %d %d %d %d %d %d\n" i.i_op i.i_bucket i.i_workers
        i.i_grain i.i_obs i.i_adjustments i.i_probes)
    (dump ());
  close_out oc;
  Sys.rename tmp path

let load_file path =
  let fail_at lineno msg =
    failwith
      (Printf.sprintf "%s: %s: malformed decision table (%s at line %d)"
         env_var path msg lineno)
  in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  (match input_line ic with
  | exception End_of_file -> fail_at 1 "empty file"
  | l when l = magic -> ()
  | _ -> fail_at 1 "bad header");
  let n = ref 0 in
  let lineno = ref 1 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if line <> "" then
         match
           Scanf.sscanf line "%S %d %d %d %d %d %d%!"
             (fun op bucket workers grain obs adj probes ->
               (op, bucket, workers, grain, obs, adj, probes))
         with
         | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
           fail_at !lineno "unparsable entry"
         | op, bucket, workers, grain, obs, adj, probes ->
           if bucket < 0 || workers < 1 || grain < 1 || obs < 0 || adj < 0
              || probes < 0
           then fail_at !lineno "out-of-range field";
           insert ~op ~bucket ~workers ~grain ~obs ~adjustments:adj ~probes;
           incr n
     done
   with End_of_file -> ());
  !n

let persist () =
  match Env.get env_var with
  | None -> ()
  | Some path -> (
    try save_file path
    with Sys_error e ->
      Printf.eprintf "warning: %s: could not persist decision table: %s\n%!"
        env_var e)

(* Load eagerly at startup (fail fast on a malformed file — before any
   region consults the table) and rewrite at exit; [Pool.teardown] also
   calls [persist] so servers that recycle pools checkpoint each time. *)
let () =
  match Env.get env_var with
  | None -> ()
  | Some path ->
    if Sys.file_exists path then ignore (load_file path : int);
    at_exit persist
