(* Benchmark harness: regenerates the tables and figures of the paper's
   evaluation and the ratios the perf gate (scripts/bench_compare)
   checks against BENCH_12.json.  Each section, by --only name:

   - fig5: Figure 5, best-cut reads and writes, normal vs fused
     (Cost_model counts, no timing).
   - fig13, fig14: Figures 13 and 14, time at P=1 and P=max and
     major-heap allocation of the BID (A | R | Ours) and RAD (A | Ours)
     benchmarks, plus their scheduler pressure.
   - fig15: Figure 15, bfs and primes speedups over --proc-list (SVG
     with --plots).
   - fig16: Figure 16, stream-of-blocks bestcut across block sizes
     (SVG with --plots).
   - ablation: §3 force-vs-recompute on bestcut; the small-n floor
     table that docs/COST.md cites; the triangular-load table of
     DESIGN.md §6.
   - stream-overhead: gates chain3 pull/push, filter-chain and
     flatten-chain materialized/fused, consumers reduce/iteri.
   - float-kernels: gates ref/unboxed of sum, dot, integrate, linefit,
     mcss-float and sort-floats.
   - --sweep-block (not an --only section; runs whenever given): gate
     default/best-fixed.  `--sweep-block
     512,2048,8192,32768,131072,524288` gives docs/COST.md's block-size
     table.

   Run `dune exec bench/main.exe` for every section at the default
   scale, or select some: `dune exec bench/main.exe -- --only
   fig13,fig16`.  Results are wall-clock on whatever machine this runs
   on; the claims being reproduced are the *ratios* between library
   versions (see EXPERIMENTS.md).

   Every time is taken by [Measure.rounds]: the versions or sides one
   table compares are timed in the same rounds (one untimed call each,
   then --repeat rounds of one call each), so host drift lands on every
   side of a ratio alike.  A time is the best call; counter columns are
   means per timed call, and rates divide summed counts by summed
   time. *)

module Measure = Bds_harness.Measure
module Registry = Bds_harness.Registry
module Tables = Bds_harness.Tables
module Runtime = Bds_runtime.Runtime
module Grain = Bds_runtime.Grain
module Telemetry = Bds_runtime.Telemetry
module S = Bds.Seq
module K = Bds_kernels

type config = {
  scale : float;
  procs : int;
  proc_list : int list;
  repeat : int;
  sections : string list;
  csv : string option;
  plots : string option;  (** directory for SVG versions of the figures *)
  sweep_block : int list;
      (** fixed block sizes to sweep the bestcut pipeline over (--sweep-block) *)
}

(* Raw results accumulated for --csv: section, bench, version, procs,
   metric, value. *)
let csv_rows : (string * string * string * int * string * float) list ref = ref []

let record ~section ~bench ~version ~procs ~metric value =
  csv_rows := (section, bench, version, procs, metric, value) :: !csv_rows

let write_csv path =
  let oc = open_out path in
  output_string oc "section,bench,version,procs,metric,value\n";
  List.iter
    (fun (s, b, v, p, m, x) ->
      Printf.fprintf oc "%s,%s,%s,%d,%s,%.9g\n" s b v p m x)
    (List.rev !csv_rows);
  close_out oc;
  Printf.eprintf "wrote %s (%d rows)\n%!" path (List.length !csv_rows)

let scaled cfg n =
  max 1 (int_of_float (float_of_int n *. cfg.scale))

let enabled cfg name = cfg.sections = [] || List.mem name cfg.sections

(* ------------------------------------------------------------------ *)
(* Figure 5: best-cut reads/writes, normal vs fused                    *)

let fig5 cfg =
  let n = scaled cfg 2_000_000 in
  let b = (Runtime.block_grid n).num_blocks in
  let rows = Bds.Cost_model.bestcut_rw ~n ~b in
  let cell = function None -> "-" | Some v -> string_of_int v in
  Tables.print
    ~title:(Printf.sprintf "Figure 5: best-cut memory operations (n=%d, b=%d blocks)" n b)
    ~headers:[ "phase"; "normal R"; "normal W"; "fused R"; "fused W" ]
    ~rows:
      (List.map
         (fun r ->
           Bds.Cost_model.
             [
               r.phase;
               string_of_int r.normal_reads;
               string_of_int r.normal_writes;
               cell r.fused_reads;
               cell r.fused_writes;
             ])
         rows);
  let nr, nw, fr, fw = Bds.Cost_model.rw_totals rows in
  Printf.printf "\nTotal (R+W): normal = %d (= 8n + O(b)),  fused = %d (= 2n + O(b)),  ratio = %.2fx\n"
    (nr + nw) (fr + fw)
    (float_of_int (nr + nw) /. float_of_int (fr + fw))

(* ------------------------------------------------------------------ *)
(* Figures 13 and 14: the benchmark tables                             *)

(* [count] over the total time of [m]'s timed calls. *)
let per_s (m : Measure.timed) count =
  if m.total_s > 0.0 then float_of_int count /. m.total_s else 0.0

let get vname l = List.assoc vname l
let best_s name timed = (get name timed : Measure.timed).best_s

(* Time [versions] in shared rounds on a [p]-domain pool and record each
   one's best call. *)
let time_versions cfg ~section ~bench p versions =
  let timed =
    Measure.with_domains p (fun () ->
        Measure.rounds ~repeat:cfg.repeat
          (List.map (fun v -> Measure.point v.Registry.vname v.Registry.run) versions))
  in
  List.iter
    (fun (version, (m : Measure.timed)) ->
      record ~section ~bench ~version ~procs:p ~metric:"time_s" m.best_s)
    timed;
  timed

type row_result = {
  bench : Registry.bench;
  size : int;
  times_p1 : (string * float) list;
  times_pn : (string * float) list;
  sched_pn : (string * Measure.timed) list;  (** P=max rounds, one per version *)
  allocs : (string * float) list;
}

let run_bench cfg ~section (b : Registry.bench) =
  let size = scaled cfg b.default_size in
  Printf.eprintf "  %-12s (%s)...\n%!" b.name (b.describe size);
  let versions = b.prepare size in
  let times p = time_versions cfg ~section ~bench:b.name p versions in
  let best = List.map (fun (v, (m : Measure.timed)) -> (v, m.best_s)) in
  let times_p1 = best (times 1) in
  let sched_pn = times cfg.procs in
  List.iter
    (fun (vname, (m : Measure.timed)) ->
      let c = m.counters in
      let put = record ~section ~bench:b.name ~version:vname ~procs:cfg.procs in
      put ~metric:"steals" (float_of_int c.Telemetry.s_steals /. float_of_int m.calls);
      put ~metric:"steals_per_s" (per_s m c.Telemetry.s_steals);
      put ~metric:"tasks_per_s" (per_s m c.Telemetry.s_tasks_spawned);
      (* Flag a clamped delta so downstream tooling can discard the
         point instead of trusting a skewed rate. *)
      put ~metric:"counters_clamped" (if m.clamped then 1.0 else 0.0))
    sched_pn;
  let allocs =
    List.map
      (fun v ->
        let a = Measure.alloc_single_domain v.Registry.run in
        record ~section ~bench:b.name ~version:v.Registry.vname ~procs:1
          ~metric:"major_alloc_bytes" a;
        (v.Registry.vname, a))
      versions
  in
  { bench = b; size; times_p1; times_pn = best sched_pn; sched_pn; allocs }

(* Scheduler pressure at P=max, from the same rounds the time table
   reports, per timed call: how many tasks the version spawned, how
   often thieves succeeded, and task throughput.  High steal counts with
   low task counts indicate imbalance; the delayed versions should spawn
   strictly fewer tasks than the eager array versions (fewer
   intermediate loops). *)
let print_sched ~title results =
  let pct num den =
    if den = 0 then "-" else Printf.sprintf "%.0f%%" (100.0 *. float_of_int num /. float_of_int den)
  in
  let rows =
    List.concat_map
      (fun r ->
        List.map
          (fun (v, (m : Measure.timed)) ->
            let c = m.counters in
            let mean count = Printf.sprintf "%.0f" (float_of_int count /. float_of_int m.calls) in
            [
              r.bench.Registry.name;
              Registry.describe_version v;
              mean c.Telemetry.s_tasks_spawned;
              mean c.Telemetry.s_chunks_executed;
              mean c.Telemetry.s_steals;
              pct c.Telemetry.s_steals c.Telemetry.s_steal_attempts;
              Printf.sprintf "%.2e" (per_s m c.Telemetry.s_tasks_spawned);
            ])
          r.sched_pn)
      results
  in
  Tables.print ~title
    ~headers:[ "bench"; "version"; "tasks"; "chunks"; "steals"; "steal hit"; "tasks/s" ]
    ~rows

let print_fig13 results =
  let time_row r =
    let a1 = get "array" r.times_p1 and r1 = get "rad" r.times_p1 and d1 = get "delay" r.times_p1 in
    let an = get "array" r.times_pn and rn = get "rad" r.times_pn and dn = get "delay" r.times_pn in
    [
      r.bench.Registry.name;
      Measure.pp_time a1; Measure.pp_time r1; Measure.pp_time d1; Tables.ratio r1 d1;
      Measure.pp_time an; Measure.pp_time rn; Measure.pp_time dn; Tables.ratio rn dn;
    ]
  in
  Tables.print ~title:"Figure 13 (time): BID benchmarks — A | R | Ours, P=1 then P=max"
    ~headers:[ "bench"; "A(1)"; "R(1)"; "Ours(1)"; "R/Ours"; "A(P)"; "R(P)"; "Ours(P)"; "R/Ours" ]
    ~rows:(List.map time_row results);
  let space_row r =
    let a = get "array" r.allocs and rr = get "rad" r.allocs and d = get "delay" r.allocs in
    [
      r.bench.Registry.name;
      Measure.pp_bytes a; Measure.pp_bytes rr; Measure.pp_bytes d;
      Tables.ratio a d; Tables.ratio rr d;
    ]
  in
  Tables.print ~title:"Figure 13 (space): allocations — A | R | Ours"
    ~headers:[ "bench"; "A"; "R"; "Ours"; "A/Ours"; "R/Ours" ]
    ~rows:(List.map space_row results)

let print_fig14 results =
  let time_row r =
    let a1 = get "array" r.times_p1 and d1 = get "delay" r.times_p1 in
    let an = get "array" r.times_pn and dn = get "delay" r.times_pn in
    [
      r.bench.Registry.name;
      Measure.pp_time a1; Measure.pp_time d1; Tables.ratio a1 d1;
      Measure.pp_time an; Measure.pp_time dn; Tables.ratio an dn;
    ]
  in
  Tables.print ~title:"Figure 14 (time): RAD benchmarks — A | Ours, P=1 then P=max"
    ~headers:[ "bench"; "A(1)"; "Ours(1)"; "A/Ours"; "A(P)"; "Ours(P)"; "A/Ours" ]
    ~rows:(List.map time_row results);
  let space_row r =
    let a = get "array" r.allocs and d = get "delay" r.allocs in
    [ r.bench.Registry.name; Measure.pp_bytes a; Measure.pp_bytes d; Tables.ratio a d ]
  in
  Tables.print ~title:"Figure 14 (space): allocations — A | Ours"
    ~headers:[ "bench"; "A"; "Ours"; "A/Ours" ]
    ~rows:(List.map space_row results)

(* ------------------------------------------------------------------ *)
(* Figure 15: speedup curves                                           *)

let fig15 cfg =
  (* P=1 is always timed: it is the baseline. *)
  let procs = List.sort_uniq Int.compare (1 :: cfg.proc_list) in
  let benches =
    List.filter (fun b -> List.mem b.Registry.name [ "bfs"; "primes" ]) Registry.all
  in
  List.iter
    (fun (b : Registry.bench) ->
      let size = scaled cfg b.default_size in
      Printf.eprintf "  fig15 %s...\n%!" b.name;
      let versions = b.prepare size in
      let times =
        List.map (fun p -> (p, time_versions cfg ~section:"fig15" ~bench:b.name p versions)) procs
      in
      (* Baseline: the 1-processor delay time of the P=1 rounds, so the
         P=1 delay row reads 1.00. *)
      let t1_delay = best_s "delay" (get 1 times) in
      let data =
        List.map
          (fun (p, timed) ->
            (p, List.map (fun (v, (m : Measure.timed)) -> (v, t1_delay /. m.best_s)) timed))
          times
      in
      let rows =
        List.map
          (fun (p, sp) ->
            string_of_int p
            :: List.map (fun v -> Printf.sprintf "%.2f" (List.assoc v sp))
                 [ "delay"; "array"; "rad" ])
          data
      in
      Tables.print
        ~title:
          (Printf.sprintf
             "Figure 15: %s speedups vs 1-proc delay (%s)"
             b.name (b.describe size))
        ~headers:[ "P"; "delay"; "array"; "rad" ]
        ~rows;
      Option.iter
        (fun dir ->
          let series =
            List.map
              (fun v ->
                {
                  Bds_harness.Svg_plot.label = v;
                  points =
                    List.map
                      (fun (p, sp) -> (float_of_int p, List.assoc v sp))
                      data;
                })
              [ "delay"; "array"; "rad" ]
          in
          let path = Filename.concat dir (Printf.sprintf "fig15_%s.svg" b.name) in
          Bds_harness.Svg_plot.write ~path
            ~title:(Printf.sprintf "Figure 15: %s" b.name)
            ~xlabel:"processors" ~ylabel:"speedup vs 1-proc delay" series;
          Printf.eprintf "  wrote %s\n%!" path)
        cfg.plots)
    benches

(* ------------------------------------------------------------------ *)
(* Figure 16: stream-of-blocks vs block-delayed                        *)

let fig16 cfg =
  let n = scaled cfg 2_000_000 in
  Printf.eprintf "  fig16 (n=%d)...\n%!" n;
  let a = K.Bestcut.generate n in
  let block_sizes = List.filter (fun bs -> bs <= n) [ 1_000; 10_000; 100_000; 1_000_000 ] in
  let sob bs = Printf.sprintf "B=%d" bs in
  Measure.with_domains cfg.procs (fun () ->
      let timed =
        Measure.rounds ~repeat:cfg.repeat
          (Measure.point "array" (fun () -> K.Bestcut.Array_version.best_cut a)
          :: Measure.point "delay" (fun () -> K.Bestcut.Delay_version.best_cut a)
          :: List.map
               (fun bs -> Measure.point (sob bs) (fun () -> K.Bestcut.best_cut_sob ~block_size:bs a))
               block_sizes)
      in
      let t_array = best_s "array" timed and t_delay = best_s "delay" timed in
      let data =
        List.map
          (fun bs ->
            let t = best_s (sob bs) timed in
            record ~section:"fig16" ~bench:"bestcut-sob" ~version:(sob bs) ~procs:cfg.procs
              ~metric:"time_s" t;
            (bs, t))
          block_sizes
      in
      let rows =
        List.map
          (fun (bs, t) ->
            [
              Printf.sprintf "%.0e" (float_of_int bs);
              Measure.pp_time t;
              Tables.ratio t t_array;
              Tables.ratio t t_delay;
            ])
          data
      in
      Tables.print
        ~title:
          (Printf.sprintf
             "Figure 16: stream-of-blocks bestcut across block sizes, P=%d (array %s, delay %s)"
             cfg.procs (Measure.pp_time t_array) (Measure.pp_time t_delay))
        ~headers:[ "block size"; "T"; "T/A"; "T/Ours" ]
        ~rows;
      Option.iter
        (fun dir ->
          let lg bs = Float.log10 (float_of_int bs) in
          let flat t = List.map (fun (bs, _) -> (lg bs, t)) data in
          let series =
            [
              {
                Bds_harness.Svg_plot.label = "stream-of-blocks";
                points = List.map (fun (bs, t) -> (lg bs, t)) data;
              };
              { Bds_harness.Svg_plot.label = "array"; points = flat t_array };
              { Bds_harness.Svg_plot.label = "delay (ours)"; points = flat t_delay };
            ]
          in
          let path = Filename.concat dir "fig16_bestcut.svg" in
          Bds_harness.Svg_plot.write ~path
            ~title:"Figure 16: stream-of-blocks bestcut"
            ~xlabel:"log10(block size)" ~ylabel:"time (s)" series;
          Printf.eprintf "  wrote %s\n%!" path)
        cfg.plots)

(* ------------------------------------------------------------------ *)
(* Ablations of DESIGN.md's called-out choices                         *)

let ablation cfg =
  let n = scaled cfg 2_000_000 in
  (* 1. The default policy's floor at small n, where it (not P) sets
     the block count: n / (8P) is below the floor whenever n < 8P x
     floor.  Every floor is timed in the same rounds; a call is a batch
     of about 200k elements of kernel calls. *)
  Printf.eprintf "  ablation: block-size floor at small n...\n%!" ;
  let floors = [ 256; 512; 1024; 2048 ] in
  let kernels =
    [
      ( "bestcut",
        fun n ->
          let a = K.Bestcut.generate n in
          fun () -> ignore (Sys.opaque_identity (K.Bestcut.Delay_version.best_cut a)) );
      ( "grep",
        fun n ->
          let text = K.Grep.generate n in
          fun () -> ignore (Sys.opaque_identity (K.Grep.Delay_version.grep text "needle")) );
      ( "bfs",
        fun n ->
          let scale = Int.max 8 (int_of_float (Float.log2 (float_of_int (Int.max 1024 (n / 8))))) in
          let g = Bds_graph.Rmat.generate ~scale ~num_edges:n () in
          fun () -> ignore (Sys.opaque_identity (Bds_graph.Bfs.Delay_version.bfs g 0)) );
    ]
  in
  let rows =
    List.concat_map
      (fun (name, make) ->
        List.concat_map
          (fun n ->
            let call = make n in
            let batch = Int.max 1 (200_000 / n) in
            List.map
              (fun p ->
                let timed =
                  Measure.with_domains p (fun () ->
                      Measure.rounds ~repeat:(cfg.repeat * 3)
                        (List.map
                           (fun floor ->
                             Measure.point (string_of_int floor)
                               ~setup:(fun () ->
                                 Grain.set_policy
                                   (Grain.Scaled
                                      { per_worker_blocks = 8; min_size = floor; max_size = 65536 }))
                               ~teardown:Grain.reset_policy
                               (fun () ->
                                 for _ = 1 to batch do
                                   call ()
                                 done))
                           floors))
                in
                let best =
                  List.map (fun (_, (m : Measure.timed)) -> m.best_s /. float_of_int batch) timed
                in
                List.iter2
                  (fun (floor, _) t ->
                    record ~section:"ablation-floor" ~bench:(Printf.sprintf "%s-%d" name n)
                      ~version:floor ~procs:p ~metric:"time_s" t)
                  timed best;
                let last = List.nth best (List.length floors - 1) in
                (name :: string_of_int n :: string_of_int p
                 :: List.map (fun t -> Printf.sprintf "%.1f" (t *. 1e6)) best)
                @ List.filteri (fun k _ -> k < List.length floors - 1)
                    (List.map (fun t -> Printf.sprintf "%.3f" (t /. last)) best))
              [ 1; 2 ])
          [ 2_000; 10_000; 25_000 ])
      kernels
  in
  Tables.print
    ~title:"Ablation: Scaled block-size floor at small n (us per call, best of rounds; then / floor 2048)"
    ~headers:
      ([ "kernel"; "n"; "P" ]
      @ List.map (Printf.sprintf "%d") floors
      @ List.filteri (fun k _ -> k < List.length floors - 1)
          (List.map (Printf.sprintf "/%d") floors))
    ~rows;
  (* 2. The §3 force-vs-recompute tradeoff: fully delayed bestcut
     evaluates the initial map twice (2n + O(b) memory ops); forcing it
     costs an n-word array but computes the map once (4n + O(b)). *)
  Printf.eprintf "  ablation: force vs delay...\n%!" ;
  let a = K.Bestcut.generate n in
  let delayed () =
    let s = S.of_array a in
    let is_end = S.map (fun x -> if x > K.Bestcut.end_threshold then 1 else 0) s in
    let counts, _ = S.scan ( + ) 0 is_end in
    let fn = float_of_int n in
    let costs =
      S.mapi
        (fun i c ->
          let pos = float_of_int i /. fn in
          (pos *. float_of_int c) +. ((1.0 -. pos) *. float_of_int (n - c)))
        counts
    in
    S.reduce Float.min infinity costs
  in
  let forced () =
    let s = S.of_array a in
    let is_end = S.force (S.map (fun x -> if x > K.Bestcut.end_threshold then 1 else 0) s) in
    let counts, _ = S.scan ( + ) 0 is_end in
    let fn = float_of_int n in
    let costs =
      S.mapi
        (fun i c ->
          let pos = float_of_int i /. fn in
          (pos *. float_of_int c) +. ((1.0 -. pos) *. float_of_int (n - c)))
        counts
    in
    S.reduce Float.min infinity costs
  in
  Measure.with_domains cfg.procs (fun () ->
      let timed =
        Measure.rounds ~repeat:cfg.repeat
          [ Measure.point "delay" delayed; Measure.point "force" forced ]
      in
      let td = best_s "delay" timed and tf = best_s "force" timed in
      let ad = Measure.alloc_single_domain (fun () -> ignore (delayed ())) in
      let af = Measure.alloc_single_domain (fun () -> ignore (forced ())) in
      Tables.print
        ~title:"Ablation: force the initial map of bestcut vs recompute it (§3)"
        ~headers:[ "variant"; "time"; "alloc" ]
        ~rows:
          [
            [ "delay (map evaluated twice)"; Measure.pp_time td; Measure.pp_bytes ad ];
            [ "force (extra n-word array)"; Measure.pp_time tf; Measure.pp_bytes af ];
          ]);
  (* 3. The one split rule on an imbalanced loop (iteration i costs ~i
     work: a triangular load): the default block policy against one
     coarse fixed block size. *)
  Printf.eprintf "  ablation: triangular load...\n%!" ;
  let nl = scaled cfg 30_000 in
  let body i =
    let acc = ref 0 in
    for k = 1 to i do
      acc := !acc + (k land 15)
    done;
    ignore (Sys.opaque_identity !acc)
  in
  Measure.with_domains cfg.procs (fun () ->
      let rows =
        List.map
          (fun (name, (m : Measure.timed)) -> [ name; Measure.pp_time m.best_s ])
          (Measure.rounds ~repeat:cfg.repeat
             [
               Measure.point "default policy" (fun () -> Runtime.parallel_for 0 nl body);
               Measure.point "Fixed 4096"
                 ~setup:(fun () -> Grain.set_policy (Grain.Fixed 4096))
                 ~teardown:Grain.reset_policy
                 (fun () -> Runtime.parallel_for 0 nl body);
             ])
      in
      Tables.print
        ~title:
          (Printf.sprintf
             "Ablation: block policy, triangular load (n=%d, P=%d)"
             nl cfg.procs)
        ~headers:[ "policy"; "time" ] ~rows)

(* ------------------------------------------------------------------ *)
(* Block-size sweep (--sweep-block): the bestcut delayed pipeline at each
   fixed block size, then once more at the shipped default policy, all
   in shared rounds with the policy switched in each point's setup.
   Reports time plus scheduler pressure per point, and the best fixed
   size's time over the default's (gate default/best-fixed: ~1.0 means
   the default policy already sits at the sweep optimum).  Rows land in
   --csv under section "sweep-block". *)

let sweep_block cfg =
  let n = scaled cfg 2_000_000 in
  let a = K.Bestcut.generate n in
  let bestcut () = K.Bestcut.Delay_version.best_cut a in
  Printf.eprintf "  sweep: block size...\n%!";
  Measure.with_domains cfg.procs (fun () ->
      let timed =
        Measure.rounds ~repeat:cfg.repeat
          (List.map
             (fun b ->
               Measure.point (Printf.sprintf "block=%d" b)
                 ~setup:(fun () -> Grain.set_policy (Grain.Fixed b))
                 ~teardown:Grain.reset_policy
                 bestcut)
             cfg.sweep_block
          @ [ Measure.point "default" bestcut ])
      in
      let rows =
        List.map
          (fun (version, (m : Measure.timed)) ->
            let steals_per_s = per_s m m.counters.Telemetry.s_steals in
            let tasks_per_s = per_s m m.counters.Telemetry.s_tasks_spawned in
            let put =
              record ~section:"sweep-block" ~bench:"bestcut-delay" ~version ~procs:cfg.procs
            in
            put ~metric:"time_s" m.best_s;
            put ~metric:"steals_per_s" steals_per_s;
            put ~metric:"tasks_per_s" tasks_per_s;
            put ~metric:"counters_clamped" (if m.clamped then 1.0 else 0.0);
            [
              version;
              Measure.pp_time m.best_s;
              Printf.sprintf "%.3e" steals_per_s;
              Printf.sprintf "%.3e" tasks_per_s;
            ])
          timed
      in
      let t_default = best_s "default" timed in
      let t_best =
        List.fold_left
          (fun t (v, (m : Measure.timed)) -> if v = "default" then t else Float.min t m.best_s)
          infinity timed
      in
      let ratio = if t_default > 0.0 then t_best /. t_default else 0.0 in
      record ~section:"sweep-block" ~bench:"bestcut-delay" ~version:"default"
        ~procs:cfg.procs ~metric:"default_vs_best_fixed" ratio;
      Printf.eprintf "  default_vs_best_fixed = %.3f\n%!" ratio;
      Tables.print
        ~title:
          (Printf.sprintf "Sweep: block size (Grain.Fixed) on bestcut/delay (n=%d, P=%d)"
             n cfg.procs)
        ~headers:[ "setting"; "time"; "steals/s"; "tasks/s" ]
        ~rows)

(* ------------------------------------------------------------------ *)
(* Stream execution: fused push fold vs trickle pull (--only
   stream-overhead).  One 3-stage combinator chain
   (tabulate |> map |> scan_incl), consumed two ways: "pull" drives the
   paper's resumable trickle encoding of the chain (one indirect call +
   cursor bump per stage per element), "push" drives [Stream.reduce],
   i.e. the fused fold.  Sequential by construction — this is the
   *within-block* loop the Seq layer runs on every block — so the ratio
   is the per-element dispatch overhead the fold eliminates.

   The library no longer builds trickles, so the pull side is this
   fixed yardstick: closure for closure the trickles [Stream] carried
   before its fold became the only execution path.  [map] over an
   indexed source composed into the source's index function, so the
   chain is two trickle stages. *)
module Trickle = struct
  let[@inline never] tabulate f () =
    let i = ref 0 in
    fun () ->
      let v = f !i in
      incr i;
      v

  (* A closure of its own, as [Stream.map] built it, not a partial
     application. *)
  let[@inline never] map_indexed g f = Sys.opaque_identity (fun i -> g (f i))

  let[@inline never] scan_incl f z start () =
    let next = start () in
    let acc = ref z in
    fun () ->
      acc := f !acc (next ());
      !acc
end

let stream_overhead cfg =
  let m = scaled cfg 2_000_000 in
  Printf.eprintf "  stream-overhead (n=%d)...\n%!" m;
  let g x = (x * 2) + 1 and f i = i land 1023 in
  let mk () = Bds_stream.Stream.(scan_incl ( + ) 0 (map g (tabulate m f))) in
  (* Exactly the pre-push consumer loop: the step function arrives as a
     closure (as it does in [reduce f z s]), not inlined into the loop. *)
  let pull_reduce f z start =
    let next = start () in
    let acc = ref z in
    for _ = 1 to m do
      acc := f !acc (next ())
    done;
    !acc
  in
  let pull () =
    pull_reduce ( + ) 0 Trickle.(scan_incl ( + ) 0 (tabulate (map_indexed g f)))
  in
  let push () = Bds_stream.Stream.reduce ( + ) 0 (mk ()) in
  assert (pull () = push ());
  Measure.with_domains cfg.procs (fun () ->
      let timed =
        Measure.rounds ~repeat:cfg.repeat [ Measure.point "pull" pull; Measure.point "push" push ]
      in
      let t_pull = best_s "pull" timed and t_push = best_s "push" timed in
      let per_elem t = t /. float_of_int m *. 1e9 in
      List.iter
        (fun (version, t) ->
          record ~section:"stream-overhead" ~bench:"chain3" ~version
            ~procs:cfg.procs ~metric:"time_s" t;
          record ~section:"stream-overhead" ~bench:"chain3" ~version
            ~procs:cfg.procs ~metric:"ns_per_elem" (per_elem t))
        [ ("pull", t_pull); ("push", t_push) ];
      Tables.print
        ~title:
          (Printf.sprintf
             "Stream execution: trickle pull vs fused push on map|scan_incl|reduce (n=%d, sequential)"
             m)
        ~headers:[ "driver"; "time"; "ns/elem"; "speedup" ]
        ~rows:
          [
            [ "pull (trickle)"; Measure.pp_time t_pull;
              Printf.sprintf "%.2f" (per_elem t_pull); "1.00x" ];
            [ "push (fused fold)"; Measure.pp_time t_push;
              Printf.sprintf "%.2f" (per_elem t_push);
              Tables.ratio t_pull t_push ];
          ]);
  (* Seq-level filter/flatten chains: the skip-push filter and
     nested-push flatten expose their outputs as delayed region views,
     so a chain consumed once never materialises an intermediate.
     "materialized" forces each intermediate to its memo array before
     the next stage (the pre-fusion shape: pack, then reread);
     "fused" consumes the delayed views directly.  The gated quantity
     is again the within-run ratio. *)
  let chain_bench name ~materialized ~fused =
    assert (materialized () = fused ());
    Measure.with_domains cfg.procs (fun () ->
        let timed =
          Measure.rounds ~repeat:cfg.repeat
            [ Measure.point "materialized" materialized; Measure.point "fused" fused ]
        in
        let t_mat = best_s "materialized" timed and t_fused = best_s "fused" timed in
        List.iter
          (fun (version, t) ->
            record ~section:"stream-overhead" ~bench:name ~version
              ~procs:cfg.procs ~metric:"time_s" t)
          [ ("materialized", t_mat); ("fused", t_fused) ];
        Tables.print
          ~title:
            (Printf.sprintf
               "Seq chain: materialized intermediates vs fused regions on %s (P=%d)"
               name cfg.procs)
          ~headers:[ "version"; "time"; "speedup" ]
          ~rows:
            [
              [ "materialized"; Measure.pp_time t_mat; "1.00x" ];
              [ "fused"; Measure.pp_time t_fused; Tables.ratio t_mat t_fused ];
            ])
  in
  let module S = Bds.Seq in
  let p x = x land 3 <> 0 in
  let input () = S.tabulate m (fun i -> (i * 7) land 1023) in
  chain_bench "filter-chain"
    ~materialized:(fun () ->
      S.reduce ( + ) 0 (S.force (S.filter p (S.force (S.filter p (input ()))))))
    ~fused:(fun () -> S.reduce ( + ) 0 (S.filter p (S.filter p (input ()))));
  let mf = m / 4 in
  let expand x = S.tabulate 4 (fun j -> x + j) in
  chain_bench "flatten-chain"
    ~materialized:(fun () ->
      S.reduce ( + ) 0
        (S.force (S.filter p (S.force (S.flat_map expand (S.iota mf))))))
    ~fused:(fun () ->
      S.reduce ( + ) 0 (S.filter p (S.flat_map expand (S.iota mf))));
  (* Seq consumers over one map-of-tabulate RAD: [reduce ( + )] and an
     [iteri] that stores each element at its index.  Both make one user
     call per element besides the RAD's own, so their ratio is the
     overhead iteri's block loop adds per element: a wrapper closure
     around the user function, or a stream where an index loop would do,
     pulls it down (gate "consumers reduce/iteri"). *)
  let xs = S.map g (S.tabulate m f) in
  let out = Array.make m 0 in
  let reduce () = S.reduce ( + ) 0 xs in
  let iteri () = S.iteri (fun i v -> Array.unsafe_set out i v) xs in
  iteri ();
  assert (reduce () = Array.fold_left ( + ) 0 out);
  Measure.with_domains cfg.procs (fun () ->
      let timed =
        Measure.rounds ~repeat:cfg.repeat [ Measure.point "reduce" reduce; Measure.point "iteri" iteri ]
      in
      let t_reduce = best_s "reduce" timed and t_iteri = best_s "iteri" timed in
      let per_elem t = t /. float_of_int m *. 1e9 in
      List.iter
        (fun (version, t) ->
          record ~section:"stream-overhead" ~bench:"consumers" ~version
            ~procs:cfg.procs ~metric:"time_s" t;
          record ~section:"stream-overhead" ~bench:"consumers" ~version
            ~procs:cfg.procs ~metric:"ns_per_elem" (per_elem t))
        [ ("reduce", t_reduce); ("iteri", t_iteri) ];
      Tables.print
        ~title:
          (Printf.sprintf "Seq consumers over map|tabulate: reduce vs iteri (n=%d, P=%d)"
             m cfg.procs)
        ~headers:[ "consumer"; "time"; "ns/elem" ]
        ~rows:
          [
            [ "reduce (+)"; Measure.pp_time t_reduce; Printf.sprintf "%.2f" (per_elem t_reduce) ];
            [ "iteri (store)"; Measure.pp_time t_iteri; Printf.sprintf "%.2f" (per_elem t_iteri) ];
          ])

(* ------------------------------------------------------------------ *)
(* Float kernels: the unboxed lane against a sequential yardstick
   (--only float-kernels).

   Each bench runs the same float-heavy computation three ways on the
   same input: "ref", a sequential loop written by hand (the kernel's
   own [reference], a [for] loop, or the stdlib float sort); "boxed",
   the generic polymorphic pipeline (polymorphic reads, boxed closure
   crossings, an allocation per element); and "unboxed", the float lane
   (Float_seq / Stream.sum_floats / Psort.sort_floats).  The gated
   quantity is ref/unboxed (BENCH_12.json, bench_compare): the yardstick
   is fixed code, so the ratio moves only when the lane moves.
   boxed/unboxed is printed but not gated, since a faster boxed
   pipeline would read as a slower lane.

   The unboxed point's float_boxed_fallback count, summed over its
   timed calls, is recorded per bench and must be zero on these fused
   chains — a nonzero count means a pipeline silently fell off the
   lane. *)

let float_kernels cfg =
  let n = scaled cfg 2_000_000 in
  Printf.eprintf "  float-kernels (n=%d)...\n%!" n;
  let module FS = Bds.Float_seq in
  let af = K.Mcss.generate_floats ~seed:7 n in
  let bf = K.Mcss.generate_floats ~seed:8 n in
  let pts = K.Linefit.generate n in
  let close ?(tol = 1e-6) x y =
    let scale = Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)) in
    Float.abs (x -. y) <= tol *. scale
  in
  Measure.with_domains cfg.procs (fun () ->
      let results = ref [] in
      let bench name ~reference ~boxed ~unboxed ~agree =
        let u = unboxed () in
        if not (agree (reference ()) u && agree (boxed ()) u) then
          failwith (Printf.sprintf "float-kernels/%s: versions disagree" name);
        let timed =
          Measure.rounds ~repeat:cfg.repeat
            [
              Measure.point "ref" reference;
              Measure.point "boxed" boxed;
              Measure.point "unboxed" unboxed;
            ]
        in
        let t_ref = best_s "ref" timed and t_boxed = best_s "boxed" timed in
        let t_unboxed = best_s "unboxed" timed in
        let fallbacks = (get "unboxed" timed).Measure.counters.Telemetry.s_float_boxed_fallback in
        List.iter
          (fun (version, t) ->
            record ~section:"float-kernels" ~bench:name ~version
              ~procs:cfg.procs ~metric:"time_s" t)
          [ ("ref", t_ref); ("boxed", t_boxed); ("unboxed", t_unboxed) ];
        record ~section:"float-kernels" ~bench:name ~version:"unboxed"
          ~procs:cfg.procs ~metric:"boxed_fallbacks" (float_of_int fallbacks);
        results := (name, t_ref, t_boxed, t_unboxed, fallbacks) :: !results
      in
      bench "sum"
        ~reference:(fun () ->
          let s = ref 0.0 in
          for i = 0 to n - 1 do s := !s +. af.(i) done;
          !s)
        ~boxed:(fun () -> S.reduce ( +. ) 0.0 (S.of_array af))
        ~unboxed:(fun () -> S.float_sum (S.of_array af))
        ~agree:(close ~tol:1e-9);
      bench "dot"
        ~reference:(fun () ->
          let s = ref 0.0 in
          for i = 0 to n - 1 do s := !s +. (af.(i) *. bf.(i)) done;
          !s)
        ~boxed:(fun () ->
          S.reduce ( +. ) 0.0 (S.zip_with ( *. ) (S.of_array af) (S.of_array bf)))
        ~unboxed:(fun () -> FS.dot (FS.of_array af) (FS.of_array bf))
        ~agree:(close ~tol:1e-9);
      bench "integrate"
        ~reference:(fun () -> K.Integrate.reference n)
        ~boxed:(fun () -> K.Integrate.Delay_version.integrate n)
        ~unboxed:(fun () -> K.Integrate.integrate_unboxed n)
        ~agree:(close ~tol:1e-9);
      bench "linefit"
        ~reference:(fun () -> K.Linefit.reference pts)
        ~boxed:(fun () -> K.Linefit.Delay_version.fit pts)
        ~unboxed:(fun () -> K.Linefit.fit_unboxed pts)
        ~agree:(fun (s1, i1) (s2, i2) ->
          close ~tol:1e-6 s1 s2 && close ~tol:1e-6 i1 i2);
      bench "mcss-float"
        ~reference:(fun () -> K.Mcss.reference_floats af)
        ~boxed:(fun () -> K.Mcss.mcss_floats_boxed af)
        ~unboxed:(fun () -> K.Mcss.mcss_floats af)
        ~agree:(close ~tol:1e-9);
      bench "sort-floats"
        ~reference:(fun () ->
          let c = Float.Array.copy (FS.of_array af) in
          Float.Array.stable_sort Float.compare c;
          FS.to_array c)
        ~boxed:(fun () -> Bds_sort.Psort.sort Float.compare af)
        ~unboxed:(fun () -> Bds_sort.Psort.sort_floats af)
        ~agree:(fun a b ->
          Array.length a = Array.length b
          && Array.for_all2 (fun x y -> Float.equal x y) a b);
      Tables.print
        ~title:
          (Printf.sprintf
             "Float kernels: sequential yardstick, boxed pipeline and unboxed lane (n=%d, P=%d)"
             n cfg.procs)
        ~headers:
          [ "bench"; "ref"; "boxed"; "unboxed"; "ref/unboxed"; "boxed/unboxed";
            "fallbacks" ]
        ~rows:
          (List.rev_map
             (fun (name, tr, tb, tu, fb) ->
               [
                 name;
                 Measure.pp_time tr;
                 Measure.pp_time tb;
                 Measure.pp_time tu;
                 Tables.ratio tr tu;
                 Tables.ratio tb tu;
                 string_of_int fb;
               ])
             !results))

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

(* Figures 13 and 14: the time and space tables of [benches], then their
   scheduler pressure. *)
let bench_figure ~figure ~kind benches print cfg =
  let section = Printf.sprintf "fig%d" figure in
  Printf.eprintf "%s (%s benchmarks)...\n%!" section kind;
  let results = List.map (run_bench cfg ~section) benches in
  print results;
  print_sched
    ~title:(Printf.sprintf "Figure %d scheduler pressure (P=%d, per call)" figure cfg.procs)
    results

(* Every --only section, in run order. *)
let sections =
  [
    ("fig5", fig5);
    ("fig13", bench_figure ~figure:13 ~kind:"BID" Registry.bid_benches print_fig13);
    ("fig14", bench_figure ~figure:14 ~kind:"RAD" Registry.rad_benches print_fig14);
    ("fig15", fig15);
    ("fig16", fig16);
    ("ablation", ablation);
    ("stream-overhead", stream_overhead);
    ("float-kernels", float_kernels);
  ]

let run cfg =
  Printf.printf
    "Parallel block-delayed sequences: benchmark harness\n\
     host workers: %d requested for P=max; scale %.2fx; repeat %d\n"
    cfg.procs cfg.scale cfg.repeat;
  List.iter (fun (name, section) -> if enabled cfg name then section cfg) sections;
  if cfg.sweep_block <> [] then sweep_block cfg;
  Option.iter write_csv cfg.csv;
  Printf.printf "\ndone. (sink: %d %.3f)\n" !Registry.sink_int !Registry.sink_float

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)

open Cmdliner

let scale_arg =
  Arg.(value & opt float 1.0 & info [ "scale" ] ~doc:"Input-size multiplier.")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Shorthand for --scale 0.1 --repeat 1.")

let procs_arg =
  Arg.(value & opt int 4 & info [ "procs" ] ~doc:"Worker count used as P=max.")

let proc_list_arg =
  Arg.(value & opt (list int) [ 1; 2; 4 ] & info [ "proc-list" ] ~doc:"Processor counts for the figure-15 sweep.")

let repeat_arg =
  Arg.(value & opt int 3 & info [ "repeat" ] ~doc:"Timed rounds per measurement, one call of each compared version per round (the best call is reported).")

let only_arg =
  let names = List.map fst sections in
  Arg.(value & opt (list (enum (List.map (fun n -> (n, n)) names))) []
       & info [ "only" ]
           ~doc:("Sections to run: " ^ String.concat ", " names ^ ". Default: all."))

let csv_arg =
  Arg.(value & opt (some string) None
       & info [ "csv" ] ~doc:"Also write raw measurements to this CSV file.")

let plots_arg =
  Arg.(value & opt (some string) None
       & info [ "plots" ] ~doc:"Also write SVG versions of the plotted figures to this directory.")

let sweep_block_arg =
  Arg.(value & opt (list int) []
       & info [ "sweep-block" ]
           ~doc:"Block sizes (comma-separated) to sweep the bestcut \
                 delayed pipeline over via Grain.set_policy (Fixed b) \
                 (equivalent to BDS_BLOCK_SIZE), then once more at the \
                 shipped default policy (version default), recording \
                 best-fixed over default as default_vs_best_fixed.  Emits \
                 time, steals/s and tasks/s per point; rows land in --csv \
                 under sweep-block.")

let main scale quick procs proc_list repeat only csv plots sweep_block =
  let cfg =
    {
      scale = (if quick then scale /. 10.0 else scale);
      procs;
      proc_list;
      repeat = (if quick then 1 else repeat);
      sections = only;
      csv;
      plots;
      sweep_block;
    }
  in
  Option.iter
    (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
    plots;
  run cfg;
  Bds_runtime.Runtime.shutdown ()

let cmd =
  Cmd.v
    (Cmd.info "bds-bench" ~doc:"Regenerate the paper's tables and figures")
    Term.(
      const main $ scale_arg $ quick_arg $ procs_arg $ proc_list_arg $ repeat_arg
      $ only_arg $ csv_arg $ plots_arg $ sweep_block_arg)

let () = exit (Cmd.eval cmd)
