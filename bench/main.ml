(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§3 Figure 5, §6 Figures 13-16), plus ablations of the
   design choices called out in DESIGN.md and Bechamel microbenchmarks.

   Run `dune exec bench/main.exe` for everything at the default scale, or
   select sections: `dune exec bench/main.exe -- --only fig13,fig16`.
   Results are wall-clock on whatever machine this runs on; the claims
   being reproduced are the *ratios* between library versions (see
   EXPERIMENTS.md).

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
module Profile = Bds_runtime.Profile
module S = Bds.Seq
module K = Bds_kernels

type config = {
  scale : float;
  procs : int;
  proc_list : int list;
  repeat : int;
  sections : string list;
  micro_filter : string option;
      (** substring filter on microbenchmark names (--micro-filter) *)
  csv : string option;
  plots : string option;  (** directory for SVG versions of the figures *)
  sweep_grain : int list;
      (** leaf-grain values to sweep the bestcut pipeline over (--sweep-grain) *)
  sweep_block : int list;
      (** fixed block sizes to sweep the bestcut pipeline over (--sweep-block) *)
  profile : bool;
      (** run everything under the work/span profiler and append per-op
          rows to the CSV (--profile) *)
  service : bool;
      (** run the job-service open-loop load generator instead of the
          paper sections (--service) *)
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
  let bsize = Bds.Block.size n in
  let b = (n + bsize - 1) / bsize in
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

let run_bench cfg (b : Registry.bench) =
  let size = scaled cfg b.default_size in
  Printf.eprintf "  %-12s (%s)...\n%!" b.name (b.describe size);
  let section =
    match b.category with `Bid -> "fig13" | `Rad -> "fig14" | `Ext -> "ext"
  in
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

let fig13_rows cfg = List.map (run_bench cfg) Registry.bid_benches

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

let fig14_rows cfg = List.map (run_bench cfg) Registry.rad_benches

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
(* Extension applications (PBBS-style, mentioned in §1)                *)

let ext cfg =
  let results = List.map (run_bench cfg) Registry.ext_benches in
  let time_row r =
    let vs = List.map fst r.times_p1 in
    let cells l = List.concat_map (fun v -> [ Measure.pp_time (get v l) ]) vs in
    (r.bench.Registry.name :: cells r.times_p1) @ cells r.times_pn
  in
  (* Versions differ per bench; print a table per bench. *)
  List.iter
    (fun r ->
      let vs = List.map fst r.times_p1 in
      Tables.print
        ~title:(Printf.sprintf "Extension: %s (%s)" r.bench.Registry.name
                  (r.bench.Registry.describe r.size))
        ~headers:("bench" :: List.map (fun v -> v ^ "(1)") vs
                  @ List.map (fun v -> v ^ "(P)") vs)
        ~rows:[ time_row r ];
      Tables.print ~title:"  space (major-heap alloc)"
        ~headers:("bench" :: vs)
        ~rows:
          [
            r.bench.Registry.name
            :: List.map (fun v -> Measure.pp_bytes (get v r.allocs)) vs;
          ])
    results

(* ------------------------------------------------------------------ *)
(* Ablations of DESIGN.md's called-out choices                         *)

let ablation cfg =
  let n = scaled cfg 2_000_000 in
  (* 1. Block-size policy: the bestcut-shaped pipeline across fixed block
     sizes. *)
  Printf.eprintf "  ablation: block size...\n%!" ;
  let a = K.Bestcut.generate n in
  Measure.with_domains cfg.procs (fun () ->
      let rows =
        List.map
          (fun (bs, (m : Measure.timed)) -> [ bs; Measure.pp_time m.best_s ])
          (Measure.rounds ~repeat:cfg.repeat
             (List.map
                (fun bs ->
                  Measure.point (string_of_int bs)
                    ~setup:(fun () -> Bds.Block.set_policy (Bds.Block.Fixed bs))
                    ~teardown:Bds.Block.reset_policy
                    (fun () -> K.Bestcut.Delay_version.best_cut a))
                [ 512; 2048; 8192; 32768; 131072; 524288 ]))
      in
      Tables.print
        ~title:(Printf.sprintf "Ablation: BID block size B on bestcut/delay (n=%d, P=%d)" n cfg.procs)
        ~headers:[ "B"; "time" ] ~rows);
  (* 1b. The default policy's floor at small n, where it (not P) sets
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
                                 Bds.Block.set_policy
                                   (Bds.Block.Scaled
                                      { per_worker_blocks = 8; min_size = floor; max_size = 65536 }))
                               ~teardown:Bds.Block.reset_policy
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
  (* 2. Leaf grain, swept through the unified granularity layer: the
     override steers every auto-grained parallel_for, exactly what
     BDS_GRAIN does from the environment. *)
  Printf.eprintf "  ablation: grain...\n%!" ;
  let out = Array.make n 0 in
  Measure.with_domains cfg.procs (fun () ->
      let rows =
        List.map
          (fun (g, (m : Measure.timed)) -> [ g; Measure.pp_time m.best_s ])
          (Measure.rounds ~repeat:cfg.repeat
             (List.map
                (fun g ->
                  Measure.point (string_of_int g)
                    ~setup:(fun () -> Grain.set_leaf_grain (Some g))
                    ~teardown:(fun () -> Grain.set_leaf_grain None)
                    (fun () -> Runtime.parallel_for 0 n (fun i -> Array.unsafe_set out i (i * 3))))
                [ 16; 256; 4096; 65536; 1048576 ]))
      in
      Tables.print
        ~title:(Printf.sprintf "Ablation: leaf grain via Grain.set_leaf_grain (n=%d, P=%d)" n cfg.procs)
        ~headers:[ "grain"; "time" ] ~rows);
  (* 3. The §3 force-vs-recompute tradeoff: fully delayed bestcut
     evaluates the initial map twice (2n + O(b) memory ops); forcing it
     costs an n-word array but computes the map once (4n + O(b)). *)
  Printf.eprintf "  ablation: force vs delay...\n%!" ;
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
  (* 3b. Static grain on an imbalanced loop (iteration i costs ~i work:
     a triangular load): the auto grain against one coarse fixed grain. *)
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
               Measure.point "static grain (auto)" (fun () -> Runtime.parallel_for 0 nl body);
               Measure.point "static grain 4096" (fun () ->
                   Runtime.parallel_for ~grain:4096 0 nl body);
             ])
      in
      Tables.print
        ~title:
          (Printf.sprintf
             "Ablation: static grain, triangular load (n=%d, P=%d)"
             nl cfg.procs)
        ~headers:[ "strategy"; "time" ] ~rows)

(* ------------------------------------------------------------------ *)
(* Granularity sweeps (--sweep-grain / --sweep-block): run the bestcut
   delayed pipeline at each knob setting and report time plus scheduler
   pressure, so a Figure 16-style curve can be drawn for either knob of
   the unified granularity layer.  Rows also land in --csv under the
   sections "sweep-grain" and "sweep-block".  The points of one sweep
   share rounds, each switching its knob in its setup. *)

let sweeps cfg =
  let n = scaled cfg 2_000_000 in
  let a = K.Bestcut.generate n in
  let point version setup teardown =
    Measure.point version ~setup ~teardown (fun () -> K.Bestcut.Delay_version.best_cut a)
  in
  (* Time [points] in shared rounds, record each, return the times and
     the table rows. *)
  let run_points ~section points =
    let timed = Measure.rounds ~repeat:cfg.repeat points in
    let rows =
      List.map
        (fun (version, (m : Measure.timed)) ->
          let steals_per_s = per_s m m.counters.Telemetry.s_steals in
          let tasks_per_s = per_s m m.counters.Telemetry.s_tasks_spawned in
          let put = record ~section ~bench:"bestcut-delay" ~version ~procs:cfg.procs in
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
    (timed, rows)
  in
  let headers = [ "setting"; "time"; "steals/s"; "tasks/s" ] in
  Measure.with_domains cfg.procs (fun () ->
      if cfg.sweep_grain <> [] then begin
        Printf.eprintf "  sweep: leaf grain...\n%!";
        let fixed =
          List.map
            (fun g ->
              point (Printf.sprintf "grain=%d" g)
                (fun () -> Grain.set_leaf_grain (Some g))
                (fun () -> Grain.set_leaf_grain None))
            cfg.sweep_grain
        in
        (* The shipped default (no override) against the best fixed
           grain of the same rounds: ~1.0 means the static policy
           already sits at the sweep optimum. *)
        let timed, rows =
          run_points ~section:"sweep-grain" (fixed @ [ point "default" ignore ignore ])
        in
        let t_default = best_s "default" timed in
        let t_best =
          List.fold_left
            (fun t (v, (m : Measure.timed)) -> if v = "default" then t else Float.min t m.best_s)
            infinity timed
        in
        let ratio = if t_default > 0.0 then t_best /. t_default else 0.0 in
        record ~section:"sweep-grain" ~bench:"bestcut-delay" ~version:"default"
          ~procs:cfg.procs ~metric:"default_vs_best_fixed" ratio;
        Printf.eprintf "  default_vs_best_fixed = %.3f\n%!" ratio;
        Tables.print
          ~title:
            (Printf.sprintf "Sweep: leaf grain (BDS_GRAIN) on bestcut/delay (n=%d, P=%d)"
               n cfg.procs)
          ~headers ~rows
      end;
      if cfg.sweep_block <> [] then begin
        Printf.eprintf "  sweep: block size...\n%!";
        let _, rows =
          run_points ~section:"sweep-block"
            (List.map
               (fun bs ->
                 point (Printf.sprintf "B=%d" bs)
                   (fun () -> Bds.Block.set_policy (Bds.Block.Fixed bs))
                   Bds.Block.reset_policy)
               cfg.sweep_block)
        in
        Tables.print
          ~title:
            (Printf.sprintf
               "Sweep: block size (BDS_BLOCK_SIZE) on bestcut/delay (n=%d, P=%d)"
               n cfg.procs)
          ~headers ~rows
      end)

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
   quantity is ref/unboxed (BENCH_11.json, bench_compare): the yardstick
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
          let c = Float.Array.copy (FS.floatarray_of_array af) in
          Float.Array.stable_sort Float.compare c;
          FS.array_of_floatarray c)
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
(* --service: open-loop load generator against the job service          *)

(* Drive the in-process Service with an open-loop arrival process: jobs
   are submitted on a fixed cadence regardless of completions, so when
   offered load exceeds what [runners] can drain, the outstanding-job
   bound fills and admission control sheds with typed Overloaded — the
   backpressure behaviour under test, not an error.  The mix is
   deterministic by index: mostly short busy jobs (predictable service
   time), some Seq pipelines, a slice of fail-once jobs (retry path) and
   a slice of tight-deadline jobs (deadline path), spread over four
   tenants.  Reports p50/p99 job latency (admission to terminal outcome,
   via Histogram), rejection rate and retries, and checks the zero-lost-
   jobs invariant: admitted = completed + failed + cancelled +
   deadline_exceeded.  Exits non-zero if any job is lost. *)
let service_bench cfg =
  let module Service = Bds_service.Service in
  let module Job = Bds_service.Job in
  let module Histogram = Bds_runtime.Histogram in
  let total = scaled cfg 400 in
  let rate = 2000.0 (* jobs/s offered *) in
  let config =
    {
      Service.default_config with
      Service.capacity = 32;
      runners = cfg.procs;
    }
  in
  Printf.printf
    "Job-service load generator: %d jobs open-loop at %.0f/s (capacity=%d, \
     runners=%d)\n\
     chaos: %s\n%!"
    total rate config.Service.capacity config.Service.runners
    (Bds_runtime.Chaos.describe ());
  let before = Telemetry.snapshot () in
  let svc = Service.create ~config () in
  let lat = Histogram.create () in
  let request i =
    let tenant = Printf.sprintf "t%d" (i mod 4) in
    if i mod 10 = 7 then
      (* Tight deadline against a longer busy loop: deadline path. *)
      Job.request ~tenant ~params:[ ("ms", "20") ] ~deadline_ms:2 "busy"
    else if i mod 10 = 3 then
      (* Fails once, then a small pipeline: retry path. *)
      Job.request ~tenant ~params:[ ("k", "1"); ("n", "1000") ] "fail"
    else if i mod 5 = 1 then
      Job.request ~tenant ~params:[ ("n", "20000") ] "sum"
    else
      (* 3ms busy at 2000/s across [runners] pool workers oversubscribes
         the service, so the paced phase itself reaches saturation. *)
      Job.request ~tenant ~params:[ ("ms", "3") ] "busy"
  in
  let t0 = Unix.gettimeofday () in
  let rejected = ref 0 in
  for i = 0 to total - 1 do
    (* Open loop: wait for the arrival time, not for the service. *)
    let due = t0 +. (float_of_int i /. rate) in
    let rec pace () =
      let d = due -. Unix.gettimeofday () in
      if d > 0.0 then begin
        Thread.delay d;
        pace ()
      end
    in
    pace ();
    let submitted = Unix.gettimeofday () in
    match
      Service.submit svc
        ~on_complete:(fun _ ->
          Histogram.record lat
            ~ns:
              (int_of_float
                 ((Unix.gettimeofday () -. submitted) *. 1e9)))
        (request i)
    with
    | Ok _ -> ()
    | Error (`Rejected _) -> incr rejected
    | Error (`Bad_request msg) -> failwith ("service bench: bad request: " ^ msg)
  done;
  Service.shutdown svc;
  let elapsed = Unix.gettimeofday () -. t0 in
  let d = Telemetry.diff ~before ~after:(Telemetry.snapshot ()) in
  let admitted = d.Telemetry.s_jobs_admitted in
  let resolved =
    d.Telemetry.s_jobs_completed + d.Telemetry.s_jobs_failed
    + d.Telemetry.s_jobs_cancelled + d.Telemetry.s_jobs_deadline_exceeded
  in
  let lost = admitted - resolved in
  let s = Histogram.snapshot lat in
  let ms ns = float_of_int ns /. 1e6 in
  let rejection_rate = float_of_int !rejected /. float_of_int total in
  Tables.print ~title:"Job-service load generator"
    ~headers:[ "metric"; "value" ]
    ~rows:
      [
        [ "offered jobs"; string_of_int total ];
        [ "admitted"; string_of_int admitted ];
        [ "rejected (Overloaded)"; string_of_int !rejected ];
        [ "rejection rate"; Printf.sprintf "%.1f%%" (100.0 *. rejection_rate) ];
        [ "completed"; string_of_int d.Telemetry.s_jobs_completed ];
        [ "failed"; string_of_int d.Telemetry.s_jobs_failed ];
        [ "cancelled"; string_of_int d.Telemetry.s_jobs_cancelled ];
        [ "deadline exceeded"; string_of_int d.Telemetry.s_jobs_deadline_exceeded ];
        [ "retries"; string_of_int d.Telemetry.s_jobs_retried ];
        [ "retries shed (breaker)"; string_of_int d.Telemetry.s_jobs_retries_shed ];
        [ "latency p50"; Printf.sprintf "%.2f ms" (ms (Histogram.p50 s)) ];
        [ "latency p99"; Printf.sprintf "%.2f ms" (ms (Histogram.p99 s)) ];
        [ "latency max"; Printf.sprintf "%.2f ms" (ms (Histogram.max_ns s)) ];
        [ "wall time"; Printf.sprintf "%.2f s" elapsed ];
        [ "lost jobs"; string_of_int lost ];
      ];
  List.iter
    (fun (metric, v) ->
      record ~section:"service" ~bench:"loadgen" ~version:"service"
        ~procs:cfg.procs ~metric v)
    [
      ("p50_ns", float_of_int (Histogram.p50 s));
      ("p99_ns", float_of_int (Histogram.p99 s));
      ("rejection_rate", rejection_rate);
      ("retries", float_of_int d.Telemetry.s_jobs_retried);
      ("lost_jobs", float_of_int lost);
    ];
  if lost <> 0 then begin
    Printf.eprintf "FAIL: %d admitted job(s) never reached a terminal outcome\n" lost;
    exit 1
  end;
  if Histogram.total_count s <> admitted then begin
    (* Every admitted job's on_complete fired exactly once. *)
    Printf.eprintf "FAIL: %d admitted but %d completion callbacks\n" admitted
      (Histogram.total_count s);
    exit 1
  end;
  print_endline "\nzero lost jobs: every admitted job reached exactly one terminal outcome";
  (* Latency breakdown: where resolved jobs spent their wall time.
     Components are measured where they happen (fair-queue wait at
     dequeue, run around each attempt, backoff around each delay); the
     residue is scheduling overhead (condvar wakeups, monitor cadence).
     The accounting must cohere: components can never exceed wall by
     more than measurement noise, and without chaos the three
     components plus a sane overhead must explain most of the wall —
     a breakdown that doesn't sum is worse than none. *)
  let bk = Service.latency_breakdown svc in
  let sec ns = float_of_int ns /. 1e9 in
  let wall_s = sec bk.Service.bk_wall_ns in
  let accounted_ns =
    bk.Service.bk_queue_ns + bk.Service.bk_run_ns + bk.Service.bk_backoff_ns
  in
  let frac = if wall_s > 0.0 then sec accounted_ns /. wall_s else 1.0 in
  let pct ns =
    if bk.Service.bk_wall_ns > 0 then
      100.0 *. float_of_int ns /. float_of_int bk.Service.bk_wall_ns
    else 0.0
  in
  Tables.print ~title:"Latency breakdown (cumulative over resolved jobs)"
    ~headers:[ "component"; "seconds"; "% of wall" ]
    ~rows:
      [
        [ "wall (submit->outcome)"; Printf.sprintf "%.3f" wall_s; "100.0" ];
        [
          "queue wait";
          Printf.sprintf "%.3f" (sec bk.Service.bk_queue_ns);
          Printf.sprintf "%.1f" (pct bk.Service.bk_queue_ns);
        ];
        [
          "run (attempts)";
          Printf.sprintf "%.3f" (sec bk.Service.bk_run_ns);
          Printf.sprintf "%.1f" (pct bk.Service.bk_run_ns);
        ];
        [
          "backoff/chaos wait";
          Printf.sprintf "%.3f" (sec bk.Service.bk_backoff_ns);
          Printf.sprintf "%.1f" (pct bk.Service.bk_backoff_ns);
        ];
        [
          "overhead (residue)";
          Printf.sprintf "%.3f" (sec (bk.Service.bk_wall_ns - accounted_ns));
          Printf.sprintf "%.1f" (pct (bk.Service.bk_wall_ns - accounted_ns));
        ];
      ];
  record ~section:"service" ~bench:"loadgen" ~version:"service"
    ~procs:cfg.procs ~metric:"breakdown_accounted_frac" frac;
  let chaos_off = Bds_runtime.Chaos.describe () = "chaos: off" in
  (* 5% tolerance for clock reads straddling the component edges. *)
  if frac > 1.05 then begin
    Printf.eprintf
      "FAIL: breakdown components sum to %.1f%% of wall (> 105%%)\n"
      (100.0 *. frac);
    exit 1
  end;
  if chaos_off && bk.Service.bk_jobs > 0 && frac < 0.5 then begin
    Printf.eprintf
      "FAIL: breakdown accounts for only %.1f%% of wall without chaos \
       (want >= 50%%)\n"
      (100.0 *. frac);
    exit 1
  end;
  Printf.printf "breakdown coheres: %.1f%% of wall accounted\n" (100.0 *. frac);
  (* Scrape and validate the OpenMetrics exposition the service built
     up during the run — the same body bds_serve streams for METRICS. *)
  Service.collect_metrics svc;
  let exposition = Bds_runtime.Metrics.render () in
  (match Bds_runtime.Metrics.validate_string exposition with
  | Ok samples -> Printf.printf "metrics exposition valid: %d samples\n" samples
  | Error e ->
    Printf.eprintf "FAIL: metrics exposition invalid: %s\n" e;
    exit 1)

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: one Test per paper table                  *)

let micro cfg =
  let open Bechamel in
  let open Toolkit in
  let n = scaled cfg 200_000 in
  let bc_input = K.Bestcut.generate n in
  let mcss_input = K.Mcss.generate n in
  (* --micro-filter: keep only benchmarks whose name contains the
     substring (quick single-kernel timings while tuning). *)
  let wanted name =
    match cfg.micro_filter with
    | None -> true
    | Some sub ->
      let nl = String.length name and sl = String.length sub in
      let rec at i = i + sl <= nl && (String.sub name i sl = sub || at (i + 1)) in
      sl = 0 || at 0
  in
  let mk name f =
    if wanted name then [ Test.make ~name (Staged.stage f) ] else []
  in
  let tests =
    Test.make_grouped ~name:"bds" ~fmt:"%s %s"
      (List.concat
      [
        (* Figure 13's headline kernel in all three versions. *)
        mk "fig13/bestcut/array" (fun () -> K.Bestcut.Array_version.best_cut bc_input);
        mk "fig13/bestcut/rad" (fun () -> K.Bestcut.Rad_version.best_cut bc_input);
        mk "fig13/bestcut/delay" (fun () -> K.Bestcut.Delay_version.best_cut bc_input);
        (* Figure 14's map+reduce shape. *)
        mk "fig14/mcss/array" (fun () -> K.Mcss.Array_version.mcss mcss_input);
        mk "fig14/mcss/delay" (fun () -> K.Mcss.Delay_version.mcss mcss_input);
        (* Figure 16's within-block-parallel pipeline. *)
        mk "fig16/bestcut/sob" (fun () -> K.Bestcut.best_cut_sob ~block_size:10_000 bc_input);
        (* Individual operations of Figure 1, fused vs array. *)
        mk "ops/map+reduce/delay" (fun () ->
            Bds.Seq.(reduce ( + ) 0 (map (fun x -> x * 3) (iota n))));
        mk "ops/map+reduce/array" (fun () ->
            Bds_parray.Parray.(reduce ( + ) 0 (map (fun x -> x * 3) (iota n))));
        mk "ops/scan/delay" (fun () ->
            Bds.Seq.(reduce ( + ) 0 (fst (scan ( + ) 0 (iota n)))));
        mk "ops/scan/array" (fun () ->
            Bds_parray.Parray.(reduce ( + ) 0 (fst (scan ( + ) 0 (iota n)))));
        mk "ops/filter/delay" (fun () ->
            Bds.Seq.(reduce ( + ) 0 (filter (fun x -> x land 7 < 3) (iota n))));
        mk "ops/filter/array" (fun () ->
            Bds_parray.Parray.(reduce ( + ) 0 (filter (fun x -> x land 7 < 3) (iota n))));
      ])
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg_b =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg_b instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\nBechamel microbenchmarks (ns/run, n=%d)\n%s\n" n
    (String.make 46 '=');
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "%-28s %12.0f ns/run\n" name est
      | _ -> Printf.printf "%-28s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)
(* --profile: per-op work/span rows for the whole run                  *)

(* Everything the harness ran this process accumulated into the op
   registry (profiling was enabled before the first section); emit one
   CSV row per op metric under section "profile" and print the human
   report.  [procs] is the nominal P=max — sections run at several
   worker counts, so utilization here is indicative, not exact. *)
let profile_report cfg =
  let rows = Profile.rows () in
  List.iter
    (fun (r : Profile.row) ->
      let p metric v =
        record ~section:"profile" ~bench:r.Profile.r_name ~version:"all"
          ~procs:cfg.procs ~metric v
      in
      p "calls" (float_of_int r.Profile.r_calls);
      p "chunks" (float_of_int r.Profile.r_chunks);
      p "wall_ns" (float_of_int r.Profile.r_wall_ns);
      p "work_ns" (float_of_int r.Profile.r_work_ns);
      p "span_ns" (float_of_int r.Profile.r_span_ns);
      p "p50_ns" (float_of_int r.Profile.r_p50_ns);
      p "p99_ns" (float_of_int r.Profile.r_p99_ns);
      p "max_chunk_ns" (float_of_int r.Profile.r_max_chunk_ns);
      p "parallelism" r.Profile.r_parallelism;
      p "tiny_fraction" r.Profile.r_tiny_fraction)
    rows;
  print_newline ();
  print_string (Profile.render ~workers:cfg.procs rows)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let run_sections cfg =
  Printf.printf
    "Parallel block-delayed sequences: benchmark harness\n\
     host workers: %d requested for P=max; scale %.2fx; repeat %d\n"
    cfg.procs cfg.scale cfg.repeat;
  if enabled cfg "fig5" then fig5 cfg;
  if enabled cfg "fig13" then begin
    Printf.eprintf "fig13 (BID benchmarks)...\n%!";
    let results = fig13_rows cfg in
    print_fig13 results;
    print_sched
      ~title:(Printf.sprintf "Figure 13 scheduler pressure (P=%d, per call)" cfg.procs)
      results
  end;
  if enabled cfg "fig14" then begin
    Printf.eprintf "fig14 (RAD benchmarks)...\n%!";
    let results = fig14_rows cfg in
    print_fig14 results;
    print_sched
      ~title:(Printf.sprintf "Figure 14 scheduler pressure (P=%d, per call)" cfg.procs)
      results
  end;
  if enabled cfg "fig15" then fig15 cfg;
  if enabled cfg "fig16" then fig16 cfg;
  if enabled cfg "ext" then begin
    Printf.eprintf "ext (extension applications)...\n%!";
    ext cfg
  end;
  if enabled cfg "ablation" then ablation cfg;
  if enabled cfg "stream-overhead" then stream_overhead cfg;
  if enabled cfg "float-kernels" then float_kernels cfg;
  if cfg.sweep_grain <> [] || cfg.sweep_block <> [] then sweeps cfg;
  if enabled cfg "micro" then micro cfg;
  if cfg.profile then profile_report cfg;
  Option.iter write_csv cfg.csv;
  Printf.printf "\ndone. (sink: %d %.3f)\n" !Registry.sink_int !Registry.sink_float

let run cfg =
  if cfg.profile then Profile.set_enabled true;
  if cfg.service then begin
    (* The load generator stands alone: it measures the service layer,
       not the paper's figures, and owns its own pass/fail criterion. *)
    service_bench cfg;
    Option.iter write_csv cfg.csv
  end
  else run_sections cfg

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
  Arg.(value & opt (list string) []
       & info [ "only" ] ~doc:"Sections to run: fig5, fig13, fig14, fig15, fig16, ext, ablation, stream-overhead, float-kernels, micro. Default: all.")

let micro_filter_arg =
  Arg.(value & opt (some string) None
       & info [ "micro-filter" ]
           ~doc:"Only run microbenchmarks whose name contains this substring.")

let csv_arg =
  Arg.(value & opt (some string) None
       & info [ "csv" ] ~doc:"Also write raw measurements to this CSV file.")

let plots_arg =
  Arg.(value & opt (some string) None
       & info [ "plots" ] ~doc:"Also write SVG versions of the plotted figures to this directory.")

let sweep_grain_arg =
  Arg.(value & opt (list int) []
       & info [ "sweep-grain" ]
           ~doc:"Leaf-grain values (comma-separated) to sweep the bestcut \
                 delayed pipeline over via the unified granularity layer \
                 (equivalent to BDS_GRAIN), then once more at the shipped \
                 default grain (version default), recording best-fixed \
                 over default as default_vs_best_fixed.  Emits time, \
                 steals/s and tasks/s per point; rows land in --csv under \
                 sweep-grain.")

let sweep_block_arg =
  Arg.(value & opt (list int) []
       & info [ "sweep-block" ]
           ~doc:"Fixed block sizes (comma-separated) to sweep the bestcut \
                 delayed pipeline over (equivalent to BDS_BLOCK_SIZE).  \
                 Emits time, steals/s and tasks/s per point; rows land in \
                 --csv under sweep-block.")

let profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Run everything under the work/span profiler: print the \
                 per-op report at the end and append per-op rows (section \
                 \"profile\") to --csv output.")

let service_arg =
  Arg.(value & flag
       & info [ "service" ]
           ~doc:"Run the job-service open-loop load generator instead of \
                 the paper sections: submit a deterministic mixed workload \
                 at a fixed arrival rate and report p50/p99 job latency, \
                 rejection rate and retries.  Exits non-zero if any \
                 admitted job is lost.  --scale sizes the job count, \
                 --procs the runner count.")

let main scale quick procs proc_list repeat sections micro_filter csv plots
    sweep_grain sweep_block profile service =
  let cfg =
    {
      scale = (if quick then scale /. 10.0 else scale);
      procs;
      proc_list;
      repeat = (if quick then 1 else repeat);
      sections;
      micro_filter;
      csv;
      plots;
      sweep_grain;
      sweep_block;
      profile;
      service;
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
      $ only_arg $ micro_filter_arg $ csv_arg $ plots_arg $ sweep_grain_arg
      $ sweep_block_arg $ profile_arg $ service_arg)

let () = exit (Cmd.eval cmd)
