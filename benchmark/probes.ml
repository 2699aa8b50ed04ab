(* Fixed probes of single layers, run by every traced run after its
   workload.  Each times calls into one layer's public functions and
   reports the median over repetitions. *)

module Runtime = Bds_runtime.Runtime
module Telemetry = Bds_runtime.Telemetry
module Profile = Bds_runtime.Profile
module Stream = Bds_stream.Stream
module Seq = Bds.Seq

type metric = { name : string; value : float; unit : string; samples : int }

let probe ?(reps = 7) ~per ~unit name f =
  Spans.with_span ("probe:" ^ name) @@ fun () ->
  let sample () = snd (Spans.timed f) *. 1e9 /. per in
  { name; value = Stats.median (List.init reps (fun _ -> sample ())); unit; samples = reps }

(* [big] is the input length of the per-element probes: 2M, or less for
   a smoke run. *)
let runtime ~big =
  let chunk_ns () =
    (* Opaque, so the sequential loop pays the same call per element. *)
    let body = Sys.opaque_identity (fun i -> ignore (Sys.opaque_identity (i * i))) in
    let sample () =
      let t0 = Spans.now_ns () in
      for i = 0 to big - 1 do
        body i
      done;
      let t1 = Spans.now_ns () in
      let c0 = Telemetry.snapshot () in
      Runtime.parallel_for 0 big body;
      let t2 = Spans.now_ns () in
      let chunks = (Telemetry.diff ~before:c0 ~after:(Telemetry.snapshot ())).s_chunks_executed in
      (* Work the parallel loop spent beyond the sequential one. *)
      ((float_of_int (Runtime.num_workers ()) *. (t2 -. t1)) -. (t1 -. t0)) /. float_of_int chunks
    in
    Spans.with_span "probe:runtime.parallel_for_chunk_ns" @@ fun () ->
    {
      name = "runtime.parallel_for_chunk_ns";
      value = Stats.median (List.init 11 (fun _ -> sample ()));
      unit = "ns";
      samples = 11;
    }
  in
  [
    probe ~reps:21 ~per:1000. ~unit:"ns" "runtime.run_entry_ns" (fun () ->
        for _ = 1 to 1000 do
          Runtime.run ignore
        done);
    probe ~reps:21 ~per:1000. ~unit:"ns" "runtime.par_ns" (fun () ->
        Runtime.run (fun () ->
            for _ = 1 to 1000 do
              ignore (Runtime.par ignore ignore)
            done));
    chunk_ns ();
    probe ~reps:21 ~per:4096. ~unit:"ns" "runtime.apply_blocks_block_ns" (fun () ->
        Runtime.apply_blocks ~nb:4096 ignore);
  ]

let stream ~big =
  let a = Array.init big Fun.id in
  let sum s = Stream.reduce ( + ) 0 s in
  let per_elem name f = probe ~per:(float_of_int big) ~unit:"ns" ("stream." ^ name ^ "_ns_per_elem") f in
  let scanned () = Stream.scan_incl ( + ) 0 (Stream.of_array a) in
  [
    per_elem "tabulate_reduce" (fun () -> sum (Stream.tabulate big Fun.id));
    per_elem "map" (fun () -> sum (Stream.map succ (Stream.of_array a)));
    per_elem "scan_incl" (fun () -> sum (scanned ()));
    per_elem "zip_with" (fun () -> sum (Stream.zip_with ( + ) (Stream.of_array a) (Stream.of_array a)));
    per_elem "of_segments" (fun () ->
        sum
          (Stream.of_segments ~length:big ~seg_len:(fun _ -> 64)
             ~elem:(fun s i -> (s lsl 6) + i)
             ~start_seg:0 ~start_ofs:0));
    per_elem "to_array" (fun () -> Stream.to_array (Stream.tabulate big Fun.id));
    (* Neither side is indexed, so zip pulls the right side's trickle. *)
    per_elem "zip_stateful" (fun () -> sum (Stream.zip_with ( + ) (scanned ()) (scanned ())));
    per_elem "equal" (fun () -> Stream.equal ( = ) (Stream.of_array a) (Stream.of_array a));
  ]

let seq ~big =
  let a = Array.init big Fun.id and fa = Array.init big float_of_int in
  let per_elem name f = probe ~per:(float_of_int big) ~unit:"ns" ("seq." ^ name ^ "_ns_per_elem") f in
  let map_reduce a = Seq.reduce ( + ) 0 (Seq.map (fun x -> x lxor 1) (Seq.of_array a)) in
  let scan a = Seq.reduce ( + ) 0 (fst (Seq.scan ( + ) 0 (Seq.of_array a))) in
  let filter a = Seq.reduce ( + ) 0 (Seq.filter (fun x -> x land 1 = 0) (Seq.of_array a)) in
  let small = Array.sub a 0 1000 in
  let per_call name f =
    probe ~reps:21 ~per:(200. *. 1e3) ~unit:"us" ("seq." ^ name ^ "_small_us") (fun () ->
        for _ = 1 to 200 do
          ignore (Sys.opaque_identity (f small))
        done)
  in
  let large =
    [
      per_elem "map_reduce" (fun () -> map_reduce a);
      per_elem "scan" (fun () -> scan a);
      per_elem "filter" (fun () -> filter a);
      per_elem "flatten" (fun () ->
          Seq.reduce ( + ) 0
            (Seq.flatten (Seq.tabulate (big / 64) (fun i -> Seq.tabulate 64 (fun j -> (i lsl 6) + j)))));
      per_elem "force" (fun () -> Seq.force (Seq.map succ (Seq.of_array a)));
      per_elem "zip_with" (fun () -> Seq.reduce ( + ) 0 (Seq.zip_with ( + ) (Seq.of_array a) (Seq.of_array a)));
      per_elem "exists" (fun () -> Seq.exists (fun x -> x = big - 1) (Seq.of_array a));
      per_elem "int_sum" (fun () -> Seq.int_sum (Seq.of_array a));
      per_elem "float_sum" (fun () -> Seq.float_sum (Seq.of_array fa));
    ]
  in
  let small = [ per_call "map_reduce" map_reduce; per_call "scan" scan; per_call "filter" filter ] in
  (* Work over wall time of each op, from the library's profiler. *)
  Profile.reset ();
  Profile.set_enabled true;
  for _ = 1 to 3 do
    ignore (Sys.opaque_identity (map_reduce a, scan a, filter a))
  done;
  Profile.set_enabled false;
  let rows = Profile.rows () in
  let parallelism op =
    let value, samples =
      match List.find_opt (fun r -> r.Profile.r_name = op) rows with
      | Some r -> (r.Profile.r_parallelism, r.Profile.r_calls)
      | None -> (0., 0)
    in
    { name = "seq." ^ op ^ "_parallelism"; value; unit = "ratio"; samples }
  in
  large @ small @ List.map parallelism [ "reduce"; "scan"; "filter" ]
