(* Graph substrate: CSR construction, R-MAT generation, and the three BFS
   versions (Figure 6). *)

module Csr = Bds_graph.Csr
module Rmat = Bds_graph.Rmat
module Bfs = Bds_graph.Bfs
module Grain = Bds_runtime.Grain
open Bds_test_util

let () = init ()

let test_csr_build () =
  let g = Csr.of_edges ~num_vertices:4 [| (0, 1); (0, 2); (2, 3); (0, 3) |] in
  Alcotest.(check int) "n" 4 (Csr.num_vertices g);
  Alcotest.(check int) "m" 4 (Csr.num_edges g);
  Alcotest.(check int) "deg 0" 3 (Csr.degree g 0);
  Alcotest.(check int) "deg 1" 0 (Csr.degree g 1);
  Alcotest.(check int_array) "neighbors 0 (stable order)" [| 1; 2; 3 |]
    (Csr.out_neighbors g 0);
  Alcotest.(check int_array) "neighbors 2" [| 3 |] (Csr.out_neighbors g 2);
  Alcotest.check_raises "bad edge" (Invalid_argument "Csr.of_edges") (fun () ->
      ignore (Csr.of_edges ~num_vertices:2 [| (0, 5) |]))

let test_reference_distances () =
  (* 0 -> 1 -> 2, 0 -> 2, 3 isolated *)
  let g = Csr.of_edges ~num_vertices:4 [| (0, 1); (1, 2); (0, 2) |] in
  Alcotest.(check int_array) "distances" [| 0; 1; 1; -1 |] (Csr.bfs_distances g 0)

let test_rmat () =
  let g1 = Rmat.generate ~seed:7 ~scale:8 ~num_edges:2000 () in
  let g2 = Rmat.generate ~seed:7 ~scale:8 ~num_edges:2000 () in
  Alcotest.(check int) "deterministic n" (Csr.num_vertices g1) (Csr.num_vertices g2);
  Alcotest.(check bool) "deterministic edges" true
    (Csr.out_neighbors g1 3 = Csr.out_neighbors g2 3
    && Csr.out_neighbors g1 100 = Csr.out_neighbors g2 100);
  Alcotest.(check int) "vertex count" 256 (Csr.num_vertices g1);
  Alcotest.(check int) "edge count" 2000 (Csr.num_edges g1);
  (* Power-law-ish: max degree far above average. *)
  let max_deg = ref 0 in
  for v = 0 to Csr.num_vertices g1 - 1 do
    max_deg := max !max_deg (Csr.degree g1 v)
  done;
  Alcotest.(check bool) "skewed degrees" true (!max_deg > 3 * (2000 / 256))

let check_bfs name bfs g source =
  let parents = bfs g source in
  Alcotest.(check bool) (name ^ " valid") true (Bfs.valid_parents g source parents)

let graphs () =
  [
    ("path", Csr.of_edges ~num_vertices:10
       (Array.init 9 (fun i -> (i, i + 1))), 0);
    ("star", Csr.of_edges ~num_vertices:101
       (Array.init 100 (fun i -> (0, i + 1))), 0);
    ("two components",
     Csr.of_edges ~num_vertices:6 [| (0, 1); (1, 2); (3, 4); (4, 5) |], 0);
    ("cycle", Csr.of_edges ~num_vertices:8
       (Array.init 8 (fun i -> (i, (i + 1) mod 8))), 3);
    ("rmat", Rmat.generate ~seed:11 ~scale:9 ~num_edges:4000 (), 0);
    ("singleton", Csr.of_edges ~num_vertices:1 [||], 0);
  ]

let test_bfs_versions () =
  List.iter
    (fun (name, g, s) ->
      check_bfs (name ^ "/array") Bfs.Array_version.bfs g s;
      check_bfs (name ^ "/rad") Bfs.Rad_version.bfs g s;
      check_bfs (name ^ "/delay") Bfs.Delay_version.bfs g s)
    (graphs ())

let test_bfs_versions_agree_on_reachability () =
  let g = Rmat.generate ~seed:3 ~scale:10 ~num_edges:8000 () in
  let reach p = Array.map (fun x -> x >= 0) p in
  let a = reach (Bfs.Array_version.bfs g 0) in
  let r = reach (Bfs.Rad_version.bfs g 0) in
  let d = reach (Bfs.Delay_version.bfs g 0) in
  Alcotest.(check bool) "array=rad" true (a = r);
  Alcotest.(check bool) "array=delay" true (a = d)

(* Parent pointers must form a forest rooted at the source: following
   parents from any reached vertex terminates at the source in at most
   depth(v) steps. *)
let check_forest name g source parents =
  let dist = Csr.bfs_distances g source in
  Array.iteri
    (fun v p ->
      if p >= 0 && v <> source then begin
        let rec walk u steps =
          if u = source then ()
          else if steps < 0 then Alcotest.failf "%s: cycle reaching %d" name v
          else walk parents.(u) (steps - 1)
        in
        walk v dist.(v)
      end)
    parents

let test_bfs_forest_invariant () =
  let g = Rmat.generate ~seed:21 ~scale:10 ~num_edges:6000 () in
  check_forest "array" g 0 (Bfs.Array_version.bfs g 0);
  check_forest "rad" g 0 (Bfs.Rad_version.bfs g 0);
  check_forest "delay" g 0 (Bfs.Delay_version.bfs g 0)

let test_bfs_seed_matrix () =
  (* Several graph shapes × sources × all versions. *)
  List.iter
    (fun seed ->
      let g = Rmat.generate ~seed ~scale:8 ~num_edges:1500 () in
      List.iter
        (fun source ->
          let source = source mod Csr.num_vertices g in
          check_bfs
            (Printf.sprintf "seed %d src %d array" seed source)
            Bfs.Array_version.bfs g source;
          check_bfs
            (Printf.sprintf "seed %d src %d rad" seed source)
            Bfs.Rad_version.bfs g source;
          check_bfs
            (Printf.sprintf "seed %d src %d delay" seed source)
            Bfs.Delay_version.bfs g source)
        [ 0; 17; 255 ])
    [ 1; 2; 3; 4; 5 ]

let test_bfs_small_blocks () =
  (* Tiny blocks stress the BID paths inside BFS. *)
  with_policy (Grain.Fixed 2) (fun () ->
      let g = Rmat.generate ~seed:5 ~scale:7 ~num_edges:600 () in
      check_bfs "delay small blocks" Bfs.Delay_version.bfs g 0)

(* The oracle itself: a parent with the right depth but no edge to its
   child is rejected, and so is an array of the wrong length. *)
let test_valid_parents_oracle () =
  let g = Csr.of_edges ~num_vertices:4 [| (0, 1); (0, 2); (1, 3) |] in
  Alcotest.(check bool) "the BFS tree" true (Bfs.valid_parents g 0 [| 0; 0; 0; 1 |]);
  Alcotest.(check bool) "parent 2 of 3: no edge 2->3" false
    (Bfs.valid_parents g 0 [| 0; 0; 0; 2 |]);
  Alcotest.(check bool) "parent out of range" false
    (Bfs.valid_parents g 0 [| 0; 0; 0; 7 |]);
  Alcotest.(check bool) "reachable vertex left unset" false
    (Bfs.valid_parents g 0 [| 0; 0; 0; -1 |]);
  Alcotest.(check bool) "too short" false (Bfs.valid_parents g 0 [| 0; 0 |]);
  Alcotest.(check bool) "too long" false (Bfs.valid_parents g 0 [| 0; 0; 0; 1; -1 |])

let () =
  Alcotest.run "graph"
    [
      ( "csr",
        [
          Alcotest.test_case "build" `Quick test_csr_build;
          Alcotest.test_case "reference distances" `Quick test_reference_distances;
        ] );
      ("rmat", [ Alcotest.test_case "generation" `Quick test_rmat ]);
      ( "bfs",
        [
          Alcotest.test_case "all versions valid" `Quick test_bfs_versions;
          Alcotest.test_case "versions agree" `Quick test_bfs_versions_agree_on_reachability;
          Alcotest.test_case "seed matrix" `Quick test_bfs_seed_matrix;
          Alcotest.test_case "forest invariant" `Quick test_bfs_forest_invariant;
          Alcotest.test_case "small blocks" `Quick test_bfs_small_blocks;
          Alcotest.test_case "oracle rejects non-edges" `Quick test_valid_parents_oracle;
        ] );
    ]
