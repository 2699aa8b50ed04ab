(* Graph analytics: parallel BFS over an R-MAT power-law graph, exactly
   the paper's Figure 6 — flatten + filterOp, with the flattened edge
   sequence never materialised.  Each edge reads its child's slot in one
   flat parents array and runs a compare-and-swap only while the slot
   is unclaimed; the array the search fills is the result.

   Run with:  dune exec examples/bfs_example.exe *)

let () =
  Bds_runtime.Runtime.set_num_domains 4;
  let scale = 16 and num_edges = 500_000 in
  Printf.printf "generating R-MAT graph: 2^%d vertices, %d edges...\n%!" scale num_edges;
  let g = Bds_graph.Rmat.generate ~seed:1 ~scale ~num_edges () in

  let t0 = Unix.gettimeofday () in
  let parents = Bds_graph.Bfs.Delay_version.bfs g 0 in
  let dt = Unix.gettimeofday () -. t0 in

  let reached = Array.fold_left (fun acc p -> if p >= 0 then acc + 1 else acc) 0 parents in
  Printf.printf "BFS from vertex 0: reached %d of %d vertices in %.3fs\n" reached
    (Bds_graph.Csr.num_vertices g) dt;

  (* Depth histogram via the reference distances. *)
  let dist = Bds_graph.Csr.bfs_distances g 0 in
  let max_d = Array.fold_left max 0 dist in
  let hist = Array.make (max_d + 1) 0 in
  Array.iter (fun d -> if d >= 0 then hist.(d) <- hist.(d) + 1) dist;
  Printf.printf "frontier sizes by depth:";
  Array.iteri (fun d c -> if d <= 10 then Printf.printf " %d:%d" d c) hist;
  print_newline ();

  assert (Bds_graph.Bfs.valid_parents g 0 parents);
  print_endline "parent tree validated against sequential reference.";
  Bds_runtime.Runtime.shutdown ()
