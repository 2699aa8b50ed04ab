(* The paper's motivating example (§3): best-cut for ray-tracing kd-tree
   construction — a map, scan, map, reduce pipeline in which block-delayed
   sequences make only two passes over the data (Figure 5).

   Run with:  dune exec examples/bestcut_example.exe *)

module K = Bds_kernels.Bestcut
module Measure = Bds_harness.Measure

let () =
  Bds_runtime.Runtime.set_num_domains 4;
  let n = 2_000_000 in
  let boxes = K.generate n in
  Printf.printf "best-cut over %d bounding-box events\n\n" n;

  let timed =
    Measure.rounds ~repeat:3
      [
        Measure.point "array (no fusion)" (fun () -> K.Array_version.best_cut boxes);
        Measure.point "rad (index fusion)" (fun () -> K.Rad_version.best_cut boxes);
        Measure.point "delay (RAD+BID fusion)" (fun () -> K.Delay_version.best_cut boxes);
      ]
  in
  List.iter
    (fun (name, (m : Measure.timed)) ->
      Printf.printf "  %-22s %s\n%!" name (Measure.pp_time m.best_s))
    timed;
  let ta, tr, td =
    match List.map (fun (_, (m : Measure.timed)) -> m.best_s) timed with
    | [ ta; tr; td ] -> (ta, tr, td)
    | _ -> assert false
  in
  Printf.printf "\n  speedup vs array: rad %.2fx, delay %.2fx\n" (ta /. tr) (ta /. td);

  (* All three compute the same cut cost. *)
  let c = K.Delay_version.best_cut boxes in
  assert (Float.abs (c -. K.reference boxes) < 1e-6);
  Printf.printf "  minimum cut cost: %.2f (validated)\n" c;
  Bds_runtime.Runtime.shutdown ()
