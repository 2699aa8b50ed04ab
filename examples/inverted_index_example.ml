(* Building an inverted index (§1's PBBS application) with the public
   API: tokenise, attach document ids, sort with the parallel sort
   substrate, and reduce to postings — comparing the three library
   versions.

   Run with:  dune exec examples/inverted_index_example.exe *)

module K = Bds_kernels.Inverted_index
module Measure = Bds_harness.Measure

let () =
  Bds_runtime.Runtime.set_num_domains 4;
  let n = 1_000_000 in
  let text = K.generate n in
  Printf.printf "indexing %d chars of documents\n\n" n;
  List.iter
    (fun (name, (m : Measure.timed)) ->
      Printf.printf "  %-8s %s\n%!" name (Measure.pp_time m.best_s))
    (Measure.rounds ~repeat:3
       [
         Measure.point "array" (fun () -> K.Array_version.index text);
         Measure.point "rad" (fun () -> K.Rad_version.index text);
         Measure.point "delay" (fun () -> K.Delay_version.index text);
       ]);
  let words, postings = K.Delay_version.index text in
  Printf.printf "\n  %d distinct words, %d postings (%.1f docs/word avg)\n" words
    postings
    (float_of_int postings /. float_of_int words);
  assert ((words, postings) = K.reference text);
  print_endline "  validated against the hash-table reference.";
  Bds_runtime.Runtime.shutdown ()
