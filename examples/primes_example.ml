(* Recursive blocked prime sieve built from flatten + filter (§6's
   "primes" workload), comparing the three library versions.

   Run with:  dune exec examples/primes_example.exe *)

module K = Bds_kernels.Primes
module Measure = Bds_harness.Measure

let () =
  Bds_runtime.Runtime.set_num_domains 4;
  let n = 2_000_000 in
  Printf.printf "primes below %d\n\n" n;
  List.iter
    (fun (name, (m : Measure.timed)) ->
      Printf.printf "  %-8s %s\n%!" name (Measure.pp_time m.best_s))
    (Measure.rounds ~repeat:3
       [
         Measure.point "array" (fun () -> K.Array_version.primes n);
         Measure.point "rad" (fun () -> K.Rad_version.primes n);
         Measure.point "delay" (fun () -> K.Delay_version.primes n);
       ]);

  let ps = K.Delay_version.primes n in
  Printf.printf "\n  %d primes; largest below %d is %d\n" (Array.length ps) n
    ps.(Array.length ps - 1);
  Printf.printf "  first ten:";
  Array.iteri (fun i p -> if i < 10 then Printf.printf " %d" p) ps;
  print_newline ();
  assert (ps = K.reference n);
  print_endline "  validated against sequential Eratosthenes.";
  Bds_runtime.Runtime.shutdown ()
