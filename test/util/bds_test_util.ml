(* Shared helpers for the test suites. *)

let domains = 3

(* Idempotent: every suite runs on a small oversubscribed pool so that the
   work-stealing paths are exercised even on a single-core machine —
   unless BDS_NUM_DOMAINS sets the size, as `make stress` does when it
   sweeps the suites over 1, 2 and 4 domains. *)
let init =
  let done_ = ref false in
  fun () ->
    if not !done_ then begin
      if Bds_runtime.Env.get "BDS_NUM_DOMAINS" = None then
        Bds_runtime.Runtime.set_num_domains domains;
      done_ := true
    end

(* Run [f] under a block-size policy, restoring the previous policy. *)
let with_policy p f =
  let old = Bds_runtime.Grain.get_policy () in
  Bds_runtime.Grain.set_policy p;
  Fun.protect ~finally:(fun () -> Bds_runtime.Grain.set_policy old) f

(* Exercise a check under several block-size policies, including
   degenerate ones. *)
let policies =
  [
    ("B=1", Bds_runtime.Grain.Fixed 1);
    ("B=3", Bds_runtime.Grain.Fixed 3);
    ("B=64", Bds_runtime.Grain.Fixed 64);
    ("B=10000", Bds_runtime.Grain.Fixed 10000);
    ("scaled", Bds_runtime.Grain.default_policy);
  ]

let for_all_policies f =
  List.iter (fun (name, p) -> with_policy p (fun () -> f name)) policies

(* Alcotest testables. *)
let int_array = Alcotest.(array int)
let int_list = Alcotest.(list int)

(* Exclusive scan reference on lists. *)
let list_scan f z l =
  let rec go acc = function
    | [] -> ([], acc)
    | x :: tl ->
      let rest, total = go (f acc x) tl in
      (acc :: rest, total)
  in
  go z l

(* Inclusive scan reference on lists. *)
let list_scan_incl f z l =
  let rec go acc = function
    | [] -> []
    | x :: tl ->
      let acc = f acc x in
      acc :: go acc tl
  in
  go z l

(* QCheck arbitrary for small int arrays (including empty). *)
let small_int_array =
  QCheck2.Gen.(array_size (int_bound 200) (int_range (-100) 100))
