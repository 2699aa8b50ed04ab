(* Lint: no polymorphic [min]/[max] in the per-element, per-chunk and
   per-call layers.  Without flambda, ocamlopt compiles a call to
   [Stdlib.min]/[Stdlib.max] to a [caml_lessequal]/[caml_greaterequal]
   C call even when both arguments are ints, so one left in a fused
   loop costs a C call per element (mcss's monoid paid six).  The lint
   parses each covered file with compiler-libs and rejects any bare
   [min]/[max] (or [Stdlib.min]/[Stdlib.max]) identifier; [Int.min],
   [Float.max] and friends are monomorphic and pass.  Value bindings named
   [reference*] are skipped: they are the benchmark's sequential
   yardsticks and stay as written.

   Run with the project root as the only argument (the dune rule passes
   it).  The self-test cases run first, so a lint that stopped matching
   anything would fail rather than pass vacuously. *)

(* The covered sources, relative to the project root: whole
   directories, then single files from the mixed ones. *)
let covered_dirs =
  [
    "lib/stream";
    "lib/parray";
    "lib/rad";
    "lib/sob";
    "lib/sort";
    "lib/graph";
    "lib/kernels";
  ]

let covered_files =
  [
    "lib/core/seq.ml";
    "lib/core/float_seq.ml";
    "lib/core/cost_model.ml";
    "lib/runtime/runtime.ml";
    "lib/runtime/grain.ml";
    "lib/runtime/ws_deque.ml";
    "lib/runtime/histogram.ml";
    "lib/runtime/profile.ml";
    "lib/runtime/pool.ml";
    "lib/runtime/cancel.ml";
    "lib/runtime/trace.ml";
    "lib/runtime/flight.ml";
    "lib/runtime/metrics.ml";
    "lib/runtime/int_cas.ml";
  ]

let banned = function
  | Longident.Lident ("min" | "max") -> true
  | Ldot (Lident "Stdlib", ("min" | "max")) -> true
  | _ -> false

let is_reference (vb : Parsetree.value_binding) =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt; _ } -> String.starts_with ~prefix:"reference" txt
  | _ -> false

let parse ~filename source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf filename;
  Parse.implementation lexbuf

(* Every banned identifier in [ast], as "file:line: name". *)
let minmax_violations ~filename ast =
  let hits = ref [] in
  let super = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } when banned txt ->
      hits :=
        Printf.sprintf "%s:%d: polymorphic %s" filename loc.loc_start.pos_lnum
          (String.concat "." (Longident.flatten txt))
        :: !hits
    | _ -> ());
    super.expr it e
  in
  let value_binding it vb = if not (is_reference vb) then super.value_binding it vb in
  let it = { super with expr; value_binding } in
  it.structure it ast;
  List.rev !hits

let read_file path = In_channel.with_open_bin path In_channel.input_all

let covered_sources root =
  let in_dir d =
    Sys.readdir (Filename.concat root d)
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.sort String.compare
    |> List.map (Filename.concat d)
  in
  List.concat_map in_dir covered_dirs @ covered_files

(* ---------------- self-test ---------------- *)

let count source =
  List.length
    (minmax_violations ~filename:"snippet.ml" (parse ~filename:"snippet.ml" source))

let self_test_cases =
  [
    ("max a b", "let f a b = max a b", 1);
    ("List.fold_left min", "let f l = List.fold_left min 0 l", 1);
    ("Stdlib.max", "let f a b = Stdlib.max a b", 1);
    ("nested in a local let", "let f a = let g b = min a b in g 0", 1);
    ("Int.max a b", "let f a b = Int.max a b", 0);
    ("Float.min", "let f l = List.fold_left Float.min infinity l", 0);
    ("reference binding", "let reference a = Array.fold_left max 0 a", 0);
    ( "annotated reference binding",
      "let reference_ints (a : int array) : int = Array.fold_left max 0 a",
      0 );
    ("max_grain, ~max label", "let f ~max:m max_grain = Int.max m max_grain", 0);
  ]

let self_test () =
  let check name got expected =
    if got = expected then None
    else Some (Printf.sprintf "self-test %S: %d hit(s), expected %d" name got expected)
  in
  List.filter_map (fun (name, src, expected) -> check name (count src) expected) self_test_cases

let () =
  let root = Sys.argv.(1) in
  let check rule files =
    List.concat_map
      (fun f -> rule ~filename:f (parse ~filename:f (read_file (Filename.concat root f))))
      files
  in
  let minmax_files = covered_sources root in
  let self = self_test () in
  let minmax = check minmax_violations minmax_files in
  List.iter prerr_endline (self @ minmax);
  if minmax <> [] then
    prerr_endline
      "lint: use Int.min/Int.max (or Float.*) in these layers; the polymorphic \
       ones are a C call per comparison";
  if self @ minmax <> [] then exit 1;
  Printf.printf "lint: %d self-test cases pass, %d min/max files clean\n"
    (List.length self_test_cases) (List.length minmax_files)
