(* Lint, two rules.

   1. No polymorphic [min]/[max] in the per-element, per-chunk and
   per-call layers.  Without flambda, ocamlopt compiles a call to
   [Stdlib.min]/[Stdlib.max] to a [caml_lessequal]/[caml_greaterequal]
   C call even when both arguments are ints, so one left in a fused
   loop costs a C call per element (mcss's monoid paid six).  The lint
   parses each covered file with compiler-libs and rejects any bare
   [min]/[max] (or [Stdlib.min]/[Stdlib.max]) identifier; [Int.min],
   [Float.max] and friends are monomorphic and pass.  Value bindings named
   [reference*] are skipped: they are the benchmark's sequential
   yardsticks and stay as written.

   2. No [Stream.start] outside its allowed pull sites.  A stream is
   executed by its push fold; the resumable trickle is kept only for the
   pulls a fold cannot express.  Those inside lib/stream/stream.ml go
   through the record field, not [Stream.start], so the rule allows
   [Stream.start] only inside the value bindings listed in
   [start_allowed]: [Seq.array_of_bid]'s block-0 allocation witness and
   the stream-overhead bench's chain3 pull baseline.  It scans every
   [.ml] under lib/, bin/, bench/ and examples/ and matches the
   qualified forms ([Stream.start], [Bds_stream.Stream.start]) and a
   bare [start] under a local [Stream] open.  Tests are not scanned:
   they check the trickle's contract directly.

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

(* ---------------- rule 2: Stream.start ---------------- *)

let start_dirs = [ "lib"; "bin"; "bench"; "examples" ]

(* (file, enclosing value binding) pairs where [Stream.start] may appear. *)
let start_allowed = [ ("lib/core/seq.ml", "array_of_bid"); ("bench/main.ml", "pull_reduce") ]

let is_stream_module = function
  | Longident.Lident "Stream" | Ldot (_, "Stream") -> true
  | _ -> false

let start_violations ~filename ast =
  let hits = ref [] in
  (* Names of the enclosing value bindings, innermost first, and whether
     a local [Stream] open is in scope. *)
  let bindings = ref [] and opened = ref false in
  let allowed () =
    List.exists
      (fun (f, b) -> String.equal f filename && List.mem b !bindings)
      start_allowed
  in
  let super = Ast_iterator.default_iterator in
  let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }, body)
      when is_stream_module txt ->
      let outer = !opened in
      opened := true;
      it.expr it body;
      opened := outer
    | Pexp_ident { txt; loc } ->
      let hit =
        match txt with
        | Ldot (m, "start") -> is_stream_module m
        | Lident "start" -> !opened
        | _ -> false
      in
      if hit && not (allowed ()) then
        hits :=
          Printf.sprintf "%s:%d: Stream.start outside an allowed pull site" filename
            loc.loc_start.pos_lnum
          :: !hits
    | _ -> super.expr it e
  in
  let value_binding it (vb : Parsetree.value_binding) =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } ->
      bindings := txt :: !bindings;
      super.value_binding it vb;
      bindings := List.tl !bindings
    | _ -> super.value_binding it vb
  in
  let it = { super with expr; value_binding } in
  it.structure it ast;
  List.rev !hits

let rec ml_files root d =
  Sys.readdir (Filename.concat root d)
  |> Array.to_list
  |> List.sort String.compare
  |> List.concat_map (fun f ->
         let path = Filename.concat d f in
         if Sys.is_directory (Filename.concat root path) then ml_files root path
         else if Filename.check_suffix f ".ml" then [ path ]
         else [])

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

(* (name, file the snippet pretends to be, source, expected hits). *)
let start_cases =
  [
    ("Stream.start", "lib/x.ml", "let f s = Stream.start s", 1);
    ("fully qualified", "bin/x.ml", "let f s = Bds_stream.Stream.start s", 1);
    ("local open", "lib/x.ml", "let f s = Stream.(start s)", 1);
    ("let open", "lib/x.ml", "let f s = let open Stream in start s ()", 1);
    ("outside the allowed binding", "lib/core/seq.ml", "let exists s = Stream.start s", 1);
    ("allowed binding, wrong file", "lib/x.ml", "let array_of_bid s = Stream.start s", 1);
    ("array_of_bid", "lib/core/seq.ml", "let array_of_bid b s = let n = Stream.start s in n", 0);
    ( "nested pull_reduce",
      "bench/main.ml",
      "let bench () = let pull_reduce s = Stream.start s in pull_reduce",
      0 );
    ("record field", "lib/x.ml", "let f s = s.start ()", 0);
    ("other module", "lib/x.ml", "let f s = Sob.start s", 0);
    ("Stream.fold", "lib/x.ml", "let f s = Stream.fold s ~stop:1 ( + ) 0", 0);
    ("bare start, no open", "lib/x.ml", "let f start = start ()", 0);
  ]

let self_test () =
  let check name got expected =
    if got = expected then None
    else Some (Printf.sprintf "self-test %S: %d hit(s), expected %d" name got expected)
  in
  List.filter_map (fun (name, src, expected) -> check name (count src) expected) self_test_cases
  @ List.filter_map
      (fun (name, filename, src, expected) ->
        check name
          (List.length (start_violations ~filename (parse ~filename src)))
          expected)
      start_cases

let () =
  let root = Sys.argv.(1) in
  let check rule files =
    List.concat_map
      (fun f -> rule ~filename:f (parse ~filename:f (read_file (Filename.concat root f))))
      files
  in
  let minmax_files = covered_sources root in
  let start_files = List.concat_map (ml_files root) start_dirs in
  let self = self_test () in
  let minmax = check minmax_violations minmax_files in
  let start = check start_violations start_files in
  List.iter prerr_endline (self @ minmax @ start);
  if minmax <> [] then
    prerr_endline
      "lint: use Int.min/Int.max (or Float.*) in these layers; the polymorphic \
       ones are a C call per comparison";
  if start <> [] then
    prerr_endline
      "lint: drive the stream with Stream.fold (raise a local exception to stop \
       early); see docs/STREAMS.md \"Who drives which path\"";
  if self @ minmax @ start <> [] then exit 1;
  Printf.printf
    "lint: %d self-test cases pass, %d min/max files and %d Stream.start files clean\n"
    (List.length self_test_cases + List.length start_cases)
    (List.length minmax_files) (List.length start_files)
