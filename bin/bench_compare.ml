(* Perf-regression gate: check a fresh benchmark CSV (bench/main.exe
   --csv) against the gates a committed baseline snapshot declares.

   The baseline's "gates" array holds one entry per gated quantity:

     {"name": "...", "num": [section, bench, version, metric],
      "den": [section, bench, version, metric], "floor": 1.25}

   "den" is optional.  A gate's current value is num/den (or num alone)
   read from the CSV; it passes when that value is at least
   floor * (1 - max-regress/100).  Every gate is a ratio of two times
   measured in the same run, or a ratio the harness computes itself:
   the host's absolute wall-clock drifts by tens of percent between
   runs, while within-run ratios hold (see the snapshot's host_note).

   Exit status: 0 when every gate passes, 1 on any regression, 2 on
   usage and parse errors -- an unreadable file, a baseline without
   gates, a malformed gate, a missing CSV row or a non-positive
   denominator.  The report prints one line per gate either way, so the
   CI artifact shows the margins even when the gate passes. *)

module J = Bds_runtime.Tiny_json

let ( let* ) = Result.bind

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* CSV rows: section,bench,version,procs,metric,value, keyed by
   [section; bench; version; metric].  The last matching row wins,
   mirroring how the harness appends rows. *)
let parse_csv text =
  let rows = Hashtbl.create 64 in
  let parse_line i l =
    match String.split_on_char ',' l with
    | [ section; bench; version; _procs; metric; value ] -> (
      match float_of_string_opt value with
      | Some v -> Ok (Hashtbl.replace rows [ section; bench; version; metric ] v)
      | None -> Error (Printf.sprintf "line %d: bad value %S" (i + 2) value))
    | _ -> Error (Printf.sprintf "line %d: expected 6 fields" (i + 2))
  in
  let rec go i = function
    | [] -> Ok rows
    | l :: rest ->
      let* () = parse_line i l in
      go (i + 1) rest
  in
  match List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text) with
  | [] -> Error "empty CSV"
  | header :: rest ->
    if String.trim header <> "section,bench,version,procs,metric,value" then
      Error (Printf.sprintf "unexpected CSV header: %s" header)
    else go 0 rest

type gate = {
  name : string;
  num : string list;
  den : string list option;
  floor : float;
}

let parse_gate i g =
  let fail what = Error (Printf.sprintf "baseline: gates[%d]: %s" i what) in
  let row field =
    match J.member field g with
    | Some (J.Arr [ J.Str s; J.Str b; J.Str v; J.Str m ]) -> Ok (Some [ s; b; v; m ])
    | None -> Ok None
    | Some _ -> fail (field ^ " is not [section, bench, version, metric]")
  in
  match (J.member "name" g, row "num", row "den", J.member "floor" g) with
  | _, Error e, _, _ | _, _, Error e, _ -> Error e
  | Some (J.Str name), Ok (Some num), Ok den, Some (J.Num floor) when floor > 0.0 ->
    Ok { name; num; den; floor }
  | Some (J.Str _), Ok None, _, _ -> fail "missing num"
  | Some (J.Str _), _, _, _ -> fail "floor is missing or not a positive number"
  | _ -> fail "missing name"

let parse_gates json =
  match J.member "gates" json with
  | Some (J.Arr (_ :: _ as gates)) ->
    let rec go i = function
      | [] -> Ok []
      | g :: rest ->
        let* gate = parse_gate i g in
        let* gates = go (i + 1) rest in
        Ok (gate :: gates)
    in
    go 0 gates
  | _ -> Error "baseline: no non-empty \"gates\" array"

let current rows g =
  let get key =
    match Hashtbl.find_opt rows key with
    | Some v -> Ok v
    | None ->
      Error
        (Printf.sprintf "gate %S: csv has no row %s" g.name
           (String.concat "/" key))
  in
  let* num = get g.num in
  match g.den with
  | None -> Ok num
  | Some key ->
    let* den = get key in
    if den > 0.0 then Ok (num /. den)
    else
      Error
        (Printf.sprintf "gate %S: denominator %s is %g, not positive" g.name
           (String.concat "/" key) den)

let () =
  let baseline = ref "" and csv = ref "" and tolerance = ref 15.0 in
  let usage = "bench_compare --baseline FILE --csv FILE [--max-regress PCT]" in
  Arg.parse
    [
      ("--baseline", Arg.Set_string baseline, "FILE Baseline snapshot JSON with a \"gates\" array");
      ("--csv", Arg.Set_string csv, "FILE Fresh bench CSV (bench/main.exe --csv)");
      ("--max-regress", Arg.Set_float tolerance, "PCT Allowed regression percent (default 15)");
    ]
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    usage;
  if !baseline = "" || !csv = "" then begin
    prerr_endline usage;
    exit 2
  end;
  let fail msg =
    Printf.eprintf "bench_compare: %s\n" msg;
    exit 2
  in
  let load path parse =
    match parse (read_file path) with
    | Ok v -> v
    | Error e -> fail (Printf.sprintf "%s: %s" path e)
    | exception Sys_error e -> fail e
  in
  let json = load !baseline J.parse_result in
  let rows = load !csv parse_csv in
  let gates = match parse_gates json with Ok g -> g | Error e -> fail e in
  let results =
    List.map
      (fun g -> match current rows g with Ok v -> (g, v) | Error e -> fail e)
      gates
  in
  let snap =
    match J.member "snapshot" json with
    | Some (J.Num f) -> string_of_int (int_of_float f)
    | _ -> "?"
  in
  Printf.printf "bench_compare: baseline snapshot %s (%s), tolerance %g%%\n" snap
    !baseline !tolerance;
  let width = List.fold_left (fun w g -> Int.max w (String.length g.name)) 0 gates in
  let ok =
    List.fold_left
      (fun ok (g, v) ->
        let pass = v >= g.floor *. (1.0 -. (!tolerance /. 100.0)) in
        Printf.printf "  %-*s  floor %8.4f  current %8.4f  %+6.1f%%  %s\n" width
          g.name g.floor v
          ((v -. g.floor) /. g.floor *. 100.0)
          (if pass then "ok" else "REGRESSION");
        ok && pass)
      true results
  in
  print_endline (if ok then "result: PASS" else "result: FAIL");
  exit (if ok then 0 else 1)
