(* Every workload, untraced and traced, at about 1% of its rounds and
   jobs: the run exits 0, prints exactly the metrics BENCHMARK.json
   names, and writes a trace that bds_probe accepts whose spans all have
   a non-negative self time.  No timing is asserted.

     test_smoke.exe MAIN_EXE BDS_PROBE_EXE BENCHMARK_JSON *)

module Json = Bds_runtime.Tiny_json

let main_exe = Sys.argv.(1)
let probe_exe = Sys.argv.(2)
let benchmark = Json.parse (In_channel.with_open_bin Sys.argv.(3) In_channel.input_all)
let workloads = [ "bid-large"; "rad-large"; "small-inputs"; "service-mix" ]

let names key =
  match Json.member key benchmark with
  | Some (Json.Arr ms) ->
    List.map (fun m -> Option.get (Option.bind (Json.member "name" m) Json.to_string)) ms
    |> List.sort compare
  | _ -> failwith ("BENCHMARK.json: no " ^ key)

(* Run [exe args], returning its exit code and standard output. *)
let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED c -> (c, out)
  | _ -> (-1, out)

let last_line out =
  List.hd (List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out)))

let printed_metrics out =
  match Json.member "metrics" (Json.parse (last_line out)) with
  | Some (Json.Obj ms) -> List.sort compare (List.map fst ms)
  | _ -> failwith "no metrics in the summary line"

let check_run ~workload ~traced =
  let dir = "traces" in
  let args =
    [ "--workload"; workload; "--seed"; "1"; "--smoke" ] @ if traced then [ "--traced"; dir ] else []
  in
  let code, out = run main_exe args in
  Alcotest.(check int) "exit code" 0 code;
  let summary = Json.parse (last_line out) in
  Alcotest.(check bool) "correct" true (Json.member "correct" summary = Some (Json.Bool true));
  Alcotest.(check (list string)) "metric names"
    (names (if traced then "per_layer" else "end_to_end"))
    (printed_metrics out);
  if traced then begin
    let trace = Filename.concat dir (workload ^ ".json") in
    let code, out = run probe_exe [ "trace-check"; "--strict"; trace ] in
    Alcotest.(check int) ("trace-check: " ^ out) 0 code;
    match Json.member "traceEvents" (Json.parse (In_channel.with_open_bin trace In_channel.input_all)) with
    | Some (Json.Arr events) ->
      let selfs =
        List.filter_map (fun e -> Option.bind (Json.path [ "args"; "self_us" ] e) Json.to_float) events
      in
      Alcotest.(check bool) "spans recorded" true (selfs <> []);
      List.iter (fun s -> Alcotest.(check bool) "self time >= 0" true (s >= 0.)) selfs
    | _ -> Alcotest.fail "trace has no events"
  end

let () =
  (* The benchmark refuses to run under the library's tuning knobs; a
     sweep such as `make stress` exports some of them. *)
  List.iter
    (fun v -> Unix.putenv v "")
    [
      "BDS_NUM_DOMAINS"; "BDS_GRAIN"; "BDS_BLOCK_SIZE"; "BDS_BLOCKS_PER_WORKER"; "BDS_ADAPT";
      "BDS_ADAPT_TABLE"; "BDS_CHAOS"; "BDS_TRACE"; "BDS_PROFILE";
    ];
  Alcotest.run ~argv:[| Sys.argv.(0) |] "benchmark smoke"
    [
      ( "smoke",
        List.concat_map
          (fun w ->
            [
              Alcotest.test_case (w ^ " untraced") `Slow (fun () -> check_run ~workload:w ~traced:false);
              Alcotest.test_case (w ^ " traced") `Slow (fun () -> check_run ~workload:w ~traced:true);
            ])
          workloads );
    ]
