(* Single-benchmark runner, mirroring the paper artifact's CLI:

     bds_bench BENCHMARK [-v VERSION] [-n SIZE] [--procs N]
               [--repeat R] [--warmup W]

   e.g.  dune exec bin/bds_bench.exe -- linefit -v delay -n 1000000 --procs 4 *)

module Measure = Bds_harness.Measure
module Registry = Bds_harness.Registry

open Cmdliner

let bench_arg =
  let names = String.concat ", " (List.map (fun b -> b.Registry.name) Registry.all) in
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BENCHMARK" ~doc:(Printf.sprintf "One of: %s." names))

let version_arg =
  Arg.(value & opt (some string) None
       & info [ "v"; "version" ] ~doc:"Library version: array, rad or delay. Default: all available.")

let size_arg =
  Arg.(value & opt (some int) None & info [ "n"; "size" ] ~doc:"Problem size (benchmark-specific unit).")

let procs_arg =
  Arg.(value & opt int 1 & info [ "procs" ] ~doc:"Number of worker domains.")

let repeat_arg =
  Arg.(value & opt int 5 & info [ "repeat" ] ~doc:"Timed rounds, one call of each version per round (best call reported).")

let warmup_arg =
  Arg.(value & opt int 1 & info [ "warmup" ] ~doc:"Untimed rounds before timing.")

let space_arg =
  Arg.(value & flag & info [ "space" ] ~doc:"Also measure major-heap allocation (on 1 domain).")

let main bench version size procs repeat warmup space =
  match Registry.find bench with
  | None ->
    Printf.eprintf "unknown benchmark %S; try --help\n" bench;
    exit 1
  | Some b ->
    let n = Option.value ~default:b.Registry.default_size size in
    Printf.printf "%s: %s, P=%d, repeat=%d\n%!" b.Registry.name
      (b.Registry.describe n) procs repeat;
    let versions = b.Registry.prepare n in
    let versions =
      match version with
      | None -> versions
      | Some v -> (
          match List.filter (fun x -> x.Registry.vname = v) versions with
          | [] ->
            Printf.eprintf "version %S not available for %s\n" v bench;
            exit 1
          | l -> l)
    in
    let timed =
      Measure.with_domains procs (fun () ->
          Measure.rounds ~warmup ~repeat
            (List.map (fun v -> Measure.point v.Registry.vname v.Registry.run) versions))
    in
    List.iter2
      (fun v (vname, (m : Measure.timed)) ->
        Printf.printf "  %-6s time %s%!" vname (Measure.pp_time m.best_s);
        if space then
          Printf.printf "  major-heap alloc %s"
            (Measure.pp_bytes (Measure.alloc_single_domain v.Registry.run));
        print_newline ())
      versions timed;
    Bds_runtime.Runtime.shutdown ()

let cmd =
  Cmd.v
    (Cmd.info "bds_bench" ~doc:"Run one paper benchmark in one or all library versions")
    Term.(
      const main $ bench_arg $ version_arg $ size_arg $ procs_arg $ repeat_arg
      $ warmup_arg $ space_arg)

let () = exit (Cmd.eval cmd)
