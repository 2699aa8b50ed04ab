(* Chaos injection (see chaos.mli for the BDS_CHAOS format).

   The RNG is splitmix64, one independent stream per domain: stream i is
   seeded from [seed] and the domain's id, so a fixed seed gives each
   domain a reproducible fault plan.  A generation counter lets
   [set_config] invalidate the lazily-seeded per-domain states. *)

type kind = Raise | Delay | Starve | Jobs

type config = { seed : int; p : float; kinds : kind list }

exception Injected_fault of int

let log_src = Logs.Src.create "bds.chaos" ~doc:"Chaos injection"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Parsing *)

let kind_of_string = function
  | "raise" -> Ok Raise
  | "delay" -> Ok Delay
  | "starve" -> Ok Starve
  | "jobs" -> Ok Jobs
  | s -> Error (Printf.sprintf "unknown fault kind %S" s)

let string_of_kind = function
  | Raise -> "raise"
  | Delay -> "delay"
  | Starve -> "starve"
  | Jobs -> "jobs"

let default_kinds = [ Delay; Starve ]

let parse s =
  let fields =
    String.split_on_char ',' (String.trim s)
    |> List.filter (fun f -> String.trim f <> "")
  in
  let rec go cfg = function
    | [] -> Ok (Some cfg)
    | field :: rest -> (
      match String.index_opt field '=' with
      | None -> Error (Printf.sprintf "malformed field %S (expected key=value)" field)
      | Some i ->
        let key = String.trim (String.sub field 0 i) in
        let value =
          String.trim (String.sub field (i + 1) (String.length field - i - 1))
        in
        (match key with
        | "seed" -> (
          match int_of_string_opt value with
          | Some seed -> go { cfg with seed } rest
          | None -> Error (Printf.sprintf "seed: not an integer: %S" value))
        | "p" -> (
          match float_of_string_opt value with
          | Some p when p >= 0.0 && p <= 1.0 -> go { cfg with p } rest
          | Some _ -> Error (Printf.sprintf "p: out of range [0,1]: %S" value)
          | None -> Error (Printf.sprintf "p: not a float: %S" value))
        | "kinds" ->
          let parts =
            String.split_on_char '+' value |> List.map String.trim
            |> List.filter (fun k -> k <> "")
          in
          if parts = [] then Error "kinds: empty"
          else
            let rec collect acc = function
              | [] -> Ok (List.rev acc)
              | k :: tl -> (
                match kind_of_string k with
                | Ok k -> collect (k :: acc) tl
                | Error _ as e -> e)
            in
            (match collect [] parts with
            | Ok kinds -> go { cfg with kinds } rest
            | Error e -> Error e)
        | _ -> Error (Printf.sprintf "unknown key %S" key)))
  in
  (* The empty (or all-blank) string is the explicit opt-out — so a
     sub-command inside a chaos sweep can pin [BDS_CHAOS=''] to run
     without faults — NOT a request for the default configuration. *)
  if fields = [] then Ok None
  else go { seed = 1; p = 0.01; kinds = default_kinds } fields

(* ------------------------------------------------------------------ *)
(* State *)

(* [BDS_CHAOS] is read and parsed once: the startup config, or why it
   was rejected. *)
let env_config, env_error =
  match Option.map parse (Env.get "BDS_CHAOS") with
  | None -> (None, None)
  | Some (Ok cfg) -> (cfg, None)
  | Some (Error e) -> (None, Some e)

(* (config, generation): bumping the generation forces every domain to
   re-seed its local stream on next use. *)
let state : (config option * int) Atomic.t = Atomic.make (env_config, 0)

let parse_error : string option ref = ref env_error

let config () = fst (Atomic.get state)

let set_config cfg =
  parse_error := None;
  let rec bump () =
    let (_, gen) as old = Atomic.get state in
    if not (Atomic.compare_and_set state old (cfg, gen + 1)) then bump ()
  in
  bump ()

let describe () =
  match (config (), !parse_error) with
  | Some cfg, _ ->
    Printf.sprintf "chaos: seed=%d p=%.3f kinds=%s" cfg.seed cfg.p
      (String.concat "+" (List.map string_of_kind cfg.kinds))
  | None, Some e -> Printf.sprintf "chaos: off (BDS_CHAOS parse error: %s)" e
  | None, None -> "chaos: off"

let faults = Atomic.make 0


(* ------------------------------------------------------------------ *)
(* Per-domain splitmix64 streams *)

(* The splitmix64 state lives in 8 bytes, read and written with
   [Bytes.get_int64_le]/[set_int64_le], not in an [int64] field: storing
   an [int64] into a mutable field boxes it, and [starve_steal] draws on
   every steal attempt of an idle worker's spin.  The draw functions are
   inlined so their [int64] and [float] results stay unboxed too. *)
type rng = { mutable gen : int; s : Bytes.t }

let rng_key : rng Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { gen = -1; s = Bytes.make 8 '\000' })

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] next_int64 r =
  let s = Int64.add (Bytes.get_int64_le r.s 0) golden in
  Bytes.set_int64_le r.s 0 s;
  mix s

(* Non-negative draw for [Int64.rem]-based bounded picks.  Masking the
   sign bit, not [Int64.abs]: [abs Int64.min_int] is still negative, and
   a negative remainder would turn into an out-of-range [List.nth]. *)
let[@inline] next_nonneg r = Int64.logand (next_int64 r) 0x7FFFFFFFFFFFFFFFL

(* Uniform in [0, 1): take the top 53 bits. *)
let[@inline] next_float r =
  let bits = Int64.shift_right_logical (next_int64 r) 11 in
  Int64.to_float bits /. 9007199254740992.0

let local_rng seed gen =
  let r = Domain.DLS.get rng_key in
  if r.gen <> gen then begin
    r.gen <- gen;
    let id = (Domain.self () :> int) in
    Bytes.set_int64_le r.s 0
      (mix (Int64.add (Int64.of_int seed) (Int64.mul (Int64.of_int (id + 1)) golden)))
  end;
  r

(* ------------------------------------------------------------------ *)
(* Fault points *)

(* Short busy-wait: long enough to reorder races, short enough that a
   p=0.05 sweep over thousands of tasks stays fast. *)
let delay r =
  let rounds = 1 + Int64.to_int (Int64.rem (next_nonneg r) 400L) in
  for _ = 1 to rounds do
    Domain.cpu_relax ()
  done

let point_task () =
  match Atomic.get state with
  | None, _ -> ()
  | Some cfg, gen ->
    let r = local_rng cfg.seed gen in
    if next_float r < cfg.p then begin
      (* Steal starvation and job faults have their own fault points
         ([starve_steal], [point_job]); only task-level kinds fire here. *)
      let task_kinds =
        List.filter (fun k -> k <> Starve && k <> Jobs) cfg.kinds
      in
      match task_kinds with
      | [] -> ()
      | kinds ->
        Telemetry.incr_chaos_injections ();
        let n = Atomic.fetch_and_add faults 1 in
        let k =
          List.nth kinds
            (Int64.to_int
               (Int64.rem (next_nonneg r) (Int64.of_int (List.length kinds))))
        in
        (match k with
        | Delay -> delay r
        | Raise ->
          Log.debug (fun m -> m "injecting task fault #%d (raise)" n);
          raise (Injected_fault n)
        | Starve | Jobs -> ())
    end

(* Job-level fault point (lib/service): called by the service scheduler
   as it is about to start a job attempt.  With the [jobs] kind active,
   a p-probability draw injects either a spurious attempt cancellation
   (exercising the retry-with-backoff path — chaos cancels are
   retryable) or a pre-start delay of 1..20ms (pushing jobs toward
   their deadline, exercising the deadline path).  The draws come from
   the same per-domain splitmix streams as the task faults, so a fixed
   seed gives a reproducible fault plan per domain (the service draws
   on whichever domain starts the attempt, so the plan is deterministic
   up to that interleaving). *)
let point_job () =
  match Atomic.get state with
  | None, _ -> `None
  | Some cfg, gen ->
    if not (List.mem Jobs cfg.kinds) then `None
    else begin
      let r = local_rng cfg.seed gen in
      if next_float r < cfg.p then begin
        Telemetry.incr_chaos_injections ();
        let n = Atomic.fetch_and_add faults 1 in
        if Int64.rem (next_nonneg r) 2L = 0L then begin
          Log.debug (fun m -> m "injecting job fault #%d (cancel)" n);
          `Cancel n
        end
        else begin
          let ms = 1 + Int64.to_int (Int64.rem (next_nonneg r) 20L) in
          Log.debug (fun m -> m "injecting job fault #%d (delay %dms)" n ms);
          `Delay (float_of_int ms /. 1000.)
        end
      end
      else `None
    end

let starve_steal () =
  match Atomic.get state with
  | None, _ -> false
  | Some cfg, gen ->
    List.mem Starve cfg.kinds
    &&
    let r = local_rng cfg.seed gen in
    if next_float r < cfg.p then begin
      Telemetry.incr_chaos_injections ();
      ignore (Atomic.fetch_and_add faults 1);
      true
    end
    else false
