(* Labeled metrics registry + OpenMetrics exposition (see metrics.mli).

   One global mutex guards the registry and every update.  That is a
   deliberate non-optimisation: these families are touched at job
   lifecycle cadence (admit / complete / scrape), orders of magnitude
   below the per-element paths [Telemetry]'s padded per-domain counters
   serve, so a mutex keeps the semantics (exact counts, consistent
   render) trivially right where the racy-monotone counter discipline
   would buy nothing. *)

type kind = Counter | Gauge | Histogram

type series = {
  s_labels : (string * string) list; (* canonically sorted by name *)
  mutable s_int : int; (* Counter *)
  mutable s_float : float; (* Gauge *)
  mutable s_counts : int array; (* Histogram buckets; [||] until first obs *)
  mutable s_sum_ns : int;
  mutable s_count : int;
}

type family = {
  f_name : string;
  f_help : string;
  f_kind : kind;
  f_series : (string, series) Hashtbl.t; (* key: canonical label string *)
  mutable f_dropped : int; (* label sets refused by the cardinality cap *)
}

let max_series = 1024

let mutex = Mutex.create ()

let families : (string, family) Hashtbl.t = Hashtbl.create 32

let with_lock f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(* ------------------------------------------------------------------ *)
(* Names and labels *)

let valid_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let has_suffix s suf =
  let ls = String.length s and lf = String.length suf in
  ls >= lf && String.sub s (ls - lf) lf = suf

(* Canonicalise a label set: validate names, sort by name, reject
   duplicates and the reserved [le]. *)
let canon_labels name labels =
  List.iter
    (fun (k, _) ->
      if not (valid_name k) then
        invalid_arg (Printf.sprintf "Metrics: %s: invalid label name %S" name k);
      if k = "le" then
        invalid_arg (Printf.sprintf "Metrics: %s: label name \"le\" is reserved" name))
    labels;
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as tl) ->
      if a = b then
        invalid_arg (Printf.sprintf "Metrics: %s: duplicate label %S" name a);
      check tl
    | _ -> ()
  in
  check sorted;
  sorted

let series_key labels =
  String.concat "\x00" (List.concat_map (fun (k, v) -> [ k; v ]) labels)

let family ?(help = "") ~kind name =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metrics: invalid family name %S" name);
  if kind = Counter && has_suffix name "_total" then
    invalid_arg
      (Printf.sprintf
         "Metrics: %s: counter names must not end in _total (added at render)"
         name);
  with_lock (fun () ->
      match Hashtbl.find_opt families name with
      | Some f ->
        if f.f_kind <> kind then
          invalid_arg
            (Printf.sprintf "Metrics: %s already registered with another kind" name);
        f
      | None ->
        let f =
          { f_name = name; f_help = help; f_kind = kind;
            f_series = Hashtbl.create 8; f_dropped = 0 }
        in
        Hashtbl.add families name f;
        f)

(* Fetch-or-create a series under the lock; [None] once the family is at
   its cardinality cap (the caller's update is dropped and counted). *)
let series f labels =
  let labels = canon_labels f.f_name labels in
  let key = series_key labels in
  match Hashtbl.find_opt f.f_series key with
  | Some s -> Some s
  | None ->
    if Hashtbl.length f.f_series >= max_series then begin
      f.f_dropped <- f.f_dropped + 1;
      None
    end
    else begin
      let s =
        { s_labels = labels; s_int = 0; s_float = 0.0; s_counts = [||];
          s_sum_ns = 0; s_count = 0 }
      in
      Hashtbl.add f.f_series key s;
      Some s
    end

let incr ?(by = 1) f ~labels =
  if f.f_kind <> Counter then
    invalid_arg (Printf.sprintf "Metrics: %s is not a counter" f.f_name);
  if by < 0 then
    invalid_arg (Printf.sprintf "Metrics: %s: counters only go up" f.f_name);
  with_lock (fun () ->
      match series f labels with
      | None -> ()
      | Some s -> s.s_int <- s.s_int + by)

let set f ~labels v =
  if f.f_kind <> Gauge then
    invalid_arg (Printf.sprintf "Metrics: %s is not a gauge" f.f_name);
  with_lock (fun () ->
      match series f labels with None -> () | Some s -> s.s_float <- v)

let observe_ns f ~labels ns =
  if f.f_kind <> Histogram then
    invalid_arg (Printf.sprintf "Metrics: %s is not a histogram" f.f_name);
  let ns = Int.max 0 ns in
  with_lock (fun () ->
      match series f labels with
      | None -> ()
      | Some s ->
        if s.s_counts = [||] then s.s_counts <- Array.make Histogram.buckets 0;
        let b = Histogram.bucket_of_ns ns in
        s.s_counts.(b) <- s.s_counts.(b) + 1;
        s.s_sum_ns <- s.s_sum_ns + ns;
        s.s_count <- s.s_count + 1)

let reset () =
  with_lock (fun () ->
      Hashtbl.iter
        (fun _ f ->
          Hashtbl.reset f.f_series;
          f.f_dropped <- 0)
        families)

(* ------------------------------------------------------------------ *)
(* Exposition *)

let escape_value v =
  let b = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let render_labels b labels =
  match labels with
  | [] -> ()
  | _ ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b k;
        Buffer.add_string b "=\"";
        Buffer.add_string b (escape_value v);
        Buffer.add_char b '"')
      labels;
    Buffer.add_char b '}'

let seconds_of_ns ns = float_of_int ns /. 1e9

(* le bounds are [Histogram]'s inclusive bucket upper bounds, in
   seconds; %.9g keeps adjacent (2x apart) bounds distinct. *)
let le_string ns = Printf.sprintf "%.9g" (seconds_of_ns ns)

let render_sample b name labels value =
  Buffer.add_string b name;
  render_labels b labels;
  Buffer.add_char b ' ';
  Buffer.add_string b value;
  Buffer.add_char b '\n'

let render_family b f =
  if f.f_help <> "" then (
    Buffer.add_string b "# HELP ";
    Buffer.add_string b f.f_name;
    Buffer.add_char b ' ';
    Buffer.add_string b f.f_help;
    Buffer.add_char b '\n');
  Buffer.add_string b "# TYPE ";
  Buffer.add_string b f.f_name;
  Buffer.add_string b
    (match f.f_kind with
    | Counter -> " counter\n"
    | Gauge -> " gauge\n"
    | Histogram -> " histogram\n");
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) f.f_series [] in
  List.iter
    (fun key ->
      let s = Hashtbl.find f.f_series key in
      match f.f_kind with
      | Counter ->
        render_sample b (f.f_name ^ "_total") s.s_labels (string_of_int s.s_int)
      | Gauge ->
        render_sample b f.f_name s.s_labels (Printf.sprintf "%g" s.s_float)
      | Histogram ->
        (* Cumulative buckets up to the highest non-empty one, then
           +Inf.  The le label sorts into position with the rest so the
           canonical sorted-label invariant holds for buckets too. *)
        let hi = ref (-1) in
        Array.iteri (fun i c -> if c > 0 then hi := i) s.s_counts;
        let cum = ref 0 in
        let with_le le =
          List.sort (fun (a, _) (b, _) -> compare a b) (("le", le) :: s.s_labels)
        in
        for k = 0 to Int.min !hi (Histogram.buckets - 2) do
          cum := !cum + s.s_counts.(k);
          render_sample b (f.f_name ^ "_bucket")
            (with_le (le_string (Histogram.bucket_upper_ns k)))
            (string_of_int !cum)
        done;
        render_sample b (f.f_name ^ "_bucket") (with_le "+Inf")
          (string_of_int s.s_count);
        render_sample b (f.f_name ^ "_count") s.s_labels
          (string_of_int s.s_count);
        render_sample b (f.f_name ^ "_sum") s.s_labels
          (Printf.sprintf "%.9g" (seconds_of_ns s.s_sum_ns)))
    (List.sort compare keys)

let render () =
  let b = Buffer.create 4096 in
  with_lock (fun () ->
      let names = Hashtbl.fold (fun k _ acc -> k :: acc) families [] in
      List.iter
        (fun name -> render_family b (Hashtbl.find families name))
        (List.sort compare names);
      (* Cardinality-cap drops, always present so scrapers can alert on
         it going non-zero. *)
      let dropped =
        Hashtbl.fold (fun _ f acc -> acc + f.f_dropped) families 0
      in
      Buffer.add_string b "# TYPE bds_metrics_dropped_series counter\n";
      render_sample b "bds_metrics_dropped_series_total" []
        (string_of_int dropped));
  (* Telemetry bridge: the always-on padded counters, re-exposed as
     unlabeled series so one scrape carries both layers. *)
  List.iter
    (fun (k, v) ->
      Buffer.add_string b "# TYPE bds_runtime_";
      Buffer.add_string b k;
      Buffer.add_string b " counter\n";
      render_sample b ("bds_runtime_" ^ k ^ "_total") [] (string_of_int v))
    (Telemetry.to_assoc (Telemetry.snapshot ()));
  Buffer.add_string b "# TYPE bds_uptime_seconds gauge\n";
  render_sample b "bds_uptime_seconds" []
    (Printf.sprintf "%.9g" (float_of_int (Telemetry.uptime_ns ()) /. 1e9));
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Validation *)

exception Bad of string

let fail line fmt =
  Printf.ksprintf (fun s -> raise (Bad (Printf.sprintf "line %d: %s" line s))) fmt

let bump (r : int ref) = r := !r + 1

(* Parse [name{l="v",...} value] into (name, labels, value). *)
let parse_sample lineno line =
  let n = String.length line in
  let i = ref 0 in
  while
    !i < n
    && (match line.[!i] with
       | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
       | _ -> false)
  do
    bump i
  done;
  let name = String.sub line 0 !i in
  if not (valid_name name) then fail lineno "invalid metric name in %S" line;
  let labels = ref [] in
  if !i < n && line.[!i] = '{' then begin
    bump i;
    let expect c =
      if !i >= n || line.[!i] <> c then
        fail lineno "expected %C at column %d" c (!i + 1);
      bump i
    in
    let parse_one () =
      let j = ref !i in
      while
        !j < n
        && (match line.[!j] with
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
           | _ -> false)
      do
        bump j
      done;
      let lname = String.sub line !i (!j - !i) in
      if not (valid_name lname) then fail lineno "invalid label name";
      i := !j;
      expect '=';
      expect '"';
      let b = Buffer.create 16 in
      let rec scan () =
        if !i >= n then fail lineno "unterminated label value"
        else
          match line.[!i] with
          | '"' -> bump i
          | '\\' ->
            if !i + 1 >= n then fail lineno "dangling backslash";
            (match line.[!i + 1] with
            | '\\' -> Buffer.add_char b '\\'
            | '"' -> Buffer.add_char b '"'
            | 'n' -> Buffer.add_char b '\n'
            | c -> fail lineno "invalid escape \\%c in label value" c);
            i := !i + 2;
            scan ()
          | c ->
            Buffer.add_char b c;
            bump i;
            scan ()
      in
      scan ();
      labels := (lname, Buffer.contents b) :: !labels
    in
    if !i < n && line.[!i] = '}' then bump i
    else begin
      let rec loop () =
        parse_one ();
        if !i < n && line.[!i] = ',' then begin
          bump i;
          loop ()
        end
        else expect '}'
      in
      loop ()
    end
  end;
  if !i >= n || line.[!i] <> ' ' then fail lineno "expected space before value";
  let value = String.sub line (!i + 1) (n - !i - 1) in
  if value = "" then fail lineno "missing value";
  (name, List.rev !labels, value)

let float_of_value lineno v =
  match float_of_string_opt v with
  | Some f -> f
  | None -> fail lineno "value %S is not a number" v

type hist_acc = {
  mutable h_buckets : (float * float) list; (* (le, cumulative) reversed *)
  mutable h_saw_inf : bool;
  mutable h_count : float option;
  mutable h_sum : bool;
  h_line : int; (* first line of the group, for error messages *)
}

let validate_string text =
  let lines = String.split_on_char '\n' text in
  (* A trailing newline yields one final empty element; drop it. *)
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  let declared : (string, kind) Hashtbl.t = Hashtbl.create 32 in
  let hists : (string, hist_acc) Hashtbl.t = Hashtbl.create 16 in
  let samples = ref 0 in
  let saw_eof = ref false in
  let check_sorted lineno labels =
    let rec go = function
      | (a, _) :: ((b, _) :: _ as tl) ->
        if a >= b then fail lineno "labels not sorted (or duplicated): %s, %s" a b;
        go tl
      | _ -> ()
    in
    go labels
  in
  let hist_key base labels =
    base ^ "\x00" ^ series_key (List.filter (fun (k, _) -> k <> "le") labels)
  in
  try
    List.iteri
      (fun idx line ->
        let lineno = idx + 1 in
        if !saw_eof then fail lineno "content after # EOF"
        else if line = "# EOF" then saw_eof := true
        else if line = "" then fail lineno "blank line"
        else if String.length line > 0 && line.[0] = '#' then begin
          match String.split_on_char ' ' line with
          | "#" :: "HELP" :: name :: _ :: _ ->
            if not (valid_name name) then fail lineno "HELP for invalid name"
          | "#" :: "TYPE" :: name :: [ k ] ->
            if not (valid_name name) then fail lineno "TYPE for invalid name";
            if Hashtbl.mem declared name then fail lineno "duplicate TYPE for %s" name;
            let kind =
              match k with
              | "counter" -> Counter
              | "gauge" -> Gauge
              | "histogram" -> Histogram
              | _ -> fail lineno "unknown metric type %S" k
            in
            Hashtbl.add declared name kind
          | _ -> fail lineno "malformed comment line %S" line
        end
        else begin
          let name, labels, value = parse_sample lineno line in
          check_sorted lineno labels;
          let v = float_of_value lineno value in
          bump samples;
          let chop suf =
            String.sub name 0 (String.length name - String.length suf)
          in
          let declared_as base = Hashtbl.find_opt declared base in
          if declared_as name = Some Gauge then ()
          else if has_suffix name "_total" && declared_as (chop "_total") = Some Counter
          then begin
            if List.mem_assoc "le" labels then fail lineno "counter with le label"
          end
          else if has_suffix name "_bucket" && declared_as (chop "_bucket") = Some Histogram
          then begin
            let base = chop "_bucket" in
            let le =
              match List.assoc_opt "le" labels with
              | None -> fail lineno "_bucket without le label"
              | Some "+Inf" -> infinity
              | Some s -> (
                match float_of_string_opt s with
                | Some f -> f
                | None -> fail lineno "le value %S is not a number" s)
            in
            let key = hist_key base labels in
            let acc =
              match Hashtbl.find_opt hists key with
              | Some a -> a
              | None ->
                let a =
                  { h_buckets = []; h_saw_inf = false; h_count = None;
                    h_sum = false; h_line = lineno }
                in
                Hashtbl.add hists key a;
                a
            in
            if acc.h_saw_inf then fail lineno "bucket after +Inf";
            (match acc.h_buckets with
            | (prev_le, prev_c) :: _ ->
              if not (le > prev_le) then fail lineno "le bounds not increasing";
              if v < prev_c then fail lineno "histogram buckets not cumulative"
            | [] -> ());
            acc.h_buckets <- (le, v) :: acc.h_buckets;
            if le = infinity then acc.h_saw_inf <- true
          end
          else if has_suffix name "_count" && declared_as (chop "_count") = Some Histogram
          then begin
            let key = hist_key (chop "_count") labels in
            match Hashtbl.find_opt hists key with
            | None -> fail lineno "_count before its buckets"
            | Some acc -> acc.h_count <- Some v
          end
          else if has_suffix name "_sum" && declared_as (chop "_sum") = Some Histogram
          then begin
            let key = hist_key (chop "_sum") labels in
            match Hashtbl.find_opt hists key with
            | None -> fail lineno "_sum before its buckets"
            | Some acc -> acc.h_sum <- true
          end
          else fail lineno "sample %s has no matching TYPE declaration" name
        end)
      lines;
    if not !saw_eof then raise (Bad "missing terminating # EOF");
    Hashtbl.iter
      (fun _ acc ->
        if not acc.h_saw_inf then
          fail acc.h_line "histogram series missing +Inf bucket";
        (match (acc.h_count, acc.h_buckets) with
        | Some c, (_, inf_c) :: _ ->
          if c <> inf_c then fail acc.h_line "_count disagrees with +Inf bucket"
        | None, _ -> fail acc.h_line "histogram series missing _count"
        | _, [] -> assert false);
        if not acc.h_sum then fail acc.h_line "histogram series missing _sum")
      hists;
    Ok !samples
  with Bad e -> Error e

let validate_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> validate_string s
