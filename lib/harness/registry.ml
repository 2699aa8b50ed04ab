(* The benchmark registry: every evaluation program of §6, each in its
   library versions (Figure 12), with input preparation separated from the
   measured kernel.  Sizes are scaled-down defaults for a laptop-class
   machine (the paper used 100M-500M on a 1TB server); all are multiplied
   by the harness's --scale factor. *)

module K = Bds_kernels

type version = { vname : string; run : unit -> unit }

type bench = {
  name : string;
  default_size : int;
  describe : int -> string;
  prepare : int -> version list;  (** array, [rad], delay *)
}

(* How a version name reads in table rows: the paper's Figure 12 labels
   (A = eager array library, R = non-block delayed, Ours = block-delayed)
   for the three standard versions, the raw name for bench-specific ones
   (stdlib/psort, atomics/sort, ...). *)
let describe_version = function
  | "array" -> "A"
  | "rad" -> "R"
  | "delay" -> "Ours"
  | v -> v

let sink_int = ref 0
let sink_float = ref 0.0

let use_int i = sink_int := !sink_int lxor i
let use_float f = sink_float := !sink_float +. (f *. 1e-30)

let bestcut =
  {
    name = "bestcut";
    default_size = 2_000_000;
    describe = (fun n -> Printf.sprintf "%d bounding-box events" n);
    prepare =
      (fun n ->
        let a = K.Bestcut.generate n in
        [
          { vname = "array"; run = (fun () -> use_float (K.Bestcut.Array_version.best_cut a)) };
          { vname = "rad"; run = (fun () -> use_float (K.Bestcut.Rad_version.best_cut a)) };
          { vname = "delay"; run = (fun () -> use_float (K.Bestcut.Delay_version.best_cut a)) };
        ]);
  }

let bfs =
  {
    name = "bfs";
    default_size = 1_000_000;
    describe =
      (fun n ->
        let scale = max 8 (int_of_float (Float.log2 (float_of_int (max 1024 (n / 8))))) in
        Printf.sprintf "R-MAT graph, 2^%d vertices, %d edges" scale n);
    prepare =
      (fun n ->
        let scale = max 8 (int_of_float (Float.log2 (float_of_int (max 1024 (n / 8))))) in
        let g = Bds_graph.Rmat.generate ~scale ~num_edges:n () in
        [
          { vname = "array"; run = (fun () -> use_int (Array.length (Bds_graph.Bfs.Array_version.bfs g 0))) };
          { vname = "rad"; run = (fun () -> use_int (Array.length (Bds_graph.Bfs.Rad_version.bfs g 0))) };
          { vname = "delay"; run = (fun () -> use_int (Array.length (Bds_graph.Bfs.Delay_version.bfs g 0))) };
        ]);
  }

let bignum_add =
  {
    name = "bignum-add";
    default_size = 2_000_000;
    describe = (fun n -> Printf.sprintf "two %d-byte bignums" n);
    prepare =
      (fun n ->
        let a, b = K.Bignum.generate_input n in
        let go add () =
          let digits, carry = add a b in
          use_int (Bytes.length digits + carry)
        in
        [
          { vname = "array"; run = go K.Bignum.Array_version.add };
          { vname = "rad"; run = go K.Bignum.Rad_version.add };
          { vname = "delay"; run = go K.Bignum.Delay_version.add };
        ]);
  }

let primes =
  {
    name = "primes";
    default_size = 2_000_000;
    describe = (fun n -> Printf.sprintf "primes below %d" n);
    prepare =
      (fun n ->
        [
          { vname = "array"; run = (fun () -> use_int (Array.length (K.Primes.Array_version.primes n))) };
          { vname = "rad"; run = (fun () -> use_int (Array.length (K.Primes.Rad_version.primes n))) };
          { vname = "delay"; run = (fun () -> use_int (Array.length (K.Primes.Delay_version.primes n))) };
        ]);
  }

let tokens =
  {
    name = "tokens";
    default_size = 5_000_000;
    describe = (fun n -> Printf.sprintf "%d chars, avg word length ~7" n);
    prepare =
      (fun n ->
        let text = K.Tokens.generate n in
        let go f () =
          let c, t = f text in
          use_int (c + t)
        in
        [
          { vname = "array"; run = go K.Tokens.Array_version.tokens };
          { vname = "rad"; run = go K.Tokens.Rad_version.tokens };
          { vname = "delay"; run = go K.Tokens.Delay_version.tokens };
        ]);
  }

let grep =
  {
    name = "grep";
    default_size = 5_000_000;
    describe = (fun n -> Printf.sprintf "%d chars, ~3%% of lines match" n);
    prepare =
      (fun n ->
        let text = K.Grep.generate n in
        let go f () =
          let c, t = f text "needle" in
          use_int (c + t)
        in
        [
          { vname = "array"; run = go K.Grep.Array_version.grep };
          { vname = "delay"; run = go K.Grep.Delay_version.grep };
        ]);
  }

let integrate =
  {
    name = "integrate";
    default_size = 5_000_000;
    describe = (fun n -> Printf.sprintf "sqrt(1/x) on [1,1000], %d points" n);
    prepare =
      (fun n ->
        [
          { vname = "array"; run = (fun () -> use_float (K.Integrate.Array_version.integrate n)) };
          { vname = "delay"; run = (fun () -> use_float (K.Integrate.Delay_version.integrate n)) };
        ]);
  }

let linearrec =
  {
    name = "linearrec";
    default_size = 2_000_000;
    describe = (fun n -> Printf.sprintf "%d (x,y) pairs" n);
    prepare =
      (fun n ->
        let xy = K.Linearrec.generate n in
        let go f () = use_float (f xy).(n - 1) in
        [
          { vname = "array"; run = go K.Linearrec.Array_version.solve };
          { vname = "delay"; run = go K.Linearrec.Delay_version.solve };
        ]);
  }

let linefit =
  {
    name = "linefit";
    default_size = 2_000_000;
    describe = (fun n -> Printf.sprintf "%d 2D points" n);
    prepare =
      (fun n ->
        let pts = K.Linefit.generate n in
        let go f () =
          let s, i = f pts in
          use_float (s +. i)
        in
        [
          { vname = "array"; run = go K.Linefit.Array_version.fit };
          { vname = "delay"; run = go K.Linefit.Delay_version.fit };
        ]);
  }

let mcss =
  {
    name = "mcss";
    default_size = 5_000_000;
    describe = (fun n -> Printf.sprintf "%d signed ints" n);
    prepare =
      (fun n ->
        let a = K.Mcss.generate n in
        [
          { vname = "array"; run = (fun () -> use_int (K.Mcss.Array_version.mcss a)) };
          { vname = "delay"; run = (fun () -> use_int (K.Mcss.Delay_version.mcss a)) };
        ]);
  }

let quickhull =
  {
    name = "quickhull";
    default_size = 200_000;
    describe = (fun n -> Printf.sprintf "%d points in a disc" n);
    prepare =
      (fun n ->
        let pts = K.Quickhull.generate n in
        [
          { vname = "array"; run = (fun () -> use_int (List.length (K.Quickhull.Array_version.hull pts))) };
          { vname = "delay"; run = (fun () -> use_int (List.length (K.Quickhull.Delay_version.hull pts))) };
        ]);
  }

let sparse_mxv =
  {
    name = "sparse-mxv";
    default_size = 1_000_000;
    describe = (fun n -> Printf.sprintf "%d rows x ~50 nnz (%d nnz total)" (n / 50) n);
    prepare =
      (fun n ->
        let rows = max 1 (n / 50) in
        let m, x = K.Sparse_mxv.generate ~rows ~nnz_per_row:50 () in
        let go f () = use_float (f m x).(0) in
        [
          { vname = "array"; run = go K.Sparse_mxv.Array_version.mxv };
          { vname = "delay"; run = go K.Sparse_mxv.Delay_version.mxv };
        ]);
  }

let wc =
  {
    name = "wc";
    default_size = 5_000_000;
    describe = (fun n -> Printf.sprintf "%d chars" n);
    prepare =
      (fun n ->
        let text = K.Wc.generate n in
        let go f () =
          let l, w, b = f text in
          use_int (l + w + b)
        in
        [
          { vname = "array"; run = go K.Wc.Array_version.wc };
          { vname = "delay"; run = go K.Wc.Delay_version.wc };
        ]);
  }

(* Extension applications (§1 mentions both as PBBS benchmarks improved
   by the technique). *)

let inverted_index =
  {
    name = "inverted-index";
    default_size = 2_000_000;
    describe = (fun n -> Printf.sprintf "%d chars of documents" n);
    prepare =
      (fun n ->
        let text = K.Inverted_index.generate n in
        let go f () =
          let w, p = f text in
          use_int (w + p)
        in
        [
          { vname = "array"; run = go K.Inverted_index.Array_version.index };
          { vname = "rad"; run = go K.Inverted_index.Rad_version.index };
          { vname = "delay"; run = go K.Inverted_index.Delay_version.index };
        ]);
  }

let raycast =
  {
    name = "raycast";
    default_size = 1_000_000;
    describe =
      (fun n -> Printf.sprintf "%d ray-triangle tests (%d triangles x %d rays)" n 1000 (n / 1000));
    prepare =
      (fun n ->
        let triangles = 1000 in
        let rays = max 1 (n / triangles) in
        let tris, rs = K.Raycast.generate ~triangles ~rays () in
        let go (module V : K.Raycast.VERSION) () =
          let hits, total = V.cast_summary tris rs in
          use_int hits;
          use_float total
        in
        [
          { vname = "array"; run = go (module K.Raycast.Array_version) };
          { vname = "rad"; run = go (module K.Raycast.Rad_version) };
          { vname = "delay"; run = go (module K.Raycast.Delay_version) };
        ]);
  }

let sort_bench =
  {
    name = "sort";
    default_size = 2_000_000;
    describe = (fun n -> Printf.sprintf "%d random ints, parallel stable merge sort" n);
    prepare =
      (fun n ->
        let a = Bds_data.Gen.ints ~bound:1_000_000 n in
        [
          {
            vname = "stdlib";
            run =
              (fun () ->
                let c = Array.copy a in
                Array.stable_sort compare c;
                use_int c.(0));
          };
          {
            vname = "psort";
            run = (fun () -> use_int (Bds_sort.Psort.sort compare a).(0));
          };
        ]);
  }

let histogram =
  {
    name = "histogram";
    default_size = 2_000_000;
    describe = (fun n -> Printf.sprintf "%d skewed keys into 256 buckets" n);
    prepare =
      (fun n ->
        let keys = K.Histogram.generate ~buckets:256 n in
        [
          {
            vname = "atomics";
            run = (fun () -> use_int (K.Histogram.Delay_version.by_atomics ~buckets:256 keys).(0));
          };
          {
            vname = "sort";
            run = (fun () -> use_int (K.Histogram.Delay_version.by_sort ~buckets:256 keys).(0));
          };
        ]);
  }

let dedup =
  {
    name = "dedup";
    default_size = 2_000_000;
    describe = (fun n -> Printf.sprintf "%d keys, ~%d distinct" n (n / 20));
    prepare =
      (fun n ->
        let keys = K.Dedup.generate ~distinct:(max 1 (n / 20)) n in
        [
          { vname = "array"; run = (fun () -> use_int (Array.length (K.Dedup.Array_version.dedup keys))) };
          { vname = "delay"; run = (fun () -> use_int (Array.length (K.Dedup.Delay_version.dedup keys))) };
        ]);
  }

let bid_benches = [ bestcut; bfs; bignum_add; primes; tokens ]
let rad_benches = [ grep; integrate; linearrec; linefit; mcss; quickhull; sparse_mxv; wc ]
let ext_benches = [ inverted_index; raycast; sort_bench; histogram; dedup ]
let all = bid_benches @ rad_benches @ ext_benches

let find name = List.find_opt (fun b -> b.name = name) all
