(* The unboxed float lane (see float_seq.mli).

   A [Float_seq.t] is either a pure index function (delayed, composes
   with [map]/[map2] at construction time like the PR-4 push fusion) or
   a materialised [floatarray] block.  Every eager consumer drives
   [Runtime.apply_blocks] over the one [Grain] block grid, with a
   monomorphic inner loop per block: [floatarray] reads return unboxed
   floats, the accumulators are local [float ref]s (compiled to
   registers/stack slots in monomorphic code), and nothing allocates per
   element.  Sum/dot split their accumulator 4 ways so the adds form
   independent dependency chains (ILP / FMA-friendly; see
   docs/STREAMS.md "Unboxed float lane").

   Cancellation keeps the stream lane's cadence: every inner loop polls
   the ambient token once per 64 elements, so a cancel lands within one
   poll chunk even mid-block.

   Each per-block loop bumps [Telemetry.float_fast_path] — pipelines
   that stay on this lane are observable via [bds_probe stats], and a
   nonzero [float_boxed_fallback] (bumped by the generic paths in
   [Stream.sum_floats] / [Seq.float_sum]) flags a chain that fell off. *)

module Runtime = Bds_runtime.Runtime
module Cancel = Bds_runtime.Cancel
module Profile = Bds_runtime.Profile
module Telemetry = Bds_runtime.Telemetry
module Grain = Bds_runtime.Grain

type t =
  | Fn of { len : int; get : int -> float }
  | Mat of floatarray

let poll_chunk = 64

(* In flat-float-array mode (the default runtime configuration) a
   [float array] is laid out exactly like a [floatarray]
   (Double_array_tag), so the conversion is a zero-copy cast.  The
   check is evaluated once against the live runtime rather than assumed
   from build flags. *)
let flat_float_arrays = Obj.tag (Obj.repr [| 0.0 |]) = Obj.double_array_tag

let floatarray_of_array (a : float array) : floatarray =
  if flat_float_arrays then (Obj.magic a : floatarray)
  else Float.Array.init (Array.length a) (Array.unsafe_get a)

let array_of_floatarray (a : floatarray) : float array =
  if flat_float_arrays then (Obj.magic a : float array)
  else Array.init (Float.Array.length a) (Float.Array.unsafe_get a)

(* ------------------------------------------------------------------ *)
(* Basics *)

let length = function Fn { len; _ } -> len | Mat a -> Float.Array.length a

let get t i =
  match t with Fn { get; _ } -> get i | Mat a -> Float.Array.get a i

let empty = Mat (Float.Array.create 0)

let tabulate n f =
  if n < 0 then invalid_arg "Float_seq.tabulate";
  Fn { len = n; get = f }

let of_floatarray a = Mat a

let of_array a = Mat (floatarray_of_array a)

let map g = function
  | Fn { len; get } -> Fn { len; get = (fun i -> g (get i)) }
  | Mat a -> Fn { len = Float.Array.length a; get = (fun i -> g (Float.Array.get a i)) }

let map2 g x y =
  let n = length x in
  if length y <> n then invalid_arg "Float_seq.map2: length mismatch";
  let gx = match x with Fn { get; _ } -> get | Mat a -> Float.Array.get a in
  let gy = match y with Fn { get; _ } -> get | Mat a -> Float.Array.get a in
  Fn { len = n; get = (fun i -> g (gx i) (gy i)) }

(* ------------------------------------------------------------------ *)
(* Monomorphic per-block inner loops.

   Each runs over [lo, hi), polls cancellation once per [poll_chunk]
   elements, and keeps its accumulators in local [float ref]s.  The
   [Mat] variants read with [Float.Array.unsafe_get] (the block grid
   guarantees the bounds); the [Fn] variants pay one closure call per
   element — the returned float is boxed at the call boundary, but the
   accumulator arithmetic stays unboxed, which is where the polymorphic
   path loses (boxed closure arguments, boxed intermediates, and a
   dispatch per element). *)

let sum_slice_mat (a : floatarray) lo hi =
  let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
  let i = ref lo in
  while !i < hi do
    Cancel.poll ();
    let stop = Int.min hi (!i + poll_chunk) in
    let j = ref !i in
    while !j + 3 < stop do
      s0 := !s0 +. Float.Array.unsafe_get a !j;
      s1 := !s1 +. Float.Array.unsafe_get a (!j + 1);
      s2 := !s2 +. Float.Array.unsafe_get a (!j + 2);
      s3 := !s3 +. Float.Array.unsafe_get a (!j + 3);
      j := !j + 4
    done;
    while !j < stop do
      s0 := !s0 +. Float.Array.unsafe_get a !j;
      incr j
    done;
    i := stop
  done;
  !s0 +. !s1 +. (!s2 +. !s3)

let sum_slice_fn (get : int -> float) lo hi =
  let s0 = ref 0.0 and s1 = ref 0.0 in
  let i = ref lo in
  while !i < hi do
    Cancel.poll ();
    let stop = Int.min hi (!i + poll_chunk) in
    let j = ref !i in
    while !j + 1 < stop do
      s0 := !s0 +. get !j;
      s1 := !s1 +. get (!j + 1);
      j := !j + 2
    done;
    if !j < stop then s0 := !s0 +. get !j;
    i := stop
  done;
  !s0 +. !s1

let dot_slice_mat (a : floatarray) (b : floatarray) lo hi =
  let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
  let i = ref lo in
  while !i < hi do
    Cancel.poll ();
    let stop = Int.min hi (!i + poll_chunk) in
    let j = ref !i in
    while !j + 3 < stop do
      s0 := !s0 +. (Float.Array.unsafe_get a !j *. Float.Array.unsafe_get b !j);
      s1 :=
        !s1
        +. Float.Array.unsafe_get a (!j + 1) *. Float.Array.unsafe_get b (!j + 1);
      s2 :=
        !s2
        +. Float.Array.unsafe_get a (!j + 2) *. Float.Array.unsafe_get b (!j + 2);
      s3 :=
        !s3
        +. Float.Array.unsafe_get a (!j + 3) *. Float.Array.unsafe_get b (!j + 3);
      j := !j + 4
    done;
    while !j < stop do
      s0 := !s0 +. (Float.Array.unsafe_get a !j *. Float.Array.unsafe_get b !j);
      incr j
    done;
    i := stop
  done;
  !s0 +. !s1 +. (!s2 +. !s3)

let dot_slice_fn (ga : int -> float) (gb : int -> float) lo hi =
  let s0 = ref 0.0 and s1 = ref 0.0 in
  let i = ref lo in
  while !i < hi do
    Cancel.poll ();
    let stop = Int.min hi (!i + poll_chunk) in
    let j = ref !i in
    while !j + 1 < stop do
      s0 := !s0 +. (ga !j *. gb !j);
      s1 := !s1 +. (ga (!j + 1) *. gb (!j + 1));
      j := !j + 2
    done;
    if !j < stop then s0 := !s0 +. (ga !j *. gb !j);
    i := stop
  done;
  !s0 +. !s1

(* Generic fold over a slice: [f] is an arbitrary closure, so its
   arguments and result box at the call boundary, but the loop is still
   monomorphic and allocation stays bounded by [f] itself. *)
let fold_slice_fn (f : float -> float -> float) z (get : int -> float) lo hi =
  let acc = ref z in
  let i = ref lo in
  while !i < hi do
    Cancel.poll ();
    let stop = Int.min hi (!i + poll_chunk) in
    for j = !i to stop - 1 do
      acc := f !acc (get j)
    done;
    i := stop
  done;
  !acc

let write_slice (out : floatarray) (get : int -> float) lo hi =
  let i = ref lo in
  while !i < hi do
    Cancel.poll ();
    let stop = Int.min hi (!i + poll_chunk) in
    for j = !i to stop - 1 do
      Float.Array.unsafe_set out j (get j)
    done;
    i := stop
  done

(* ------------------------------------------------------------------ *)
(* Eager block drivers *)

let getter = function
  | Fn { get; _ } -> get
  | Mat a -> Float.Array.get a

(* Per-block partial results live in a [floatarray] so the stores stay
   unboxed too; the cross-block combine is a short sequential unboxed
   loop (nb is O(n/B)). *)
let block_reduce ~op t ~slice_mat ~slice_fn =
  Profile.with_op op @@ fun () ->
  let n = length t in
  if n = 0 then 0.0
  else begin
    let g = Runtime.block_grid n in
    let nb = g.Grain.num_blocks in
    let partial = Float.Array.create nb in
    Runtime.apply_blocks ~bounds:(Grain.bounds g) ~nb (fun j ->
        Telemetry.incr_float_fast_path ();
        let lo, hi = Grain.bounds g j in
        let s =
          match t with
          | Mat a -> slice_mat a lo hi
          | Fn { get; _ } -> slice_fn get lo hi
        in
        Float.Array.unsafe_set partial j s);
    let acc = ref 0.0 in
    for j = 0 to nb - 1 do
      acc := !acc +. Float.Array.unsafe_get partial j
    done;
    !acc
  end

let sum t = block_reduce ~op:"float_sum" t ~slice_mat:sum_slice_mat ~slice_fn:sum_slice_fn

let dot x y =
  let n = length x in
  if length y <> n then invalid_arg "Float_seq.dot: length mismatch";
  Profile.with_op "float_dot" @@ fun () ->
  if n = 0 then 0.0
  else begin
    let g = Runtime.block_grid n in
    let nb = g.Grain.num_blocks in
    let partial = Float.Array.create nb in
    Runtime.apply_blocks ~bounds:(Grain.bounds g) ~nb (fun j ->
        Telemetry.incr_float_fast_path ();
        let lo, hi = Grain.bounds g j in
        let s =
          match (x, y) with
          | Mat a, Mat b -> dot_slice_mat a b lo hi
          | _ -> dot_slice_fn (getter x) (getter y) lo hi
        in
        Float.Array.unsafe_set partial j s);
    let acc = ref 0.0 in
    for j = 0 to nb - 1 do
      acc := !acc +. Float.Array.unsafe_get partial j
    done;
    !acc
  end

let reduce f z t =
  Profile.with_op "float_reduce" @@ fun () ->
  let n = length t in
  if n = 0 then z
  else begin
    let g = Runtime.block_grid n in
    let nb = g.Grain.num_blocks in
    let get = getter t in
    (* Seed each block from its first element so [z] is combined exactly
       once, on the left of the whole fold. *)
    let partial = Float.Array.create nb in
    Runtime.apply_blocks ~bounds:(Grain.bounds g) ~nb (fun j ->
        Telemetry.incr_float_fast_path ();
        let lo, hi = Grain.bounds g j in
        Float.Array.unsafe_set partial j (fold_slice_fn f (get lo) get (lo + 1) hi));
    let acc = ref (f z (Float.Array.unsafe_get partial 0)) in
    for j = 1 to nb - 1 do
      acc := f !acc (Float.Array.unsafe_get partial j)
    done;
    !acc
  end

(* One-pass dual reduction: both accumulators live in the same loop, so
   the input is read once where chaining two [sum]/[dot] calls would
   read it twice.  [f1]/[f2] are arbitrary closures — their results box
   at the call boundary (cf. [reduce]) — but the accumulator adds stay
   unboxed and the [Mat]x[Mat] case reads with [unsafe_get]. *)
let fold2 ~f1 ~f2 x y =
  let n = length x in
  if length y <> n then invalid_arg "Float_seq.fold2: length mismatch";
  Profile.with_op "float_dot" @@ fun () ->
  if n = 0 then (0.0, 0.0)
  else begin
    let g = Runtime.block_grid n in
    let nb = g.Grain.num_blocks in
    let p1 = Float.Array.create nb and p2 = Float.Array.create nb in
    let gx = getter x and gy = getter y in
    Runtime.apply_blocks ~bounds:(Grain.bounds g) ~nb (fun j ->
        Telemetry.incr_float_fast_path ();
        let lo, hi = Grain.bounds g j in
        let s1 = ref 0.0 and s2 = ref 0.0 in
        let i = ref lo in
        (match (x, y) with
        | Mat a, Mat b ->
          while !i < hi do
            Cancel.poll ();
            let stop = Int.min hi (!i + poll_chunk) in
            for k = !i to stop - 1 do
              let xv = Float.Array.unsafe_get a k in
              let yv = Float.Array.unsafe_get b k in
              s1 := !s1 +. f1 xv yv;
              s2 := !s2 +. f2 xv yv
            done;
            i := stop
          done
        | _ ->
          while !i < hi do
            Cancel.poll ();
            let stop = Int.min hi (!i + poll_chunk) in
            for k = !i to stop - 1 do
              let xv = gx k and yv = gy k in
              s1 := !s1 +. f1 xv yv;
              s2 := !s2 +. f2 xv yv
            done;
            i := stop
          done);
        Float.Array.unsafe_set p1 j !s1;
        Float.Array.unsafe_set p2 j !s2);
    let a1 = ref 0.0 and a2 = ref 0.0 in
    for j = 0 to nb - 1 do
      a1 := !a1 +. Float.Array.unsafe_get p1 j;
      a2 := !a2 +. Float.Array.unsafe_get p2 j
    done;
    (!a1, !a2)
  end

(* Pack survivors into fresh unboxed storage: per block, a count+pack
   pass into a block-local floatarray (the predicate runs exactly once
   per element), then a sequential offsets scan over the per-block
   counts, then a parallel unboxed blit into the exact-size output —
   the same 3-phase shape as [Seq.filter]'s mask pass, but eager, since
   the float lane has no delayed region views to keep. *)
let filter p t =
  Profile.with_op "float_filter" @@ fun () ->
  let n = length t in
  if n = 0 then empty
  else begin
    let g = Runtime.block_grid n in
    let nb = g.Grain.num_blocks in
    let get = getter t in
    let bufs = Array.make nb (Float.Array.create 0) in
    let counts = Array.make nb 0 in
    Runtime.apply_blocks ~bounds:(Grain.bounds g) ~nb (fun j ->
        Telemetry.incr_float_fast_path ();
        let lo, hi = Grain.bounds g j in
        let buf = Float.Array.create (hi - lo) in
        let c = ref 0 in
        let i = ref lo in
        (match t with
        | Mat a ->
          while !i < hi do
            Cancel.poll ();
            let stop = Int.min hi (!i + poll_chunk) in
            for k = !i to stop - 1 do
              let v = Float.Array.unsafe_get a k in
              if p v then begin
                Float.Array.unsafe_set buf !c v;
                incr c
              end
            done;
            i := stop
          done
        | Fn _ ->
          while !i < hi do
            Cancel.poll ();
            let stop = Int.min hi (!i + poll_chunk) in
            for k = !i to stop - 1 do
              let v = get k in
              if p v then begin
                Float.Array.unsafe_set buf !c v;
                incr c
              end
            done;
            i := stop
          done);
        bufs.(j) <- buf;
        counts.(j) <- !c);
    let offsets = Array.make nb 0 in
    let total = ref 0 in
    for j = 0 to nb - 1 do
      offsets.(j) <- !total;
      total := !total + counts.(j)
    done;
    if !total = 0 then empty
    else begin
      let out = Float.Array.create !total in
      Runtime.apply_blocks ~bounds:(Grain.bounds g) ~nb (fun j ->
          Telemetry.incr_float_fast_path ();
          Float.Array.blit bufs.(j) 0 out offsets.(j) counts.(j));
      Mat out
    end
  end

let to_floatarray t =
  match t with
  | Mat a -> a
  | Fn { len; get } ->
    Profile.with_op "float_to_array" @@ fun () ->
    let out = Float.Array.create len in
    if len > 0 then begin
      let g = Runtime.block_grid len in
      Runtime.apply_blocks ~bounds:(Grain.bounds g) ~nb:g.Grain.num_blocks
        (fun j ->
          Telemetry.incr_float_fast_path ();
          let lo, hi = Grain.bounds g j in
          write_slice out get lo hi)
    end;
    out

let force t = match t with Mat _ -> t | Fn _ -> Mat (to_floatarray t)

let to_array t = array_of_floatarray (to_floatarray t)

(* ------------------------------------------------------------------ *)
(* Prefix sums: the classic 3-phase block scan (paper Figure 10),
   specialised to [( +. )] so every phase stays unboxed.  Phases 1 and 3
   are parallel block loops; phase 2 is the short sequential scan of the
   per-block sums.  Unlike [Seq.scan] the output is materialised eagerly
   (a [Mat]) — the float lane trades the delayed phase 3 for unboxed
   stores, and a materialised output still composes with [map]/[sum]
   downstream without re-running the producer. *)

let scan t =
  Profile.with_op "float_scan" @@ fun () ->
  let n = length t in
  if n = 0 then (empty, 0.0)
  else begin
    let g = Runtime.block_grid n in
    let nb = g.Grain.num_blocks in
    let get = getter t in
    let sums = Float.Array.create nb in
    Runtime.apply_blocks ~bounds:(Grain.bounds g) ~nb (fun j ->
        Telemetry.incr_float_fast_path ();
        let lo, hi = Grain.bounds g j in
        let s =
          match t with
          | Mat a -> sum_slice_mat a lo hi
          | Fn { get; _ } -> sum_slice_fn get lo hi
        in
        Float.Array.unsafe_set sums j s);
    (* Phase 2: exclusive scan of the block sums (sequential, unboxed). *)
    let acc = ref 0.0 in
    for j = 0 to nb - 1 do
      let s = Float.Array.unsafe_get sums j in
      Float.Array.unsafe_set sums j !acc;
      acc := !acc +. s
    done;
    let total = !acc in
    let out = Float.Array.create n in
    Runtime.apply_blocks ~bounds:(Grain.bounds g) ~nb (fun j ->
        Telemetry.incr_float_fast_path ();
        let lo, hi = Grain.bounds g j in
        let acc = ref (Float.Array.unsafe_get sums j) in
        let i = ref lo in
        while !i < hi do
          Cancel.poll ();
          let stop = Int.min hi (!i + poll_chunk) in
          for k = !i to stop - 1 do
            Float.Array.unsafe_set out k !acc;
            acc := !acc +. get k
          done;
          i := stop
        done);
    (Mat out, total)
  end

let scan_incl t =
  Profile.with_op "float_scan" @@ fun () ->
  let n = length t in
  if n = 0 then empty
  else begin
    let g = Runtime.block_grid n in
    let nb = g.Grain.num_blocks in
    let get = getter t in
    let sums = Float.Array.create nb in
    Runtime.apply_blocks ~bounds:(Grain.bounds g) ~nb (fun j ->
        Telemetry.incr_float_fast_path ();
        let lo, hi = Grain.bounds g j in
        let s =
          match t with
          | Mat a -> sum_slice_mat a lo hi
          | Fn { get; _ } -> sum_slice_fn get lo hi
        in
        Float.Array.unsafe_set sums j s);
    let acc = ref 0.0 in
    for j = 0 to nb - 1 do
      let s = Float.Array.unsafe_get sums j in
      Float.Array.unsafe_set sums j !acc;
      acc := !acc +. s
    done;
    let out = Float.Array.create n in
    Runtime.apply_blocks ~bounds:(Grain.bounds g) ~nb (fun j ->
        Telemetry.incr_float_fast_path ();
        let lo, hi = Grain.bounds g j in
        let acc = ref (Float.Array.unsafe_get sums j) in
        let i = ref lo in
        while !i < hi do
          Cancel.poll ();
          let stop = Int.min hi (!i + poll_chunk) in
          for k = !i to stop - 1 do
            acc := !acc +. get k;
            Float.Array.unsafe_set out k !acc
          done;
          i := stop
        done);
    Mat out
  end
