(* Eager parallel arrays: the paper's baseline library "A" (no fusion) and
   the internal array substrate of Figure 7.  Every operation materialises
   its result.  reduce/scan/filter/flatten use the standard block-based
   parallel implementations described in §2.2. *)

(* The block grid for every block-based operation below is
   [Runtime.block_grid]: one policy (Bds_runtime.Grain) decides the grid
   for Parray, Rad and Seq alike. *)

module Runtime = Bds_runtime.Runtime
module Grain = Bds_runtime.Grain

let length = Array.length

let tabulate n f =
  if n = 0 then [||]
  else begin
    let a = Array.make n (f 0) in
    Runtime.parallel_for 1 n (fun i -> Array.unsafe_set a i (f i));
    a
  end

let iota n = tabulate n (fun i -> i)

let map f a = tabulate (Array.length a) (fun i -> f (Array.unsafe_get a i))

let mapi f a = tabulate (Array.length a) (fun i -> f i (Array.unsafe_get a i))

let map2 f a b =
  if Array.length a <> Array.length b then invalid_arg "Parray.map2";
  tabulate (Array.length a) (fun i ->
      f (Array.unsafe_get a i) (Array.unsafe_get b i))

let zip a b = map2 (fun x y -> (x, y)) a b

let reduce f z a =
  Runtime.parallel_for_reduce 0 (Array.length a) ~combine:f ~init:z (fun i ->
      Array.unsafe_get a i)

(* Sequential exclusive scan, used on the (small) per-block sums. *)
let scan_seq f z a =
  let n = Array.length a in
  let out = Array.make n z in
  let acc = ref z in
  for i = 0 to n - 1 do
    out.(i) <- !acc;
    acc := f !acc a.(i)
  done;
  (out, !acc)

(* Three-phase block-based scan (Figure 2), shared by [scan] and
   [scan_incl]: phase 1 sums each block seeded from its first element
   (blocks are never empty), so [z] is combined exactly once, in phase 2,
   and needs no identity property; phase 2 scans the block sums
   sequentially (nb is small); phase 3 runs [rescan out acc lo hi] on
   each block from its offset [acc].  Returns the output and the total. *)
let scan_blocks f z a rescan =
  let n = Array.length a in
  let g = Runtime.block_grid n in
  let sums =
    Runtime.map_blocks g ~init:z (fun b ->
        let lo, hi = Grain.bounds g b in
        let acc = ref (Array.unsafe_get a lo) in
        for i = lo + 1 to hi - 1 do
          acc := f !acc (Array.unsafe_get a i)
        done;
        !acc)
  in
  let offsets, total = scan_seq f z sums in
  let out = Array.make n z in
  Runtime.iter_blocks g (fun b ->
      let lo, hi = Grain.bounds g b in
      rescan out offsets.(b) lo hi);
  (out, total)

let scan f z a =
  if Array.length a = 0 then ([||], z)
  else
    scan_blocks f z a (fun out acc lo hi ->
        let acc = ref acc in
        for i = lo to hi - 1 do
          Array.unsafe_set out i !acc;
          acc := f !acc (Array.unsafe_get a i)
        done)

let scan_incl f z a =
  if Array.length a = 0 then [||]
  else
    fst
      (scan_blocks f z a (fun out acc lo hi ->
           let acc = ref acc in
           for i = lo to hi - 1 do
             acc := f !acc (Array.unsafe_get a i);
             Array.unsafe_set out i !acc
           done))

(* Largest j with offsets.(j) <= pos.  The annotation matters: inferred
   as ['a array], every step would be a polymorphic [caml_lessequal]
   call. *)
let offset_search (offsets : int array) pos =
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi + 1) / 2 in
      if offsets.(mid) <= pos then search mid hi else search lo (mid - 1)
    end
  in
  search 0 (Array.length offsets - 1)

(* The copy phase of [flatten] and [concat_packed]: [aa.(j)] goes to
   [offsets.(j)] of a [total]-element output, one block per inner. *)
let blit_at (aa : 'a array array) offsets total =
  if total = 0 then [||]
  else begin
    (* Witness element for allocation. *)
    let rec first j = if Array.length aa.(j) > 0 then aa.(j).(0) else first (j + 1) in
    let out = Array.make total (first 0) in
    Runtime.apply_blocks
      ~bounds:(fun j -> (offsets.(j), offsets.(j) + Array.length aa.(j)))
      ~nb:(Array.length aa)
      (fun j -> Array.blit aa.(j) 0 out offsets.(j) (Array.length aa.(j)));
    out
  end

(* The per-block packs of a filter are a few per worker: their offsets
   are one sequential scan. *)
let concat_packed (packed : 'a array array) =
  let offsets, total = scan_seq ( + ) 0 (Array.map Array.length packed) in
  blit_at packed offsets total

(* Two-phase block-based filter (§2.2): pack within blocks, then flatten. *)
let filter p a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let g = Runtime.block_grid n in
    concat_packed
      (Runtime.map_blocks g ~init:[||] (fun b ->
           let lo, hi = Grain.bounds g b in
           let buf = Bds_stream.Buffer_ext.create () in
           for i = lo to hi - 1 do
             let v = Array.unsafe_get a i in
             if p v then Bds_stream.Buffer_ext.push buf v
           done;
           Bds_stream.Buffer_ext.to_array buf))
  end

let filter_op p a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let g = Runtime.block_grid n in
    concat_packed
      (Runtime.map_blocks g ~init:[||] (fun b ->
           let lo, hi = Grain.bounds g b in
           let buf = Bds_stream.Buffer_ext.create () in
           for i = lo to hi - 1 do
             match p (Array.unsafe_get a i) with
             | Some w -> Bds_stream.Buffer_ext.push buf w
             | None -> ()
           done;
           Bds_stream.Buffer_ext.to_array buf))
  end

(* Eager flatten: the outer can be long, so its offsets are a parallel
   scan of the lengths; then the parallel copy. *)
let flatten (aa : 'a array array) =
  let offsets, total = scan ( + ) 0 (map Array.length aa) in
  blit_at aa offsets total

let rev a =
  let n = Array.length a in
  tabulate n (fun i -> Array.unsafe_get a (n - 1 - i))

let append a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then Array.copy b
  else if nb = 0 then Array.copy a
  else begin
    let out = Array.make (na + nb) a.(0) in
    Runtime.run (fun () ->
        let _ =
          Runtime.par
            (fun () -> Array.blit a 0 out 0 na)
            (fun () -> Array.blit b 0 out na nb)
        in
        ());
    out
  end

let equal eq a b =
  Array.length a = Array.length b
  && Runtime.parallel_for_reduce 0 (Array.length a) ~combine:( && ) ~init:true
       (fun i -> eq a.(i) b.(i))
