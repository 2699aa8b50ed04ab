(* Eager parallel arrays: the paper's baseline library "A" (no fusion) and
   the internal array substrate of Figure 7.  Every operation materialises
   its result.  reduce/scan/filter/flatten use the standard block-based
   parallel implementations described in §2.2. *)

module Runtime = Bds_runtime.Runtime
module Grain = Bds_runtime.Grain

(* The block grid for every block-based operation below comes from the
   unified granularity layer: one policy (Bds_runtime.Grain, surfaced as
   Bds.Block) decides the grid for Parray, Rad and Seq alike. *)
let grid n = Runtime.block_grid n

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
  let g = grid n in
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
  Runtime.apply_blocks ~bounds:(Grain.bounds g) ~nb:g.Grain.num_blocks
    (fun b ->
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

(* Copy [packed.(b)] blocks into one contiguous array. *)
let concat_packed (packed : 'a array array) =
  let nb = Array.length packed in
  let counts = Array.map Array.length packed in
  let offsets, total = scan_seq ( + ) 0 counts in
  if total = 0 then [||]
  else begin
    (* Witness element for allocation. *)
    let rec first b = if Array.length packed.(b) > 0 then packed.(b).(0) else first (b + 1) in
    let out = Array.make total (first 0) in
    Runtime.apply_blocks
      ~bounds:(fun b -> (offsets.(b), offsets.(b) + Array.length packed.(b)))
      ~nb
      (fun b -> Array.blit packed.(b) 0 out offsets.(b) (Array.length packed.(b)));
    out
  end

(* Two-phase block-based filter (§2.2): pack within blocks, then flatten. *)
let filter p a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let g = grid n in
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
    let g = grid n in
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

(* Eager flatten: scan of lengths for offsets, then parallel copy. *)
let flatten (aa : 'a array array) =
  let m = Array.length aa in
  if m = 0 then [||]
  else begin
    let lengths = map Array.length aa in
    let offsets, total = scan ( + ) 0 lengths in
    if total = 0 then [||]
    else begin
      let rec first j = if Array.length aa.(j) > 0 then aa.(j).(0) else first (j + 1) in
      let out = Array.make total (first 0) in
      Runtime.apply_blocks
        ~bounds:(fun j -> (offsets.(j), offsets.(j) + Array.length aa.(j)))
        ~nb:m
        (fun j -> Array.blit aa.(j) 0 out offsets.(j) (Array.length aa.(j)));
      out
    end
  end

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
