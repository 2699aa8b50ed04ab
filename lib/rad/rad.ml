(* The paper's baseline library "R": random-access-delayed sequences only.
   tabulate/map/zip are delayed (index fusion, as in Repa); every operation
   whose output cannot be random-access-delayed (scan, filter, flatten)
   materialises an eager array, which is then wrapped back up as a RAD.

   A RAD is a length plus an index function over logical indices
   [0 .. len-1]; the paper's explicit offset field is folded into the
   closure. *)

module Runtime = Bds_runtime.Runtime
module Grain = Bds_runtime.Grain

type 'a t = { len : int; get : int -> 'a }

let length s = s.len

let get s i =
  if i < 0 || i >= s.len then invalid_arg "Rad.get: index out of bounds";
  s.get i

let empty = { len = 0; get = (fun _ -> invalid_arg "Rad.empty") }

let tabulate n f =
  if n < 0 then invalid_arg "Rad.tabulate";
  { len = n; get = f }

let of_array a = { len = Array.length a; get = Array.unsafe_get a }

let to_array s = Bds_parray.Parray.tabulate s.len s.get

let force s = of_array (to_array s)

let map g s = { len = s.len; get = (fun i -> g (s.get i)) }

let mapi g s = { len = s.len; get = (fun i -> g i (s.get i)) }

let zip s1 s2 =
  if s1.len <> s2.len then invalid_arg "Rad.zip: length mismatch";
  { len = s1.len; get = (fun i -> (s1.get i, s2.get i)) }

let zip_with f s1 s2 =
  if s1.len <> s2.len then invalid_arg "Rad.zip_with: length mismatch";
  { len = s1.len; get = (fun i -> f (s1.get i) (s2.get i)) }

let slice s off len =
  if off < 0 || len < 0 || off + len > s.len then invalid_arg "Rad.slice";
  { len; get = (fun i -> s.get (off + i)) }

let take s n = slice s 0 n
let drop s n = slice s n (s.len - n)

let rev s = { len = s.len; get = (fun i -> s.get (s.len - 1 - i)) }

let append s1 s2 =
  {
    len = s1.len + s2.len;
    get = (fun i -> if i < s1.len then s1.get i else s2.get (i - s1.len));
  }

let iota n = tabulate n (fun i -> i)

(* Fused reduce: reads the input through the index function; no
   intermediate array. *)
let reduce f z s =
  Runtime.parallel_for_reduce 0 s.len ~combine:f ~init:z s.get

let iter f s = Runtime.parallel_for 0 s.len (fun i -> f (s.get i))

let iteri f s = Runtime.parallel_for 0 s.len (fun i -> f i (s.get i))

(* The block grid is [Runtime.block_grid], shared with Parray and Seq;
   per-block phases run as heavy block bodies via [Runtime.iter_blocks],
   and [Runtime.map_blocks] collects their per-block results.

   scan fuses with its (delayed) input but materialises its output: the
   three phases of [Parray.scan], reading the input through [s.get].
   Phase 1's block sums are seeded from each block's first element, so
   [z] is combined exactly once; [rescan out acc lo hi] is phase 3. *)
let scan_blocks f z s rescan =
  let g = Runtime.block_grid s.len in
  let sums =
    Runtime.map_blocks g ~init:z (fun b ->
        let lo, hi = Grain.bounds g b in
        let acc = ref (s.get lo) in
        for i = lo + 1 to hi - 1 do
          acc := f !acc (s.get i)
        done;
        !acc)
  in
  let offsets, total = Bds_parray.Parray.scan_seq f z sums in
  let out = Array.make s.len z in
  Runtime.iter_blocks g (fun b ->
      let lo, hi = Grain.bounds g b in
      rescan out offsets.(b) lo hi);
  (of_array out, total)

let scan f z s =
  if s.len = 0 then (empty, z)
  else
    scan_blocks f z s (fun out acc lo hi ->
        let acc = ref acc in
        for i = lo to hi - 1 do
          Array.unsafe_set out i !acc;
          acc := f !acc (s.get i)
        done)

let scan_incl f z s =
  if s.len = 0 then empty
  else
    fst
      (scan_blocks f z s (fun out acc lo hi ->
           let acc = ref acc in
           for i = lo to hi - 1 do
             acc := f !acc (s.get i);
             Array.unsafe_set out i !acc
           done))

(* filter fuses with its input but packs into an eager array, joined
   the way A joins its packs ([Parray.concat_packed]). *)
let filter p s =
  let n = s.len in
  if n = 0 then empty
  else begin
    let g = Runtime.block_grid n in
    let packed =
      Runtime.map_blocks g ~init:[||] (fun b ->
          let lo, hi = Grain.bounds g b in
          let buf = Bds_stream.Buffer_ext.create () in
          for i = lo to hi - 1 do
            let v = s.get i in
            if p v then Bds_stream.Buffer_ext.push buf v
          done;
          Bds_stream.Buffer_ext.to_array buf)
    in
    of_array (Bds_parray.Parray.concat_packed packed)
  end

let filter_op p s =
  let n = s.len in
  if n = 0 then empty
  else begin
    let g = Runtime.block_grid n in
    let packed =
      Runtime.map_blocks g ~init:[||] (fun b ->
          let lo, hi = Grain.bounds g b in
          let buf = Bds_stream.Buffer_ext.create () in
          for i = lo to hi - 1 do
            match p (s.get i) with
            | Some w -> Bds_stream.Buffer_ext.push buf w
            | None -> ()
          done;
          Bds_stream.Buffer_ext.to_array buf)
    in
    of_array (Bds_parray.Parray.concat_packed packed)
  end

(* Eager flatten: compute offsets, copy everything.  The copy runs on
   the output's grid, so a few long inners still split across blocks:
   block [i] finds the inner holding its first position by binary
   search on the offsets, then copies across inners to its end. *)
let flatten (ss : 'a t t) =
  let m = ss.len in
  if m = 0 then empty
  else begin
    let inners = Bds_parray.Parray.tabulate m ss.get in
    let lengths = Array.map (fun s -> s.len) inners in
    let offsets, total = Bds_parray.Parray.scan ( + ) 0 lengths in
    if total = 0 then empty
    else begin
      let rec first j = if inners.(j).len > 0 then inners.(j).get 0 else first (j + 1) in
      let out = Array.make total (first 0) in
      let g = Runtime.block_grid total in
      Runtime.iter_blocks g (fun i ->
          let lo, hi = Grain.bounds g i in
          let j = ref (Bds_parray.Parray.offset_search offsets lo) in
          let pos = ref lo in
          while !pos < hi do
            let s = inners.(!j) and off = offsets.(!j) in
            let stop = Int.min hi (off + s.len) in
            for p = !pos to stop - 1 do
              Array.unsafe_set out p (s.get (p - off))
            done;
            pos := stop;
            incr j
          done);
      of_array out
    end
  end

let to_list s = List.init s.len s.get

let equal eq s1 s2 =
  s1.len = s2.len
  && Runtime.parallel_for_reduce 0 s1.len ~combine:( && ) ~init:true (fun i ->
         eq (s1.get i) (s2.get i))
