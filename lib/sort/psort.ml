(* Parallel stable merge sort with parallel merging.

   The recursion alternates between the input array and a scratch buffer
   (ping-pong) so each level copies once.  Merging splits on the median of
   the larger run and binary-searches its counterpart in the smaller run;
   tie-breaking in the binary searches keeps the sort stable (equal
   elements from the left run always precede those from the right run).

   This is the ParlayLib-style sorting substrate used by the extension
   applications (inverted index); the paper's own kernels do not sort. *)

module Runtime = Bds_runtime.Runtime
module Grain = Bds_runtime.Grain
module Profile = Bds_runtime.Profile

(* First index in [lo, hi) of [a] whose element is >= pivot (lower bound)
   or > pivot (upper bound), under [cmp]. *)
let search ~upper cmp a lo hi pivot =
  let rec go lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      let c = cmp a.(mid) pivot in
      if c < 0 || (upper && c = 0) then go (mid + 1) hi else go lo mid
    end
  in
  go lo hi

let seq_merge cmp src alo ahi blo bhi dst dlo =
  let i = ref alo and j = ref blo and k = ref dlo in
  while !i < ahi && !j < bhi do
    (* Stability: ties taken from the left run. *)
    if cmp src.(!i) src.(!j) <= 0 then begin
      dst.(!k) <- src.(!i);
      incr i
    end
    else begin
      dst.(!k) <- src.(!j);
      incr j
    end;
    incr k
  done;
  if !i < ahi then Array.blit src !i dst !k (ahi - !i)
  else Array.blit src !j dst !k (bhi - !j)

(* Merge the sorted runs src[alo,ahi) and src[blo,bhi) into dst at dlo,
   in parallel by divide-and-conquer on the larger run.  [prof] is the
   sort op's profile region, threaded through the recursion so sequential
   base cases on any worker domain record as leaves of that op. *)
let rec par_merge cmp grain prof src alo ahi blo bhi dst dlo =
  let la = ahi - alo and lb = bhi - blo in
  if la + lb <= grain then
    Profile.leaf prof (fun () -> seq_merge cmp src alo ahi blo bhi dst dlo)
  else if la >= lb then begin
    let amid = (alo + ahi) / 2 in
    let pivot = src.(amid) in
    (* Right-run ties of the pivot go right, after the pivot. *)
    let bmid = search ~upper:false cmp src blo bhi pivot in
    let dmid = dlo + (amid - alo) + (bmid - blo) in
    let (), () =
      Runtime.par
        (fun () -> par_merge cmp grain prof src alo amid blo bmid dst dlo)
        (fun () -> par_merge cmp grain prof src amid ahi bmid bhi dst dmid)
    in
    ()
  end
  else begin
    let bmid = (blo + bhi) / 2 in
    let pivot = src.(bmid) in
    (* Left-run ties of the pivot go left, before the pivot. *)
    let amid = search ~upper:true cmp src alo ahi pivot in
    let dmid = dlo + (amid - alo) + (bmid - blo) in
    let (), () =
      Runtime.par
        (fun () -> par_merge cmp grain prof src alo amid blo bmid dst dlo)
        (fun () -> par_merge cmp grain prof src amid ahi bmid bhi dst dmid)
    in
    ()
  end

(* Sort src[lo, hi); the sorted run ends up in dst[lo, hi) when [into_dst],
   else back in src[lo, hi). *)
let rec sort_range cmp grain prof src dst lo hi into_dst =
  let n = hi - lo in
  if n <= grain then
    Profile.leaf prof (fun () ->
        let tmp = Array.sub src lo n in
        Array.stable_sort cmp tmp;
        Array.blit tmp 0 (if into_dst then dst else src) lo n)
  else begin
    let mid = (lo + hi) / 2 in
    let (), () =
      Runtime.par
        (fun () -> sort_range cmp grain prof src dst lo mid (not into_dst))
        (fun () -> sort_range cmp grain prof src dst mid hi (not into_dst))
    in
    (* Halves are sorted in the *other* buffer; merge them into ours. *)
    let from, into = if into_dst then (src, dst) else (dst, src) in
    par_merge cmp grain prof from lo mid mid hi into lo
  end

let sort_in_place ?grain cmp a =
  let n = Array.length a in
  if n > 1 then
    Profile.with_op "sort" (fun () ->
        let grain =
          Int.max 16 (Option.value grain ~default:Grain.sort_cutoff)
        in
        let scratch = Array.copy a in
        (* One region for the whole fork-join recursion: the span
           estimate degrades to "serial glue + longest base case" (the
           merge chain along the critical path is not modelled), which
           still separates a starved sort from a balanced one. *)
        Profile.with_region (fun prof ->
            Runtime.run (fun () -> sort_range cmp grain prof a scratch 0 n false)))

let sort ?grain cmp a =
  let out = Array.copy a in
  sort_in_place ?grain cmp out;
  out

(* ------------------------------------------------------------------ *)
(* Unboxed float sort (the float lane's sorting substrate).

   The generic sort above compares through a polymorphic [cmp] closure,
   which boxes both floats on every comparison and reads elements
   through polymorphic accessors.  The float variant below is fully
   monomorphic over [float array] (flat unboxed storage), compares with
   the primitive [<=], and replaces the divide-and-conquer merge with a
   {e cache-blocked merge-path} merge: the output is cut into
   fixed-size tiles ([Grain.merge_tile], default 4096 — sized to stay
   cache-resident), each tile locates its input split with one binary
   search along the merge path, and then writes its slice of the output
   in a single sequential pass.  Tiles are independent, so they run as
   a flat [apply_blocks] — span O(log n) per merge level instead of the
   generic merge's recursive splitting, and every memory access within
   a tile is sequential (streaming loads from two runs, streaming
   stores to one output range).

   Ordering uses the primitive [<=] on floats: inputs containing NaN
   have no total order under [<=], and the result is unspecified for
   them (memory-safe, but not sorted).  [-0.] and [0.] compare equal
   and keep their relative order (the merges and the insertion-sort
   base are stable, though stability is unobservable for floats). *)

let insertion_sort_floats (a : float array) lo hi =
  for i = lo + 1 to hi - 1 do
    let v = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= lo && Array.unsafe_get a !j > v do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) v
  done

let seq_merge_floats (src : float array) alo ahi blo bhi (dst : float array)
    dlo =
  let i = ref alo and j = ref blo and k = ref dlo in
  while !i < ahi && !j < bhi do
    let x = Array.unsafe_get src !i and y = Array.unsafe_get src !j in
    (* Stability: ties taken from the left run. *)
    if x <= y then begin
      Array.unsafe_set dst !k x;
      incr i
    end
    else begin
      Array.unsafe_set dst !k y;
      incr j
    end;
    incr k
  done;
  while !i < ahi do
    Array.unsafe_set dst !k (Array.unsafe_get src !i);
    incr i;
    incr k
  done;
  while !j < bhi do
    Array.unsafe_set dst !k (Array.unsafe_get src !j);
    incr j;
    incr k
  done

(* Merge-path split: for sorted runs A = src[alo, alo+la) and
   B = src[blo, blo+lb), return the unique [i] such that the first [k]
   elements of the stable merge are A[..i) and B[..k-i).  The stable
   split satisfies (i = 0 or j = lb or A[i-1] <= B[j]) and (j = 0 or
   i = la or B[j-1] < A[i]) with j = k - i; the second predicate is
   monotone in [i], so a binary search for its smallest witness finds
   the split in O(log min(la, lb, k)). *)
let merge_path (src : float array) alo la blo lb k =
  let lo = ref (Int.max 0 (k - lb)) and hi = ref (Int.min k la) in
  while !lo < !hi do
    let i = (!lo + !hi) / 2 in
    let j = k - i in
    (* Inside the open interval, i < la and j > 0 always hold. *)
    if Array.unsafe_get src (alo + i) <= Array.unsafe_get src (blo + j - 1)
    then lo := i + 1
    else hi := i
  done;
  !lo

(* Cache-blocked parallel merge of src[alo,ahi) and src[blo,bhi) into
   dst[dlo, ...): one output tile per parallel iteration. *)
let par_merge_floats grain prof (src : float array) alo ahi blo bhi
    (dst : float array) dlo =
  let la = ahi - alo and lb = bhi - blo in
  let total = la + lb in
  if total <= grain then
    Profile.leaf prof (fun () -> seq_merge_floats src alo ahi blo bhi dst dlo)
  else begin
    let tile = Grain.merge_tile () in
    let nt = (total + tile - 1) / tile in
    (* One leaf per tile: a tile is already a coarse unit of work. *)
    Runtime.apply_blocks ~nb:nt (fun t ->
        Profile.leaf prof (fun () ->
            let k1 = t * tile in
            let k2 = Int.min total (k1 + tile) in
            let i1 = merge_path src alo la blo lb k1 in
            let i2 = merge_path src alo la blo lb k2 in
            seq_merge_floats src (alo + i1) (alo + i2)
              (blo + (k1 - i1))
              (blo + (k2 - i2))
              dst (dlo + k1)))
  end

(* Sequential ping-pong merge sort for grain-sized ranges: monomorphic
   all the way down (no [Array.stable_sort], whose polymorphic compare
   would box every comparison). *)
let rec seq_sort_floats (src : float array) (dst : float array) lo hi into_dst
    =
  let n = hi - lo in
  if n <= 32 then begin
    let a = if into_dst then dst else src in
    if into_dst then Array.blit src lo dst lo n;
    insertion_sort_floats a lo hi
  end
  else begin
    let mid = (lo + hi) / 2 in
    seq_sort_floats src dst lo mid (not into_dst);
    seq_sort_floats src dst mid hi (not into_dst);
    let from, into = if into_dst then (src, dst) else (dst, src) in
    seq_merge_floats from lo mid mid hi into lo
  end

let rec sort_range_floats grain prof (src : float array) (dst : float array)
    lo hi into_dst =
  let n = hi - lo in
  if n <= grain then
    Profile.leaf prof (fun () -> seq_sort_floats src dst lo hi into_dst)
  else begin
    let mid = (lo + hi) / 2 in
    let (), () =
      Runtime.par
        (fun () -> sort_range_floats grain prof src dst lo mid (not into_dst))
        (fun () -> sort_range_floats grain prof src dst mid hi (not into_dst))
    in
    let from, into = if into_dst then (src, dst) else (dst, src) in
    par_merge_floats grain prof from lo mid mid hi into lo
  end

let sort_floats_in_place ?grain (a : float array) =
  let n = Array.length a in
  if n > 1 then
    Profile.with_op "sort_floats" (fun () ->
        let grain =
          Int.max 16 (Option.value grain ~default:Grain.sort_cutoff)
        in
        let scratch = Array.copy a in
        Profile.with_region (fun prof ->
            Runtime.run (fun () ->
                sort_range_floats grain prof a scratch 0 n false)))

let sort_floats ?grain a =
  let out = Array.copy a in
  sort_floats_in_place ?grain out;
  out

let is_sorted cmp a =
  let n = Array.length a in
  let rec go i = i >= n || (cmp a.(i - 1) a.(i) <= 0 && go (i + 1)) in
  go 1

(* Group (key, value) pairs by key: stable sort on keys, then cut at run
   boundaries.  Values within a group keep their input order (stability).
   This is ParlayLib's collect/group_by shape, used e.g. to build
   inverted indices. *)
let group_by (cmp : 'k -> 'k -> int) (pairs : ('k * 'v) array) :
    ('k * 'v array) array =
  let n = Array.length pairs in
  if n = 0 then [||]
  else
    Profile.with_op "sort" @@ fun () ->
    begin
    let sorted = sort (fun (k1, _) (k2, _) -> cmp k1 k2) pairs in
    let key i = fst sorted.(i) in
    (* Group start indices. *)
    let starts =
      let buf = ref [] in
      for i = n - 1 downto 0 do
        if i = 0 || cmp (key (i - 1)) (key i) <> 0 then buf := i :: !buf
      done;
      Array.of_list !buf
    in
    let m = Array.length starts in
    let out = Array.make m (key 0, [||]) in
    Runtime.parallel_for 0 m (fun g ->
        let lo = starts.(g) in
        let hi = if g + 1 < m then starts.(g + 1) else n in
        out.(g) <- (key lo, Array.init (hi - lo) (fun k -> snd sorted.(lo + k))));
    out
  end
