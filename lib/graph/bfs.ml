(* Forward BFS with sequences — the paper's Figure 6, written once as a
   functor and instantiated with each of the three libraries.

   Each round flattens the out-neighbours of the frontier into
   (parent, child) pairs and keeps, via filterOp + compare-and-swap, the
   pairs that claim an unvisited child.  With block-delayed sequences the
   flattened pair sequence is never materialised and the filter packs only
   within blocks.

   The parents live in one flat [int array] (-1 = unclaimed), and
   [try_visit] reads the child's slot before it runs the CAS: a slot
   only ever moves from -1 to a parent, so a set slot can never be
   claimed and needs no CAS.  The read changes no frontier — a vertex
   joins round d+1 iff it was unclaimed when round d began and an edge
   from round d reaches it — and the CAS still picks one claimant; it
   only spares the already-visited hubs a contended write per edge. *)

module Make (S : Bds_seqs.Sig.S) = struct
  let bfs (g : Csr.t) (source : int) : int array =
    let n = Csr.num_vertices g in
    let parents = Array.make n (-1) in
    let out_pairs u =
      S.tabulate (Csr.degree g u) (fun k -> (u, Csr.neighbor g u k))
    in
    let try_visit (u, v) =
      if parents.(v) = -1 && Bds_runtime.Int_cas.compare_and_set parents v (-1) u
      then Some v
      else None
    in
    let rec search frontier =
      if S.length frontier = 0 then ()
      else begin
        let edges = S.flatten (S.map out_pairs frontier) in
        let next = S.filter_op try_visit edges in
        search next
      end
    in
    (match try_visit (source, source) with
    | Some _ -> ()
    | None -> assert false);
    search (S.tabulate 1 (fun _ -> source));
    parents
end

module Array_version = Make (Bds_seqs.Impl_array)
module Rad_version = Make (Bds_seqs.Impl_rad)
module Delay_version = Make (Bds_seqs.Impl_delay)

(* Validity check: a parents array is a correct BFS tree iff it has one
   slot per vertex, the reached set matches the reference, and every tree
   edge is an edge of [g] going from depth d to depth d+1 of the
   reference distances.  One pass over the CSR marks each vertex whose
   recorded parent has an edge to it. *)
let valid_parents (g : Csr.t) (source : int) (parents : int array) =
  let n = Csr.num_vertices g in
  Array.length parents = n
  && source >= 0 && source < n
  && parents.(source) = source
  &&
  let dist = Csr.bfs_distances g source in
  let has_edge = Array.make n false in
  for u = 0 to n - 1 do
    for e = g.offsets.(u) to g.offsets.(u + 1) - 1 do
      let v = g.targets.(e) in
      if parents.(v) = u then has_edge.(v) <- true
    done
  done;
  let ok = ref true in
  for v = 0 to n - 1 do
    if v <> source then begin
      match parents.(v) with
      | -1 -> if dist.(v) >= 0 then ok := false
      | u -> if not (has_edge.(v) && dist.(u) + 1 = dist.(v)) then ok := false
    end
  done;
  !ok
