(** R-MAT power-law random graphs (Chakrabarti, Zhan & Faloutsos, SDM
    2004) — the paper's BFS input class, with the standard skew
    parameters (a,b,c,d) = (0.57, 0.19, 0.19, 0.05).

    Generation is a pure function of (seed, scale, edge index), so graphs
    are deterministic and can be generated in parallel. *)

(** A graph with [2^scale] vertices and [num_edges] directed edges
    (self-loops and parallel edges possible, as in the standard model). *)
val generate : ?seed:int -> scale:int -> num_edges:int -> unit -> Csr.t
