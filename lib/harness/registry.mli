(** The benchmark registry: every §6 evaluation program plus the
    extension applications, with input generation separated from the
    measured kernels. *)

type version = { vname : string; run : unit -> unit }

type bench = {
  name : string;
  default_size : int;
  describe : int -> string;
  prepare : int -> version list;
      (** Generate the input once; the returned closures run the kernel
          in each library version (in order: array, [rad], delay). *)
}

(** Paper label (Figure 12) for a version name: ["array"] is "A",
    ["rad"] is "R", ["delay"] is "Ours"; bench-specific names pass
    through unchanged. *)
val describe_version : string -> string

(** Result sinks, defeating dead-code elimination of benchmark bodies. *)
val sink_int : int ref

val sink_float : float ref

(** Figure 13's benchmarks: bestcut, bfs, bignum-add, primes, tokens. *)
val bid_benches : bench list

(** Figure 14's benchmarks: grep, integrate, linearrec, linefit, mcss,
    quickhull, sparse-mxv, wc. *)
val rad_benches : bench list

(** Extensions: inverted-index, raycast, sort. *)
val ext_benches : bench list

val all : bench list
val find : string -> bench option
