(** Solver for the multiple-patterning coloring SDP
    (paper Eq. (2) for K = 4, Eq. (3) for general K):

    {v
      min   sum_(ij in CE) vi.vj  -  alpha * sum_(ij in SE) vi.vj
      s.t.  vi.vi = 1                    for all i
            vi.vj >= -1/(K-1)            for all ij in CE
    v}

    The paper uses CSDP; this repo substitutes two in-house methods (see
    DESIGN.md):

    - [Projected] (default for post-division piece sizes): projected
      subgradient on the Gram matrix X itself, with Dykstra alternating
      projections between the PSD cone (exact projection by a
      Householder + QL eigendecomposition, {!Symmetric}) and the box
      {diag = 1, X_ij >= -1/(K-1) on CE, |X_ij| <= 1}. The problem is
      convex, so this converges to the true SDP optimum.
    - [Lagrangian] (fallback for oversized pieces): low-rank
      Burer-Monteiro factorization optimized by Mixing-method coordinate
      descent, with augmented-Lagrangian multipliers for the conflict
      inequality.

    The production kernel runs on a flat row-major [floatarray] Gram
    with preallocated scratch (the iteration loop allocates nothing);
    {!solve_dense} keeps the boxed [float array array] loop as a
    reference that agrees bit-for-bit ([bench --kernels --check] and the
    qcheck parity property). *)

type problem = {
  n : int;  (** number of vertices *)
  conflict_edges : (int * int) array;
  stitch_edges : (int * int) array;
  k : int;  (** number of colors (>= 2); bound is -1/(k-1) *)
  alpha : float;  (** stitch weight (paper: 0.1) *)
}

type mode =
  | Auto  (** [Projected] up to {!projected_max} vertices, else [Lagrangian] *)
  | Projected
  | Lagrangian

val projected_max : int
(** 150. The solver's settings are fixed, the same for every piece of
    every run. [Auto] projects up to [projected_max] vertices.
    [Projected] runs [pg_iters] (60) steps of size [pg_step /. sqrt t]
    (0.6), each with [dykstra_rounds] (3) projection rounds (twice that
    in the final cleanup). [Lagrangian] uses [bm_rank k] =
    [max (k-1) 8] dimensions, up to [bm_sweeps] (60) sweeps per inner
    solve while a coordinate moves more than [bm_tol] (1e-4),
    [bm_outer_rounds] (12) dual updates of step [bm_dual_step] (1.0),
    and random start seed [bm_seed] (2014). *)

type solution = {
  gram : floatarray;  (** the solved Gram matrix X, row-major n x n *)
  gn : int;  (** row length of [gram] *)
  objective : float;  (** paper objective (2)/(3) value at X *)
  iterations : int;
      (** work performed: projected-gradient steps ([Projected]) or
          Mixing-method sweeps ([Lagrangian]) *)
}

val solve : ?mode:mode -> problem -> solution
(** [solve ?mode p] solves the relaxation ([mode] defaults to [Auto]),
    starting from the identity ([Projected]) or from seeded random unit
    vectors ([Lagrangian]). The [Projected] path runs the full step
    schedule and its output is bit-identical to {!solve_dense}. *)

val solve_dense : ?mode:mode -> problem -> solution
(** Reference implementation of the [Projected] kernel on boxed
    [float array array] matrices with per-iteration allocation — the
    original code path, kept for parity testing and [bench kernels].
    The [Lagrangian] mode is shared with {!solve} (it was always
    edge-sparse). The returned Gram is flattened for a uniform
    [solution] type. *)

val gram : solution -> int -> int -> float
(** [gram s i j] is [X_ij], clamped to [-1, 1]. *)

val ideal_offdiag : int -> float
(** [-1/(k-1)], the pairwise inner product of the K ideal color vectors
    (paper Fig. 3 for K = 4). *)
