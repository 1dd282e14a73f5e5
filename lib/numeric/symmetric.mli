(** Symmetric-matrix kernels for the projected SDP solver.

    Two families share the same cyclic-Jacobi arithmetic:

    - the dense [float array array] functions — the original reference
      kernels, kept for tests, parity benchmarks ([bench kernels]) and
      small one-off uses;
    - the [_flat] functions — the production hot path, operating on a
      single row-major [floatarray] (unboxed, contiguous, no per-row
      indirection) with caller-provided scratch buffers so the solver's
      iteration loop performs no allocation. They execute the identical
      operation sequence as the dense kernels, so their results are
      bit-identical — a guarantee the decomposer relies on to keep
      colorings reproducible across the kernel swap.

    Sizes here are post-division component sizes (tens of vertices), so
    O(n^3) cyclic Jacobi is the right tool. *)

val eigh : float array array -> float array * float array array
(** [eigh a] returns [(w, v)] with eigenvalues [w] and orthonormal
    eigenvectors as the COLUMNS of [v] ([v.(i).(j)] is component i of
    eigenvector j), such that [a = v diag(w) v^T]. [a] is not modified. *)

val project_psd : float array array -> float array array
(** Nearest (Frobenius) positive-semidefinite matrix: negative
    eigenvalues clipped to zero. *)

val frobenius_distance : float array array -> float array array -> float

val project_psd_flat :
  n:int ->
  src:floatarray ->
  work:floatarray ->
  v:floatarray ->
  w:floatarray ->
  dst:floatarray ->
  unit
(** [dst <- ] nearest-PSD projection of [src] (both n x n row-major).
    [src] must be exactly symmetric; [dst] is exactly symmetric
    bit-for-bit (upper triangle accumulated, lower mirrored — exactly
    as {!project_psd} does). [work] is clobbered (the Jacobi working
    copy); [v] and [w] receive the eigendecomposition. [dst] must not
    alias [src] or [work]. Bit-identical to {!project_psd}. *)
