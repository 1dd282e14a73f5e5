(** Symmetric-matrix kernels for the projected SDP solver: one
    eigensolver, Householder tridiagonalization and implicit-shift QL
    (EISPACK [tred2]/[tql2]), O(n^3) with no iteration count to tune,
    on row-major [floatarray]s in caller-provided buffers. The dense
    [float array array] functions flatten, call it and unflatten, so
    the reference solver {!Sdp.solve_dense} runs the same eigensolver
    as {!Sdp.solve}. *)

val eigh : float array array -> float array * float array array
(** [eigh a] returns [(w, v)] with eigenvalues [w] (in no particular
    order) and orthonormal eigenvectors as the ROWS of [v] ([v.(j).(i)]
    is component i of eigenvector j), such that [a = v' diag(w) v].
    Only the upper triangle of [a] is read; [a] is not modified. *)

val project_psd : float array array -> float array array
(** Nearest (Frobenius) positive-semidefinite matrix: negative
    eigenvalues clipped to zero. *)

val project_psd_flat :
  n:int ->
  src:floatarray ->
  work:floatarray ->
  v:floatarray ->
  w:floatarray ->
  dst:floatarray ->
  unit
(** [dst <- ] nearest-PSD projection of [src] (both n x n row-major).
    Only the upper triangle of [src] is read; [dst] is exactly
    symmetric bit-for-bit (upper triangle mirrored). [work] (n x n,
    clobbered) holds the tridiagonal reduction, [v] (n x n, clobbered)
    the eigenvectors as rows and [w] (n) the eigenvalues; the first n
    cells of [dst] serve as the tridiagonal's off-diagonal before
    [dst] is rebuilt; no two buffers may alias. Allocates nothing: each
    QL rotation updates two contiguous rows of [v], and only the
    eigenvectors the projection uses are back-transformed. *)
