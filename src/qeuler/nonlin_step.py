"""One nonlinear amplitude-update step: operator construction, the exact
isometric step map, and the checks of ancilla post-selection.

For a degree-d map the transfer operator A sends the d-register product state
to the encoded image: A has one nonzero row per output index alpha, located at
the anchor basis state |alpha, 0, ..., 0>, with the symmetric tensor entry in
every column (k_1, ..., k_d) obtained by permuting a stored multi-index.
A is stored as the sorted nonzero triplets of B, the (n+1) x D matrix of
those rows (D = (n+1)^d), so it costs O(nnz) memory, and a product with B
costs O(nnz).

The coupling Hamiltonian acts on (register space) x (ancilla qubit) as

    H (w0, w1) = (i A^dag w1, -i A w0),

and the step applied here is the exact map  sqrt(I - eps^2 H^2) + i eps H,
which is unitary whenever eps ||H|| <= 1.  Since H^2 is block diagonal
(A^dag A on the ancilla-0 sector, A A^dag on the ancilla-1 sector) and both
blocks have rank <= n+1, the square roots are evaluated exactly through one
fixed function of the small (n+1) x (n+1) Gram matrix G = B B^dag:
g(G) with g(x) = -eps^2 / (1 + sqrt(1 - eps^2 x)), since
sqrt(1 - eps^2 x) = 1 + x g(x) (Higham, Functions of Matrices, SIAM 2008).
Set-up takes one eigendecomposition of G, in real arithmetic whenever G is
exactly real, as it is for real maps and for discrete NLS.  It gives the
spectral norm ||A|| = ||H|| and g(G), built in the Gram's own arithmetic,
and is then dropped: a step reads g(G) alone.

The set-up is O(nnz d! + sum_k c_k^2 + (n+1)^3) for c_k triplets in nonzero
column k: build_A expands the map's term arrays, the Gram matrix is
summed over the pairs of triplets that share a column, and eigh takes the
rest.  Neither the set-up nor a driver step allocates anything of length
D = (n+1)^d, so qstate.DEFAULT_DIM_CAP applies only where a joint state's
full amplitude vector is built.

Post-selecting ancilla = 1 leaves (up to normalisation) eps A w0: the image
state in register 1 with registers 2..d collapsed to |0...0>.

A step starts from the product state x^(x)d (x) |0> and changes it only
on the nonzero columns of B in sector 0 and at the n+1 anchors in sector 1,
through B x^(x)d, read from x at the column digits of B's terms in
O(nnz d), so it costs O(nnz d + (n+1)^2).  The drivers step on arrays,
B w0 -> eps B w0 -> the posterior (qstate.product_at, matvec_nonzero), and
check each block of steps on stacks: the sector-0 update u = g(G) B w0
from _correction, which takes one state or a stack of them, and the
squared norm ||B^dag u||^2 of the correction it makes, read as Re <u, G u>
through the Gram's nonzero triplets (StepOperator.gram_forms) on bins
stacked once per run.  The joint-norm check so reads g(G) against the
stored Gram and its cross term Re <B w0, u> against B; that gram() equals
B B^dag is verified by the tests, not at run time.  A noise study steps a
stack of perturbed trials through the same products, B w0 of the stack
from matvec_stack_inplace; it is the one step that takes a sector-1 input,
moved by G g(G) through G's triplets (_perturbed_trials).  apply_step, the
one product with B^dag, is the single-state step on a JointState from
qstate.tensor_power, written out in full.  A real map stepped from a real
state takes the drivers' products in float64: matvec_nonzero, _correction
and gram_forms follow the dtype of their input.

At small D the step is bound by fixed per-call costs, so each complex sum
over the triplets is one bincount over interleaved real and imaginary bins
(_bincount_complex).  Each bin sums its terms in the same order as a
separate real and imaginary bincount would, and the skipped terms are
exact zeros, so the outputs are bit-identical to computing every term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from ._util import ParameterError
from .polysys import MAX_EULER_DEGREE, PolynomialMap
from .qstate import (JointState, _check_joint_norm, _check_state_norm, _rowdot,
                     aligned_distances, product_at)

# A step refuses a rarer success branch: selecting it would take over 1e15
# copies per step, and renormalising it amplify roundoff over 3e7-fold.
PROBABILITY_FLOOR = 1e-15
# A step's probability lies in [0, 1] up to this slack.
PROBABILITY_SLACK = 1e-12
# AnchorOperator.gram sums at most this many pairs of triplets at once,
# about 38 MB of temporaries.
GRAM_CHUNK_PAIRS = 2 ** 18


def _interleaved(index: np.ndarray) -> np.ndarray:
    """The float bins (2 i, 2 i + 1) of each complex bin i in index.

    Written column by column: the broadcast 2 index[:, None] + (0, 1) takes
    2-6 times as long.
    """
    out = np.empty((index.shape[0], 2), dtype=np.intp)
    np.multiply(index, 2, out=out[:, 0])
    np.add(out[:, 0], 1, out=out[:, 1])
    return out.ravel()


def _bincount_complex(bins: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """out[i] = sum of weights[k] over index[k] == i, for complex weights and
    bins = _interleaved(index).

    One bincount sums the float64 view of weights (re, im, re, im, ...), so
    bin 2i collects the real and bin 2i+1 the imaginary parts of bin i's
    terms.  Each bin sums its terms in the order k runs, as a bincount of
    the real parts and one of the imaginary parts would, so the result is
    bit-identical to that two-bincount form, and its real part to the
    bincount of those real parts alone.
    """
    return np.bincount(bins, weights.view(np.float64), 2 * size).view(complex)


def _stacked(bins: np.ndarray, width: int, rows: int) -> np.ndarray:
    """Bins into `width` bins of one bincount (twice the complex bins of
    _bincount_complex, or the bins of a real bincount), repeated for `rows`
    rows with row r's shifted by width r."""
    return bins + np.arange(0, width * rows, width)[:, None]


def _check_key_range(n: int, degree: int) -> None:
    """Refuse sizes whose packed keys row * (n+1)^d + col pass int64.

    The largest key is (n+1)^(d+1) - 1; build_A and AnchorOperator both
    sort triplets by it.
    """
    if (n + 1) ** (degree + 1) > 2 ** 63:
        raise ParameterError("system", f"(n+1)^(d+1) = {(n + 1) ** (degree + 1)} "
                             "passes the int64 bound 2^63 on the operator's "
                             "packed (row, column) keys")


@dataclass(frozen=True)
class AnchorOperator:
    """The A matrix stored as COO triplets of its compressed rows.

    B has shape (n+1, D) with D = (n+1)^d; full-matrix row alpha lives at
    flat index alpha * (n+1)^(d-1).  B[rows[k], cols[k]] = vals[k]; the
    triplets are sorted by (row, col), unique and read-only.  col_of[k] is
    the position of cols[k] among the K sorted distinct columns, and
    term_digits[j] the j-th register digit of cols (k_1 first), from which
    B x^(x)d is read term by term.  row_bins is rows as the interleaved bins
    of _bincount_complex, built once here instead of in every product.
    real_vals holds vals as float64 when every imaginary part is zero, for
    the real products of matvec_nonzero, and is None otherwise.

    sparsity is the observed total sparsity s, the least even bound such
    that every row has at most s/2 nonzero columns and every column feeds at
    most s/2 rows (row 0 included, since the norm bound must cover it), and
    a_max the largest |entry|.
    """

    n: int
    degree: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    col_of: np.ndarray = field(init=False, repr=False, compare=False)
    term_digits: np.ndarray = field(init=False, repr=False, compare=False)
    row_bins: np.ndarray = field(init=False, repr=False, compare=False)
    real_vals: np.ndarray | None = field(init=False, repr=False, compare=False)
    sparsity: int = field(init=False, repr=False, compare=False)
    a_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_key_range(self.n, self.degree)
        rows = np.array(self.rows, dtype=np.intp)
        cols = np.array(self.cols, dtype=np.intp)
        vals = np.array(self.vals, dtype=complex)
        if not rows.shape == cols.shape == vals.shape or rows.ndim != 1:
            raise ValueError("rows, cols and vals must be 1-D arrays of one length")
        for name, arr, top in (("rows", rows, self.n), ("cols", cols, self.register_dim - 1)):
            if not 0 <= arr.min(initial=0) <= arr.max(initial=0) <= top:
                raise ValueError(f"{name} must lie in 0..{top}")
        keys = rows * self.register_dim + cols
        if (keys[1:] <= keys[:-1]).any():
            raise ValueError("triplets must be sorted by (row, col) and unique")
        # np.unique(cols, return_inverse=True) takes about twice as long
        ordered = np.sort(cols)
        distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
        col_of = np.searchsorted(distinct, cols)
        digits = np.array(np.unravel_index(cols, (self.n + 1,) * self.degree))
        for name, arr in (("rows", rows), ("cols", cols), ("vals", vals),
                          ("col_of", col_of), ("term_digits", digits),
                          ("row_bins", _interleaved(rows)),
                          ("real_vals", None if vals.imag.any() else vals.real.copy())):
            if arr is not None:
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        most = max(np.bincount(rows).max(initial=0), np.bincount(col_of).max(initial=0))
        object.__setattr__(self, "sparsity", 2 * int(most))
        object.__setattr__(self, "a_max", float(np.abs(vals).max(initial=0.0)))

    @property
    def register_dim(self) -> int:
        return (self.n + 1) ** self.degree

    @property
    def nnz(self) -> int:
        return self.vals.shape[0]

    def matvec_nonzero(self, w: np.ndarray) -> np.ndarray:
        """B u for w = u[cols], u read at each triplet's column: the n+1
        anchor-row entries of A u.  For u = x^(x)d, w is
        qstate.product_at(x, term_digits).  A float64 w of a real operator
        gives a float64 B u, the real part of the complex one bit for bit."""
        if self.real_vals is None or w.dtype != np.float64:
            return _bincount_complex(self.row_bins, self.vals * w, self.n + 1)
        return np.bincount(self.rows, self.real_vals * w, self.n + 1)

    def matvec_stack_inplace(self, w: np.ndarray, stacked: np.ndarray) -> np.ndarray:
        """matvec_nonzero of each row of a 2-D stack w, bit for bit, with
        stacked = stacked_row_bins(r) for some r >= len(w).  w must be a
        writable, C-ordered complex array: it is overwritten with the
        weights vals * w, so that they take no second buffer."""
        rows, size = w.shape[0], self.n + 1
        np.multiply(self.vals, w, out=w)
        return _bincount_complex(stacked[:rows].ravel(), w.ravel(),
                                 size * rows).reshape(rows, size)

    def stacked_row_bins(self, rows: int) -> np.ndarray:
        """The row_bins of matvec_stack_inplace for stacks of up to `rows`
        rows, row r's shifted by 2 (n+1) r for one bincount of the stack."""
        return _stacked(self.row_bins, 2 * (self.n + 1), rows)

    def gram(self) -> np.ndarray:
        """B B^dag, summed over the pairs of triplets that share a column.

        With the triplets taken column by column, rows ascending, each pair
        (p, q) of one column with p first adds v_p conj(v_q) at (rows[p],
        rows[q]), above the diagonal, and its conjugate at the mirrored bin;
        each triplet adds |v_p|^2 on the diagonal.  np.add.at adds the terms
        in pair order, GRAM_CHUNK_PAIRS pairs at a time, so each bin sums
        them as one bincount would at any chunk size, in O(sum_k c_k^2)
        time for c_k triplets in nonzero column k and O(nnz +
        GRAM_CHUNK_PAIRS) memory.  A mirrored bin sums the exact conjugates
        of its twin's terms in the same order, so the result is exactly
        Hermitian.
        """
        n1, conj = self.n + 1, self.vals.conj()
        # positions column by column; position i pairs with i + 1, ...,
        # ends[i] - 1, and its pairs end before stops[i] in pair order
        by_col = np.argsort(self.col_of, kind="stable")
        counts = np.bincount(self.col_of)
        ends = np.repeat(np.cumsum(counts), counts)
        stops = np.cumsum(ends - np.arange(self.nnz) - 1)
        shift = ends - stops
        total = int(stops[-1]) if self.nnz else 0
        # the Gram's float view, real and imaginary parts interleaved
        sums = np.zeros(2 * n1 * n1)
        np.add.at(sums, 2 * (n1 + 1) * self.rows, (self.vals * conj).real)
        for lo in range(0, total, GRAM_CHUNK_PAIRS):
            pairs = np.arange(lo, min(lo + GRAM_CHUNK_PAIRS, total))
            first = np.searchsorted(stops, pairs, side="right")
            p, q = by_col[first], by_col[pairs + shift[first]]
            rp, rq = self.rows[p], self.rows[q]
            upper = self.vals[p] * conj[q]
            bins = np.concatenate((rp, rq)) * n1 + np.concatenate((rq, rp))
            np.add.at(sums, _interleaved(bins),
                      np.concatenate((upper, upper.conj())).view(np.float64))
        return sums.view(complex).reshape(n1, n1)


def build_A(pmap: PolynomialMap) -> AnchorOperator:
    """Assemble the transfer operator for a polynomial map.

    Every distinct ordering of each stored multi-index receives the tensor
    entry, and row 0 carries the implicit unit entry at column (0, ..., 0) so
    the constant row propagates the anchor.  All d! orderings of every
    multi-index of the map's term arrays are expanded in one array, after
    row 0's entry, and repeated columns dropped.
    """
    n, d = pmap.n, pmap.degree
    if d > MAX_EULER_DEGREE:  # d! keys a term: one term took 784 MB at d = 10
        raise ParameterError("system", f"degree {d} exceeds maximum {MAX_EULER_DEGREE}")
    _check_key_range(n, d)
    D = (n + 1) ** d
    alphas, monos, entries = pmap.alphas, pmap.monos, pmap.entries
    orders = np.array(list(permutations(range(d))), dtype=np.intp)
    strides = (n + 1) ** np.arange(d - 1, -1, -1)
    keys = alphas[:, None] * D + monos[:, orders] @ strides
    keys, first = np.unique(np.concatenate(([0], keys.ravel())), return_index=True)
    rows, cols = np.divmod(keys, D)
    # first is 0 for row 0's entry and 1 + t * d! + (ordering) for term t
    vals = np.concatenate(([1.0], entries))[(first + len(orders) - 1) // len(orders)]
    return AnchorOperator(n, d, rows, cols, vals)


def _gram_matrix(op: AnchorOperator) -> np.ndarray:
    """The Gram matrix B B^dag in its own arithmetic: real when its
    imaginary part is exactly zero, as it is for real maps and for discrete
    NLS.  A Gram matrix that overflows is refused as a fault of the system;
    its overflow warnings are silenced, since the refusal reports it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = op.gram()
    if not np.isfinite(gram.diagonal()).all():  # as |G_jk|^2 <= G_jj G_kk
        raise ParameterError("system", "||H|| is not finite: the map's entries "
                             "overflow the Gram matrix B B^dag")
    return gram if gram.imag.any() else gram.real


def operator_norm(op: AnchorOperator, sing_sq: np.ndarray) -> tuple[float, float]:
    """(spectral norm of A, row/column-count norm bound s * a_max), for
    sing_sq the eigenvalues of the (n+1) x (n+1) Gram matrix B B^dag, which
    carries the nonzero spectrum of both A^dag A and A A^dag, as
    make_step_operator takes them: the norm is the largest singular value of
    A, the square root of the largest of them.
    """
    h_norm = math.sqrt(max(float(sing_sq.max()), 0.0))
    h_norm_bound = op.sparsity * op.a_max
    if h_norm > h_norm_bound * (1 + 1e-12):
        raise ValueError(
            f"computed norm {h_norm} exceeds sparsity bound {h_norm_bound}")
    return h_norm, h_norm_bound


def _g_of_gram(sing_sq: np.ndarray, W: np.ndarray, epsilon: float) -> np.ndarray:
    """g(G) = W diag(g) W^dag for the Gram eigendecomposition
    G = W diag(sing_sq) W^dag, real when W is.

    With x running over sing_sq, g is the cancellation-free
    g = (sqrt(1 - eps^2 x) - 1) / x = -eps^2 / (1 + sqrt(1 - eps^2 x)).
    g <= 0, so a real g(G) is built as -(V V^T) with V = W diag(sqrt(-g)),
    which numpy evaluates as one symmetric rank-k update.
    """
    eps2 = epsilon * epsilon
    g = -eps2 / (1.0 + np.sqrt(np.maximum(1.0 - eps2 * sing_sq, 0.0)))
    if np.iscomplexobj(W):
        return (W * g).dot(W.conj().T)
    V = W * np.sqrt(-g)
    g_gram = V.dot(V.T)
    np.negative(g_gram, out=g_gram)
    return g_gram


@dataclass(frozen=True)
class StepOperator:
    """Everything needed to apply one exact step for a fixed map and epsilon:
    the map, its operator A, epsilon, ||H|| and its bound s * a_max (see
    operator_norm), g_gram = g(G) of the Gram G = B B^dag (see
    _g_of_gram), the one function of G a step reads, and G's nonzero
    triplets G[gram_rows[k], gram_cols[k]] = gram_vals[k], sorted by (row,
    col) and in the Gram's own arithmetic, through which the checks read
    ||B^dag u||^2 = Re <u, G u> (gram_forms).
    """

    pmap: PolynomialMap
    A: AnchorOperator
    epsilon: float
    h_norm: float
    h_norm_bound: float
    g_gram: np.ndarray
    gram_rows: np.ndarray
    gram_cols: np.ndarray
    gram_vals: np.ndarray

    @property
    def degree(self) -> int:
        return self.A.degree

    def stacked_gram_bins(self, rows: int, dtype=complex) -> np.ndarray:
        """The bins of gram_forms for stacks of up to `rows` rows of dtype
        (complex, or float64 of a real Gram), shifted as
        AnchorOperator.stacked_row_bins shifts row_bins."""
        n1 = self.A.n + 1
        if np.dtype(dtype) == np.float64:
            return _stacked(self.gram_rows, n1, rows)
        return _stacked(_interleaved(self.gram_rows), 2 * n1, rows)

    def gram_matvec_stack(self, u: np.ndarray, stacked: np.ndarray) -> np.ndarray:
        """G u for each row of a 2-D stack u, with stacked =
        stacked_gram_bins(r) for some r >= len(u).

        G u is one bincount of the stack's weights gram_vals * u[gram_cols],
        written into the take's own buffer, so the stack costs rows x
        nnz(G) terms where B B^dag u would cost 2 rows x nnz(B) and a
        K-vector a row.  A float64 stack of a real Gram is summed in float64.
        """
        rows, size = u.shape[0], self.A.n + 1
        weights = u.take(self.gram_cols, axis=1)
        np.multiply(self.gram_vals, weights, out=weights)
        if weights.dtype == np.float64:
            gu = np.bincount(stacked[:rows].ravel(), weights.ravel(), size * rows)
        else:
            gu = _bincount_complex(stacked[:rows].ravel(), weights.ravel(), size * rows)
        return gu.reshape(rows, size)

    def gram_forms(self, u: np.ndarray, stacked: np.ndarray) -> np.ndarray:
        """Re <u, G u> = ||B^dag u||^2 for each row of a 2-D stack u, with
        stacked as for gram_matvec_stack."""
        return _rowdot(u, self.gram_matvec_stack(u, stacked))


def make_step_operator(pmap: PolynomialMap, epsilon: float | None = None) -> StepOperator:
    """Build A, its norms, and fix epsilon (default 0.9 / norm bound).

    One Gram eigendecomposition (the real symmetric eigh when B B^dag is
    real, the Hermitian one otherwise) gives both ||H|| and g(G), and is
    dropped; the Gram's nonzero triplets are read from the same dense
    matrix.  A Gram matrix that overflows, or a size whose packed operator
    keys pass int64, is refused as a fault of the system.
    """
    A = build_A(pmap)
    gram = _gram_matrix(A)
    # np.nonzero(gram) takes 3-4 times as long at OM n = 120
    gram_rows, gram_cols = np.divmod((gram != 0).ravel().nonzero()[0], A.n + 1)
    gram_vals = gram[gram_rows, gram_cols]
    sing_sq, W = np.linalg.eigh(gram)
    # freed here: kept alive until g(G) is built, it made the set-up at
    # OM n = 120 a quarter slower
    del gram
    h_norm, h_norm_bound = operator_norm(A, sing_sq)
    if epsilon is None:
        epsilon = 0.9 / h_norm_bound
    epsilon = float(epsilon)
    if not epsilon >= 0:
        raise ParameterError("epsilon", "epsilon must be non-negative")
    if not epsilon * h_norm <= 1.0 + 1e-12:
        raise ParameterError("epsilon",
            f"epsilon {epsilon} violates epsilon * ||H|| <= 1 (||H|| = {h_norm})")
    return StepOperator(pmap, A, epsilon, h_norm, h_norm_bound,
                        _g_of_gram(sing_sq, W, epsilon),
                        gram_rows, gram_cols, gram_vals)


def _check_epsilon(op: StepOperator, epsilon: float | None) -> None:
    """Refuse an explicit epsilon other than the operator's."""
    if epsilon is not None and epsilon != op.epsilon:
        raise ValueError(
            f"epsilon {epsilon} differs from the operator's epsilon {op.epsilon}")


def _correction(op: StepOperator, x: np.ndarray) -> np.ndarray:
    """g(G) x, for x in C^(n+1) or for each row of a stack of them
    (C-ordered).  Applied to B w0 it is the update of the product state's
    sector 0 that B^dag maps back onto the nonzero columns, and to the
    sector-1 anchors w1 it gives sqrt(I - eps^2 G) w1 = w1 + G g(G) w1 (see
    _perturbed_trials).

    One product with g(G).  A real x of a real g(G) is one real product
    x @ g(G), g(G) being symmetric.  A real g(G) acts on the real (n+1, 2)
    view of a complex x, or the (n+1, 2 rows) view of the stack's
    transpose, so a block costs one real product instead of two complex
    ones.
    """
    g_gram = op.g_gram
    if np.iscomplexobj(g_gram):
        return x.dot(g_gram.T)
    if x.dtype == np.float64:
        return x.dot(g_gram)
    cols = np.ascontiguousarray(x.T)
    out = g_gram.dot(cols.view(np.float64).reshape(cols.shape[0], -1))
    return np.ascontiguousarray(out.view(complex).reshape(cols.shape).T)


def apply_step(joint: JointState, op: StepOperator) -> JointState:
    """Apply the exact step map sqrt(I - eps^2 H^2) + i eps H to the product
    state (w0, w1) = (x^(x)d, 0) from tensor_power:

        w0' = sqrt(I - eps^2 A^dag A) w0 = w0 + B^dag g(G) B w0
        w1' = eps A w0 = eps B w0   (at the anchors)

    exactly (see the module docstring), unitary for eps ||H|| <= 1.  B w0 is
    taken as the drivers take it; the product's full vector is built once
    and the step written into it.  A stepped state is refused: it is
    post-selected, not stepped again.
    """
    A = op.A
    if joint.n != A.n or joint.d != A.degree:
        raise ValueError("joint state dimensions do not match the operator")
    if joint.stepped is not None:
        raise ValueError("sector 0 carries a step's correction; post-select "
                         "the stepped state instead of stepping it again")
    Bw0 = A.matvec_nonzero(product_at(joint.factor, A.term_digits))
    delta = _bincount_complex(_interleaved(A.col_of),
                              A.vals.conj() * _correction(op, Bw0).take(A.rows),
                              int(A.col_of.max()) + 1)
    amps = joint._product_vector()
    amps[A.cols] += delta[A.col_of]  # a column's terms all write its one sum
    # sector 1's anchors alpha (n+1)^(d-1), alpha = 0..n
    amps[A.register_dim::(A.n + 1) ** (A.degree - 1)] = op.epsilon * Bw0
    return JointState(joint.factor, joint.d, amps)


def _check_floor(probability) -> None:
    if not np.asarray(probability).min(initial=np.inf) >= PROBABILITY_FLOOR:
        raise ValueError(f"ancilla outcome 1 has zero probability {probability}")


def _check_collapse(residual, collapse_tol: float) -> None:
    if not np.asarray(residual).max(initial=-np.inf) <= collapse_tol:
        raise ValueError(
            f"registers 2..d failed to collapse to |0...0>: residual mass {residual}")


def _check_probability(probability) -> None:
    p, slack = np.asarray(probability), PROBABILITY_SLACK
    if not (p.min(initial=np.inf) >= -slack and p.max(initial=-np.inf) <= 1.0 + slack):
        raise ValueError(f"probability {probability} outside [0, 1]")


def norm_factors(probability, d: int, epsilon: float):
    """sqrt(2^(d-1) probability) / epsilon, for a success probability or an
    array of them: the root-mean-square norm of the padded image vector
    (1, F(z)) / sqrt(2), which equals 1 exactly for measure-preserving
    maps."""
    return np.sqrt(2.0 ** (d - 1) * probability) / epsilon


def image_norms(norm_factor):
    """sqrt(max(2 norm_factor^2 - 1, 0)), for a norm factor or an array of
    them: the plain image norm ||F(z)||, valid when the input was a fresh
    unit encoding.  float_power squares as Python's float ** 2 does;
    np.power and np.square round some squares the other way."""
    return np.sqrt(np.maximum(2.0 * np.float_power(norm_factor, 2) - 1.0, 0.0))


def _check_recurrence(step, delta, allowed) -> None:
    if not np.less_equal(delta, allowed * (1 + 1e-9) + 1e-12).all():
        raise ValueError(f"per-step error recurrence violated at step {step}: "
                         f"{delta} > gamma(3 delta + eta) = {allowed}")


def _check_bound(delta, bound: float) -> None:
    if not np.asarray(delta).max(initial=-np.inf) <= bound * (1 + 1e-9) + 1e-15:
        raise ValueError(f"accumulated error {delta} exceeds bound {bound}")


def _raise_first(checks: list, order) -> None:
    """Run each check of checks, a tuple (check, *args), once on its whole
    arrays; if one refuses, run them again at each (prefix, c, index) of
    order in turn, checks[c] with its array args read at index, and raise
    the first refusal after prefix: the error a loop over single values in
    that order meets first.  Each _check_* here and in qstate, and decode,
    refuses an array exactly when it refuses one of its values, NaN included."""
    try:
        for check, *args in checks:
            check(*args)
    except ValueError:
        for prefix, c, index in order:
            check, *args = checks[c]
            try:
                check(*(a[index] if isinstance(a, np.ndarray) else a for a in args))
            except ValueError as exc:
                raise ValueError(prefix + str(exc)) from None
        raise


def _product_rows(x: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """qstate.product_at for each row of a stack x, multiplied in its
    order."""
    out = x.take(digits[0], axis=1)
    for k in digits[1:]:
        out *= x.take(k, axis=1)
    return out


def _perturbed_trials(op: StepOperator, ideal: np.ndarray, directions: list,
                      eta: float, collapse_tol: float, gamma: float,
                      bound: float) -> tuple[np.ndarray, np.ndarray]:
    """A noise study's m perturbed steps of a stack of trials, one row per
    trial, from the ideal orbit's states ideal[0..m] and each trial's
    sector-1 direction u (euler_driver._sector1_direction); returns
    (deltas, posteriors), with deltas[k, j] = delta_{j+1} = distance(ideal
    [j+1], posterior j+1) and posteriors[k] the final posterior of trial k.

    Step j's input exp(i eta G) psi = cos(eta) psi + i sin(eta) u is held
    as the factor |cos eta|^(1/d) x and the sector-1 input s u, s = i
    sin(eta) (times -1 for a negative cos(eta), a global phase that
    post-selection drops).  u off the anchors passes every step unchanged,
    so it enters only through its mass, and the anchors' G g(G) s u, one
    stacked product with the sparse Gram (StepOperator.gram_matvec_stack),
    is the same at every step of a trial.  A step of the stack is then one
    B w0 (matvec_stack_inplace) and one g(G) product (_correction), as
    apply_step takes them for one state; the sector-0 correction's squared
    norm ||B^dag update||^2 is read through the sparse Gram
    (StepOperator.gram_forms), as the drivers read it.

    Every check a single-state step and the study run on a step (joint norm
    before and after, floor, collapse at collapse_tol, posterior norm,
    probability range, recurrence) and the closed-form bound run on arrays
    after the last step, and refuse a non-finite value.  If one refuses,
    _raise_first replays them trial by trial, step by step, and raises the
    error that loop meets first: the lowest failing trial, in it the lowest
    step, with that check's message.
    """
    A, eps, d = op.A, op.epsilon, op.degree
    m, trials = ideal.shape[0] - 1, len(directions)
    c = math.cos(eta)
    s = 1j * math.sin(eta) * math.copysign(1.0, c)
    scale = abs(c) ** (1.0 / d)
    anchors1 = s * np.array([u[0] for u in directions])
    eps_anchors1 = eps * anchors1
    off = s * np.array([u[2] for u in directions])
    off_mass = _rowdot(off, off)
    mass1 = _rowdot(anchors1, anchors1) + off_mass
    row_bins, gram_bins = A.stacked_row_bins(trials), op.stacked_gram_bins(trials)
    held = anchors1 + op.gram_matvec_stack(_correction(op, anchors1), gram_bins)
    state = np.broadcast_to(ideal[0], (trials, A.n + 1))
    product, cross, delta2, anchor2, post2, deltas = np.empty((6, m, trials))
    with np.errstate(all="ignore"):
        for j in range(m):
            factor = scale * state
            product[j] = _rowdot(factor, factor) ** d
            Bw0 = A.matvec_stack_inplace(_product_rows(factor, A.term_digits),
                                         row_bins)
            update = _correction(op, Bw0) - eps_anchors1
            # Re <w0, B^dag update> = Re <B w0, update>, as the drivers read it
            cross[j] = _rowdot(Bw0, update)
            delta2[j] = op.gram_forms(update, gram_bins)
            anchor1 = held + eps * Bw0
            anchor2[j] = _rowdot(anchor1, anchor1)
            # the posterior, rotated so that its anchor is real positive
            state = anchor1 / np.sqrt(anchor2[j])[:, None]
            head = state[:, :1]
            mag = np.abs(head)
            state *= np.divide(head.conj(), mag, out=np.ones_like(head), where=mag != 0)
            post2[j] = _rowdot(state, state)
            deltas[j] = aligned_distances(ideal[j + 1], state)
        probs = anchor2 + off_mass
        residual = off_mass / probs
    # the joint masses before and after each step
    mass_in = product + mass1
    mass_out = product + 2.0 * cross + delta2 + probs
    allowed = gamma * (3.0 * np.vstack((np.zeros(trials), deltas[:-1])) + eta)
    steps = np.broadcast_to(np.arange(1, m + 1)[:, None], deltas.shape)
    checks = [  # step j of trial k at (j, k), in the order a step runs them
        (_check_joint_norm, mass_in), (_check_joint_norm, mass_out),
        (_check_floor, probs), (_check_collapse, residual, collapse_tol),
        (_check_state_norm, post2), (_check_probability, probs),
        (_check_recurrence, steps, deltas, allowed),
        (_check_bound, deltas[-1], bound)]
    last = len(checks) - 1  # the bound, at k after trial k's last step
    _raise_first(checks, (("", c, (j, k) if c < last else k) for k in range(trials)
                          for j in range(m) for c in range(last + (j == m - 1))))
    return deltas.T, state
