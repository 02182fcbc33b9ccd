"""One nonlinear amplitude-update step: operator construction, the exact
isometric step map, and the checks of ancilla post-selection.

For a degree-d map the transfer operator A sends the d-register product state
to the encoded image: A has one nonzero row per output index alpha, located at
the anchor basis state |alpha, 0, ..., 0>, with the symmetric tensor entry in
every column (k_1, ..., k_d) obtained by permuting a stored multi-index.
Those rows form B, the (n+1) x D matrix (D = (n+1)^d).  A step never leaves
the symmetric subspace (Harrow, arXiv:1308.6595), so B is stored on it: one
triplet per (row, multiset M) of digits, with perm(M) = d! / prod r! the
orderings of M, B x^(x)d = sum_M perm(M) v_M prod_k x_k, B B^dag =
sum_M perm(M) v_M v_M^dag, and B^dag x the same at every ordering of M.
B costs O(nnz) memory for nnz the map's terms.

The coupling Hamiltonian acts on (register space) x (ancilla qubit) as

    H (w0, w1) = (i A^dag w1, -i A w0),

and the step applied here is the exact map  sqrt(I - eps^2 H^2) + i eps H,
which is unitary whenever eps ||H|| <= 1.  Since H^2 is block diagonal
(A^dag A on the ancilla-0 sector, A A^dag on the ancilla-1 sector) and both
blocks have rank <= n+1, the square roots are evaluated exactly through one
fixed function of the small (n+1) x (n+1) Gram matrix G = B B^dag:
g(G) with g(x) = -eps^2 / (1 + sqrt(1 - eps^2 x)), since
sqrt(1 - eps^2 x) = 1 + x g(x) (Higham, Functions of Matrices, SIAM 2008).
Set-up eigendecomposes G, in real arithmetic whenever G is exactly real, as
it is for real maps and for discrete NLS.  Two rows of G couple only when
their rows of B share a multiset, so a sparse map's G is block diagonal
(Orszag-McLaughlin at n = 120: row 0 and three 40-row cycles; the identity:
n+1 single rows).  One loop takes one eigh a block: the whole Gram is the
one block below GRAM_BLOCK_ROWS rows, each connected block (batched by
size) from there on.  The spectra give ||A|| = ||H|| and g(G), written
block by block in the Gram's own arithmetic, exactly zero between blocks,
and are then dropped: a step reads g(G) alone.

The set-up is O(nnz log nnz + sum_M c_M^2 + (n+1)^2 + sum_k s_k^3), with no
d! factor, for c_M triplets of multiset M and blocks of s_k rows: build_A
sorts the map's terms, gram() sums the pairs of triplets that share a
multiset into the dense Gram, and eigh takes the rest.  Neither
the set-up nor a driver step allocates anything of length D, so
qstate.DEFAULT_DIM_CAP applies only where a joint state's full amplitude
vector is built.

Post-selecting ancilla = 1 leaves (up to normalisation) eps A w0: the image
state in register 1 with registers 2..d collapsed to |0...0>.

A step starts from the product state x^(x)d (x) |0> and changes it only on
B's nonzero columns in sector 0 and at the n+1 anchors in sector 1, through
B x^(x)d, read from x at the sorted digits of B's multisets: O(nnz d +
(n+1)^2).  A driver's row and a noise study's stack of trials take it
through one body, B w0 -> eps B w0 (+ held sector-1 anchors) -> its norm
-> the phase-aligned posterior (_step_rows), and check it on stacks: the
joint mass (StepOperator.joint_mass) reads the sector-0 update u =
g(G) B w0 (_correction) and ||B^dag u||^2 = Re <u, G u> through the
Gram's nonzero triplets, so g(G) against the stored Gram and the cross
term Re <B w0, u> against B; that gram() equals B B^dag is verified by
the tests, not at run time.  apply_step is the single-state step on a
JointState from qstate.tensor_power, written out in full.  A real map
stepped from a real state takes the drivers' step in float64.

Every sum over triplets, B w, B^dag x and G u, of one row or of a stack of
rows, is one flat bincount (_sums on the bins of _bins).  At small D the
step is bound by fixed per-call costs, so a complex sum is one bincount
over interleaved real and imaginary bins.  Each bin sums its terms in the
same order as a separate real and imaginary bincount would, and the
skipped terms are exact zeros, so the outputs are bit-identical to
computing every term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import ParameterError
from .polysys import MAX_EULER_DEGREE, PolynomialMap
from .qstate import (JointState, _FLOAT64, _check_joint_norm, _check_state_norm,
                     _rowdot, aligned_distances, product_at, vector_norm)

# A step refuses a rarer success branch: selecting it would take over 1e15
# copies per step, and renormalising it amplify roundoff over 3e7-fold.
PROBABILITY_FLOOR = 1e-15
# A step's probability lies in [0, 1] up to this slack.
PROBABILITY_SLACK = 1e-12
# AnchorOperator.gram sums at most this many pairs of triplets at once,
# about 38 MB of temporaries.
GRAM_CHUNK_PAIRS = 2 ** 18
# make_step_operator's blocks are the Gram's connected blocks from this many
# rows n+1 on, and the whole Gram, one block, below it.  Swept
# in-process (2-vCPU x86-64 VM, one BLAS thread, median of 150 interleaved
# set-ups, whole Gram -> blocks) at n+1 = 32-33, 48-49, 63-65, 96-97,
# 121-129 and 192-193: OM with three cycles (n a multiple of 3) 49 -10%,
# 64 -13%, 97 -29%, 121 -35%, 193 -47%; OM with one cycle 33 +15%, 48
# +15%, 63 +11%, 96 +7%, 192 -2% (finding the blocks and row 0's own eigh
# buy nothing there); NLS on a cycle of n/2 vertices 33 +12%, 49 +4%, 65
# -5%, 97 -8%, 129 -15%, 193 -22%; the identity 32 +6%, 48 -19%, 64 -42%,
# 96 -59%, 128 -74%.
GRAM_BLOCK_ROWS = 64


def _interleaved(index: np.ndarray) -> np.ndarray:
    """The float bins (2 i, 2 i + 1) of each complex bin i in index.

    Written column by column: the broadcast 2 index[:, None] + (0, 1) takes
    2-6 times as long.
    """
    out = np.empty((index.shape[0], 2), dtype=np.intp)
    np.multiply(index, 2, out=out[:, 0])
    np.add(out[:, 0], 1, out=out[:, 1])
    return out.ravel()


def _bins(index: np.ndarray, size: int, rows: int = 1,
          real: bool = False) -> np.ndarray:
    """The flat bins of _sums for terms k summed into output index[k] of
    `size` outputs, for a stack of `rows` rows of terms, row r's shifted by
    r size outputs: index for float64 terms, and the interleaved float bins
    (2 i, 2 i + 1) of each output i for complex ones."""
    if not real:
        index, size = _interleaved(index), 2 * size
    return (index + np.arange(0, size * rows, size)[:, None]).ravel()


def _sums(vals: np.ndarray, terms: np.ndarray, bins: np.ndarray,
          size: int) -> np.ndarray:
    """The flat sums out[i] of vals[k] terms[k] over index[k] == i, for
    bins = _bins(index, ...) of terms' dtype and `size` outputs in all (a
    stack's rows times its outputs).  terms, a writable row or C-ordered
    stack of rows, is overwritten with the products, so that they take no
    second buffer.

    One bincount sums the products: float64 ones as they are, complex ones
    through their float64 view (re, im, re, im, ...), so that float bin 2i
    collects the real and 2i+1 the imaginary parts of output i.  Each bin
    sums its terms in the order k runs, as a bincount of the real parts and
    one of the imaginary parts would, so the result is bit-identical to that
    two-bincount form, and its real part to the bincount of those real parts
    alone.  The callers reshape a stack's sums.
    """
    np.multiply(vals, terms, out=terms)
    if terms.dtype == _FLOAT64:
        return np.bincount(bins, terms.ravel(), size)
    return np.bincount(bins, terms.view(np.float64).ravel(), 2 * size).view(complex)


def _check_key_range(n: int, degree: int) -> None:
    """Refuse sizes whose packed (row, col) keys, up to (n+1)^(d+1) - 1, pass int64."""
    if (n + 1) ** (degree + 1) > 2 ** 63:
        raise ParameterError("system", f"(n+1)^(d+1) = {(n + 1) ** (degree + 1)} "
                             "passes the int64 bound 2^63 on the operator's "
                             "packed (row, column) keys")


@dataclass(frozen=True)
class AnchorOperator:
    """The A matrix on the symmetric subspace: COO triplets of its
    compressed rows, one per (row, multiset) of digits.

    B has shape (n+1, D) with D = (n+1)^d; full-matrix row alpha lives at
    flat index alpha * (n+1)^(d-1).  Triplet k holds the entry vals[k] of
    row rows[k] at all perm[k] orderings of one multiset, whose sorted
    digits (k_1 <= ... <= k_d) give column cols[k] and term_digits[:, k];
    the triplets are sorted by (row, col), unique and read-only, and
    col_of[k] is the position of cols[k] among the K distinct multisets.
    B x^(x)d sums weights = perm * vals (as apply_map weighs counts *
    entries) times prod x[term_digits] by row, and B^dag x is the same at
    every ordering of a multiset.  real_weights is weights as float64 when
    every imaginary part is zero, else None.  sparsity and a_max are the
    expanded B's: the least even s such that every row has at most s/2
    nonzero columns (the sum of perm over its multisets) and every column
    feeds at most s/2 rows (those sharing its multiset), row 0 included,
    since the norm bound must cover it, and the largest |entry|.
    """

    n: int
    degree: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    perm: np.ndarray
    col_of: np.ndarray = field(init=False, repr=False, compare=False)
    term_digits: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    real_weights: np.ndarray | None = field(init=False, repr=False, compare=False)
    sparsity: int = field(init=False, repr=False, compare=False)
    a_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_key_range(self.n, self.degree)
        rows = np.array(self.rows, dtype=np.intp)
        cols = np.array(self.cols, dtype=np.intp)
        vals = np.array(self.vals, dtype=complex)
        perm = np.array(self.perm, dtype=float)
        if not rows.shape == cols.shape == vals.shape == perm.shape or rows.ndim != 1:
            raise ValueError("rows, cols, vals and perm must be 1-D arrays of one length")
        for name, arr, top in (("rows", rows, self.n), ("cols", cols, self.register_dim - 1)):
            if not 0 <= arr.min(initial=0) <= arr.max(initial=0) <= top:
                raise ValueError(f"{name} must lie in 0..{top}")
        keys = rows * self.register_dim + cols
        if (keys[1:] <= keys[:-1]).any():
            raise ValueError("triplets must be sorted by (row, col) and unique")
        digits = np.array(np.unravel_index(cols, (self.n + 1,) * self.degree))
        if (digits[1:] < digits[:-1]).any():
            raise ValueError("cols must be the columns of sorted multi-indices")
        # np.unique(cols, return_inverse=True) takes about twice as long
        ordered = np.sort(cols)
        distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
        col_of = np.searchsorted(distinct, cols)
        weights = perm * vals
        for name, arr in (("rows", rows), ("cols", cols), ("vals", vals), ("perm", perm),
                          ("col_of", col_of), ("term_digits", digits), ("weights", weights),
                          ("real_weights", None if vals.imag.any() else weights.real.copy())):
            if arr is not None:
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        most = max(np.bincount(rows, perm).max(initial=0), np.bincount(col_of).max(initial=0))
        object.__setattr__(self, "sparsity", 2 * int(most))
        object.__setattr__(self, "a_max", float(np.abs(vals).max(initial=0.0)))

    @property
    def register_dim(self) -> int:
        return (self.n + 1) ** self.degree

    @property
    def nnz(self) -> int:
        return self.vals.shape[0]

    def gram(self) -> np.ndarray:
        """B B^dag = sum_M perm(M) v_M v_M^dag over the multisets M.

        With the triplets taken multiset by multiset, rows ascending, each
        pair (p, q) of one multiset with p first adds weights[p] conj(v_q)
        at (rows[p], rows[q]) and its conjugate at the mirrored bin, and each
        triplet adds weights[p] conj(v_p) on the diagonal.  np.add.at adds
        the terms in pair order, GRAM_CHUNK_PAIRS pairs at a time, so each
        bin sums them as one bincount would at any chunk size, in O(sum_M
        c_M^2) time for c_M triplets of M and O(nnz + GRAM_CHUNK_PAIRS)
        memory.  The result is exactly Hermitian, and real when its
        imaginary part is exactly zero (real maps, discrete NLS).  A Gram
        that overflows is refused as a fault of the system, with its
        overflow warnings silenced.
        """
        n1, conj, weights = self.n + 1, self.vals.conj(), self.weights
        # positions multiset by multiset; position i pairs with i + 1, ...,
        # ends[i] - 1, and its pairs end before stops[i] in pair order
        by_col = np.argsort(self.col_of, kind="stable")
        counts = np.bincount(self.col_of)
        ends = np.repeat(np.cumsum(counts), counts)
        stops = np.cumsum(ends - np.arange(self.nnz) - 1)
        shift = ends - stops
        total = int(stops[-1]) if self.nnz else 0
        # the Gram's float view, real and imaginary parts interleaved
        sums = np.zeros(2 * n1 * n1)
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.at(sums, 2 * (n1 + 1) * self.rows, (weights * conj).real)
            for lo in range(0, total, GRAM_CHUNK_PAIRS):
                pairs = np.arange(lo, min(lo + GRAM_CHUNK_PAIRS, total))
                first = np.searchsorted(stops, pairs, side="right")
                p, q = by_col[first], by_col[pairs + shift[first]]
                rp, rq = self.rows[p], self.rows[q]
                upper = weights[p] * conj[q]
                bins = np.concatenate((rp, rq)) * n1 + np.concatenate((rq, rp))
                np.add.at(sums, _interleaved(bins),
                          np.concatenate((upper, upper.conj())).view(np.float64))
        gram = sums.view(complex).reshape(n1, n1)
        if not np.isfinite(gram.diagonal()).all():  # as |G_jk|^2 <= G_jj G_kk
            raise ParameterError("system", "||H|| is not finite: the map's entries "
                                 "overflow the Gram matrix B B^dag")
        return gram if gram.imag.any() else gram.real


def build_A(pmap: PolynomialMap) -> AnchorOperator:
    """Assemble the transfer operator for a polynomial map.

    Each of the map's canonical terms, one per (row, multiset), is one
    triplet: its row, the column of its sorted multi-index, its tensor
    entry and its ordering count (pmap.counts); row 0 carries the implicit
    unit entry at column (0, ..., 0), so the constant row propagates the
    anchor.  Sorting the packed keys is the whole assembly, O(nnz log nnz)
    at any degree.
    """
    n, d = pmap.n, pmap.degree
    if d > MAX_EULER_DEGREE:
        raise ParameterError("system", f"degree {d} exceeds maximum {MAX_EULER_DEGREE}")
    _check_key_range(n, d)
    D = (n + 1) ** d
    cols = pmap.monos @ (n + 1) ** np.arange(d - 1, -1, -1)
    keys = np.concatenate(([0], pmap.alphas * D + cols))
    order = keys.argsort()
    rows, cols = np.divmod(keys[order], D)
    return AnchorOperator(n, d, rows, cols, np.concatenate(([1.0], pmap.entries))[order],
                          np.concatenate(([1.0], pmap.counts))[order])


def operator_norm(op: AnchorOperator, sing_sq: np.ndarray) -> tuple[float, float]:
    """(spectral norm of A, row/column-count norm bound s * a_max), for
    sing_sq the eigenvalues of the (n+1) x (n+1) Gram matrix B B^dag (of
    all its blocks, in any order), which carries the nonzero spectrum of
    both A^dag A and A A^dag, as make_step_operator takes them: the norm is
    the largest singular value of A, the square root of the largest of them.
    """
    h_norm = math.sqrt(max(float(sing_sq.max()), 0.0))
    h_norm_bound = op.sparsity * op.a_max
    if h_norm > h_norm_bound * (1 + 1e-12):
        raise ValueError(
            f"computed norm {h_norm} exceeds sparsity bound {h_norm_bound}")
    return h_norm, h_norm_bound


def _g_of_gram(sing_sq: np.ndarray, W: np.ndarray, epsilon: float) -> np.ndarray:
    """g(G) = W diag(g) W^dag for the eigendecomposition G = W diag(sing_sq)
    W^dag of a Gram block, or of each block of a stack of blocks of one
    size (W of shape (k, s, s)), real when W is: one np.matmul either way.

    With x running over sing_sq, g is the cancellation-free
    g = (sqrt(1 - eps^2 x) - 1) / x = -eps^2 / (1 + sqrt(1 - eps^2 x)).
    g <= 0, so a real g(G) is built as -(V V^T) with V = W diag(sqrt(-g)),
    written over W, which np.matmul evaluates as one symmetric rank-k
    update a block, so it is exactly symmetric.
    """
    eps2 = epsilon * epsilon
    g = -eps2 / (1.0 + np.sqrt(np.maximum(1.0 - eps2 * sing_sq, 0.0)))[..., None, :]
    if np.iscomplexobj(W):
        return np.matmul(W * g, W.conj().swapaxes(-1, -2))
    V = np.multiply(W, np.sqrt(-g), out=W)
    g_gram = np.matmul(V, V.swapaxes(-1, -2))
    np.negative(g_gram, out=g_gram)
    return g_gram


def _gram_blocks(n1: int, rows: np.ndarray, cols: np.ndarray) -> list:
    """The blocks of the Gram's connected components, for its nonzero
    triplets' (rows, cols): one index per component size, G[index] the
    (k, s, s) stack of the k components of size s, rows ascending in each,
    or, for a lone component whose rows run consecutively, a slice and its
    (s, s) block.  G is zero between components.

    Each round hooks the label of each row, at first the row itself, to
    the least label among its neighbours' (min-label propagation), and
    then replaces every label by its label's as often as a chain of n1
    rows takes to reach its end (pointer jumping); the rounds stop when
    every nonzero G[r, c] joins rows of one label, each row's label then
    its component's least row.
    """
    label = np.arange(n1)
    while True:
        mine, theirs = label[rows], label[cols]
        if (mine == theirs).all():
            break
        np.minimum.at(label, mine, theirs)
        for _ in range((n1 - 1).bit_length()):
            label = label[label]
    # rows by component size, then component, then row
    size = np.bincount(label, minlength=n1)[label]
    order = np.lexsort((label, size))
    per_size = np.bincount(size)
    blocks, start = [], 0
    for s in np.flatnonzero(per_size).tolist():
        block = order[start:start + per_size[s]].reshape(-1, s)
        start += block.size
        if block.shape[0] == 1 and block[0, -1] - block[0, 0] == s - 1:
            blocks.append((slice(int(block[0, 0]), int(block[0, 0]) + s),) * 2)
        else:
            blocks.append((block[:, :, None], block[:, None, :]))
    return blocks


@dataclass(frozen=True)
class StepOperator:
    """Everything needed to apply one exact step for a fixed map and epsilon:
    the map, its operator A, epsilon, ||H|| and its bound s * a_max (see
    operator_norm), g_gram = g(G) of the Gram G = B B^dag, dense and written
    one block at a time (see make_step_operator and _g_of_gram), the one
    function of G a step reads, and G's nonzero triplets G[gram_rows[k],
    gram_cols[k]] = gram_vals[k], sorted by (row, col) and in the Gram's
    own arithmetic, through which the checks read ||B^dag u||^2 = Re <u,
    G u> (gram_forms).
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

    def gram_matvec_stack(self, u: np.ndarray, bins: np.ndarray) -> np.ndarray:
        """G u for each row of a 2-D stack u, with bins = _bins(gram_rows,
        n+1, r, real) for some r >= len(u), real when u is float64 (and so
        is the Gram): one _sums of the stack's weights gram_vals *
        u[gram_cols], written into the take's own buffer, so the stack
        costs rows x nnz(G) terms where B B^dag u would cost 2 rows x
        nnz(B) and a K-vector a row.  It is the one product with G, which
        the checks read and a polynomial in G would repeat."""
        weights = u.take(self.gram_cols, axis=1)
        gu = _sums(self.gram_vals, weights, bins[:weights.view(np.float64).size], u.size)
        return gu.reshape(u.shape)

    def gram_forms(self, u: np.ndarray, bins: np.ndarray) -> np.ndarray:
        """Re <u, G u> = ||B^dag u||^2 for each row of a 2-D stack u, with
        bins as for gram_matvec_stack."""
        return _rowdot(u, self.gram_matvec_stack(u, bins))

    def joint_mass(self, product, Bw0, u, probability, bins) -> np.ndarray:
        """The joint mass after a step of each row of a stack, from its input
        mass `product` and sector-0 update u: product + 2 Re <B w0, u> (for
        Re <w0, B^dag u>) + ||B^dag u||^2 (gram_forms) + probability."""
        return product + 2.0 * _rowdot(Bw0, u) + self.gram_forms(u, bins) + probability


def make_step_operator(pmap: PolynomialMap, epsilon: float | None = None) -> StepOperator:
    """Build A, its norms, and fix epsilon (default 0.9 / norm bound).

    A.gram() gives B B^dag in its own arithmetic, real or complex, and
    refuses its own overflow as a fault of the system, with numpy's
    overflow warnings silenced; build_A refuses likewise a size whose
    packed operator keys pass int64.  The Gram's nonzero triplets are read
    from the dense matrix.  GRAM_BLOCK_ROWS chooses the list of blocks
    alone: below it the whole Gram is the one block, from there on the
    connected blocks that _gram_blocks finds from the triplets.  One loop
    takes one eigh a block, the real symmetric eigh when the Gram is real,
    the Hermitian one otherwise; the spectra give ||H||, the square root of
    the largest eigenvalue of any block, and g(G), written block by block
    into zeros; the eigendecompositions are then dropped.
    """
    A = build_A(pmap)
    n1 = A.n + 1
    gram = A.gram()
    # np.nonzero(gram) takes 3-4 times as long at OM n = 120
    gram_rows, gram_cols = np.divmod((gram != 0).ravel().nonzero()[0], n1)
    gram_vals = gram[gram_rows, gram_cols]
    blocks = ([(slice(None),) * 2] if n1 < GRAM_BLOCK_ROWS
              else _gram_blocks(n1, gram_rows, gram_cols))
    spectra = [np.linalg.eigh(gram[index]) for index in blocks]
    sing_sq = np.concatenate([block_sq.ravel() for block_sq, _ in spectra])
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
    g_gram = np.zeros((n1, n1), dtype=spectra[0][1].dtype)
    for index, (block_sq, block_W) in zip(blocks, spectra):
        g_gram[index] = _g_of_gram(block_sq, block_W, epsilon)
    return StepOperator(pmap, A, epsilon, h_norm, h_norm_bound, g_gram,
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


def _step_rows(x: np.ndarray, parts: tuple, anchor1: np.ndarray, out: np.ndarray,
               held: np.ndarray | None = None):
    """One step of the success branch from a row x, or from each row of a
    2-D stack x, for parts = (B's digits as qstate.product_at takes them,
    its values in x's arithmetic, their _bins, eps): eps B w0 plus
    held (a sector-1 input's anchors after the step) into anchor1, and into
    out the posterior anchor1 / ||anchor1|| turned by conj(a0) / |a0|, so
    that its anchor a0 is real positive unless a0 = 0.  Returns B w0, shaped
    as anchor1, and the probability ||anchor1||^2.  Both divisions are
    products with reciprocals, so a float64 row rounds as the complex one
    and a stack's row as that row alone.  A row below PROBABILITY_FLOOR gets
    no posterior, for its caller to refuse; a stack's caller silences 1 / 0."""
    digits, vals, bins, epsilon = parts
    Bw0 = _sums(vals, product_at(x, digits), bins, anchor1.size)
    if anchor1.ndim > 1:
        Bw0 = Bw0.reshape(anchor1.shape)
    np.multiply(epsilon, Bw0, out=anchor1)
    if held is not None:
        anchor1 += held
    norm = vector_norm(anchor1)
    p = norm ** 2
    if out.ndim > 1:
        np.multiply(anchor1, (1.0 / norm)[:, None], out=out)
        a0 = out[:, :1]
        out *= np.where(a0 != 0, a0.conj() * (1.0 / np.abs(a0)), 1.0)
    elif p >= PROBABILITY_FLOOR:
        np.multiply(anchor1, 1.0 / norm, out=out)
        a0 = out.item(0)  # a Python scalar: its conjugate costs 1/15 of numpy's
        if a0 != 0:
            phase = a0.conjugate() * (1.0 / abs(a0))
            if phase != 1.0 or out.dtype != _FLOAT64:  # x * 1.0 = x in float64
                out *= phase
    return Bw0, p


def apply_step(joint: JointState, op: StepOperator) -> JointState:
    """Apply the exact step map sqrt(I - eps^2 H^2) + i eps H to the product
    state (w0, w1) = (x^(x)d, 0) from tensor_power:

        w0' = sqrt(I - eps^2 A^dag A) w0 = w0 + B^dag g(G) B w0
        w1' = eps A w0 = eps B w0   (at the anchors)

    exactly (see the module docstring), unitary for eps ||H|| <= 1.  B w0 is
    taken as the drivers take it; the product's full vector is built once
    and the step written into it, B^dag's sum of each multiset at every
    ordering of it.  A stepped state is refused: it is post-selected, not
    stepped again.
    """
    A = op.A
    if joint.n != A.n or joint.d != A.degree:
        raise ValueError("joint state dimensions do not match the operator")
    if joint.stepped is not None:
        raise ValueError("sector 0 carries a step's correction; post-select "
                         "the stepped state instead of stepping it again")
    n1, K = A.n + 1, int(A.col_of.max()) + 1
    Bw0 = _sums(A.weights, product_at(joint.factor, A.term_digits), _bins(A.rows, n1), n1)
    delta = _sums(A.vals.conj(), _correction(op, Bw0).take(A.rows), _bins(A.col_of, K), K)
    amps = joint._product_vector()
    # each register index finds its multiset by its digits, sorted by d - 1
    # bubble passes of minima and maxima (np.sort of d-digit columns takes
    # 20-40 times as long), one leading digit k_1 at a time
    shape, distinct = (n1,) * A.degree, np.empty(K, dtype=np.intp)
    distinct[A.col_of] = A.cols
    for k1, block in enumerate(amps[:A.register_dim].reshape(n1, -1)):
        index = np.arange(k1 * block.size, (k1 + 1) * block.size)
        digits = list(np.unravel_index(index, shape))
        for j in list(range(A.degree - 1)) * (A.degree - 1):
            digits[j:j + 2] = np.minimum(*digits[j:j + 2]), np.maximum(*digits[j:j + 2])
        multiset = np.ravel_multi_index(digits, shape)
        at = np.minimum(np.searchsorted(distinct, multiset), K - 1)
        hit = distinct[at] == multiset
        block[hit] += delta[at[hit]]
    # sector 1's anchors alpha (n+1)^(d-1), alpha = 0..n
    amps[A.register_dim::(A.n + 1) ** (A.degree - 1)] = op.epsilon * Bw0
    amps.flags.writeable = False  # taken over by the state, not copied
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
    so it enters only through its mass, and the anchors' s u + G g(G) s u
    are the same at every step.  A step of the stack is then the drivers'
    step with those anchors held (_step_rows, StepOperator.joint_mass), so
    at eta = 0, where the factor is x, every delta is exactly 0.

    Every check a single-state step and the study run on a step (joint norm
    before and after, floor, collapse at collapse_tol, posterior norm,
    probability range, recurrence) and the closed-form bound run on arrays
    after the last step, and refuse a non-finite value.  If one refuses,
    _raise_first replays them trial by trial, step by step, and raises the
    error that loop meets first: the lowest failing trial, in it the lowest
    step, with that check's message.
    """
    A, eps, d, n1 = op.A, op.epsilon, op.degree, op.A.n + 1
    m, trials = ideal.shape[0] - 1, len(directions)
    c = math.cos(eta)
    s = 1j * math.sin(eta) * math.copysign(1.0, c)
    scale = abs(c) ** (1.0 / d)
    anchors1 = s * np.array([u[0] for u in directions])
    eps_anchors1 = eps * anchors1
    off = s * np.array([u[2] for u in directions])
    off_mass = _rowdot(off, off)
    gram_bins = _bins(op.gram_rows, n1, trials)
    parts = (A.term_digits, A.weights, _bins(A.rows, n1, trials), eps)
    held = anchors1 + op.gram_matvec_stack(_correction(op, anchors1), gram_bins)
    anchor1, state = np.broadcast_to(ideal[0], (2, trials, n1)).copy()
    product, mass_out, probs, post2, deltas = np.empty((5, m, trials))
    with np.errstate(all="ignore"):
        for j in range(m):
            state *= scale  # the factor, overwritten by the posterior
            product[j] = _rowdot(state, state) ** d
            Bw0, p = _step_rows(state, parts, anchor1, state, held)
            probs[j] = p + off_mass
            update = _correction(op, Bw0) - eps_anchors1
            mass_out[j] = op.joint_mass(product[j], Bw0, update, probs[j], gram_bins)
            post2[j] = _rowdot(state, state)
            deltas[j] = aligned_distances(ideal[j + 1], state)
        residual = off_mass / probs
        # inf past the float range, as the bound is vacuous there
        allowed = gamma * (3.0 * np.vstack((np.zeros(trials), deltas[:-1])) + eta)
    mass_in = product + (_rowdot(anchors1, anchors1) + off_mass)
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
