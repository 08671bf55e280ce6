"""Fraction-free factorized basis for the revised exact simplex.

This is the general basis.  The solver picks by structure alone, first
match wins: when every column of ``[A | S | I]`` has at most two non-zeros
— the LST LP that Theorem V.2 rounds — the pseudo-forest basis of
:mod:`repro.lp.forest`; when some row has only ``+1`` entries — the
assignment rows of the search's LPs — the GUB basis of :mod:`repro.lp.gub`,
which keeps those rows implicit and runs this class on the other rows;
otherwise this class.  All three return the same integers after every
pivot (``den``, ``rhs``, ``ftran``, ``btran``, ``row_dot``; see
``tests/test_forest_basis.py`` and ``tests/test_gub_basis.py``), so the
choice moves no pivot.

A dense simplex tableau updates **every** column on every pivot —
``O(rows·cols)`` big-integer work per pivot, even though a simplex
iteration only ever reads one entering column and one cost row.  The
revised simplex (:mod:`repro.lp.revised`) instead maintains a
factorization of the *basis* alone; per-pivot work drops to ``O(rows²)``
plus the sparse pricing of candidate columns.

Representation
--------------
:class:`LUBasis` keeps the basis inverse in Edmonds' integer-preserving
form, the same arithmetic lrs uses for the full tableau:

    B⁻¹ = W / den,         W integer (rows² entries),  den > 0

where ``den = |det(B)|`` in the row-scaled integer system and ``W`` is the
correspondingly scaled adjugate.  Every entry of ``W`` (and of the
transformed right-hand side ``W·b``) is a minor of the original constraint
matrix — the classical Bareiss/Edmonds subdeterminant identity — so the
rank-one pivot update

    W'[i][j] = (W[i][j]·α_r − α_i·W[r][j]) / den        (i ≠ r)

divides **exactly**: no rational normalization, no gcd scans, and ``W``
after any pivot sequence is *canonical* (it depends only on the current
basis, not on the path taken to reach it).

Stamped rows
------------
A row with ``α_i = 0`` changes on a pivot only by the factor
``den'/den`` — ``O(nnz)`` big-integer work that, on the ~80-row bases of
the LST LP, most rows would pay on every pivot.  So rows are stored
lazily: ``stamp[i]`` is the ``den`` at which row ``i`` was last written,
and its current value is

    W[i] = inv[i] · den / stamp[i]

where the division is exact because both ``W[i]`` and ``inv[i]`` are
minors.  Only a row with ``stamp[i] == den`` is canonical; the stored
entries of any other row are that row's canonical entries at an earlier
``den``.  A pivot rewrites in full only the pivot row and the rows it
combines (``α_i ≠ 0``), at the new ``den``; the others keep their entries
and stamp.  ``rhs`` stays eager: every entry is current after every pivot.

Sparse rows
-----------
``W`` starts as the identity — one nonzero per row — and a pivot touches a
row's support only through the pivot row's support, so early in a solve
(and throughout phase 1, where the basis is mostly slacks/artificials)
most rows stay very sparse.  Each row of ``W`` is therefore stored as a
**dict of nonzeros** until its fill exceeds :data:`DENSIFY_THRESHOLD` of
the dimension, at which point it converts to a dense list for good (dense
scans of small integer lists beat dict overhead once fill is substantial,
and converting back and forth would churn).  ``ftran``/``btran``/
``row_dot``/``update`` all branch per row, so their cost tracks nnz while
sparsity lasts.  A row's layout and its stamp are independent: lifting a
row to the current ``den`` keeps its layout.

Operations
----------
``ftran(a)``
    Forward transform: the den-scaled tableau column ``W·a`` of a sparse
    column ``a`` — ``O(rows · nnz(a))``; each stale row's dot product is
    scaled once by ``den/stamp[i]``.
``btran(c_B)``
    Backward transform: the den-scaled dual row ``c_Bᵀ·W`` of a sparse
    basic-cost vector — ``O(nnz(c_B) · nnz(rows))``.  Rows it reads are
    lifted to the current ``den`` and stored (:meth:`LUBasis.current_row`;
    ``row_dot`` and ``row_items`` do the same).
``update(r, α)``
    Rank-one basis exchange given the already-ftran'd entering column α,
    pivoting on row ``r`` — ``O(Σ_{α_i ≠ 0} nnz(row_i))`` plus one integer
    rescale per other ``rhs`` entry, at worst ``O(rows²)``.
``factorize(columns, b)``
    Fraction-free elimination of an explicit column set straight into a
    factorized basis (Gauss–Jordan realized as ``rows`` ftran+update
    steps, i.e. the LU elimination with the L-factor applied through),
    ``O(rows³)`` and independent of the total column count.

Because the arithmetic is exact, periodic refactorization is *not* needed
for numerical hygiene: there is no drift to flush, and a from-scratch
factorization reproduces ``den`` and every row lifted to it bit-for-bit
(``W`` is canonical).  A basis is factorized from scratch only when it is
*given* rather than evolved: the solver's crash start
(:meth:`repro.lp.revised._RevisedSolver.crash_factorize`) eliminates a
warm point's support columns into the starting identity basis the same way —
this is how the hybrid backend certifies a float candidate — and the
solver counts each such crash in :class:`~repro.lp.stats.SolverStats`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Union

from ..exceptions import SolverError

#: A row of ``W``: dict-of-nonzeros while sparse, dense list once filled.
Row = Union[Dict[int, int], List[int]]

#: Fill fraction above which a sparse row converts to a dense list (and
#: stays dense).  Dict iteration costs ~3× a list scan per element in
#: CPython, so the crossover sits near 1/3.
DENSIFY_THRESHOLD = 0.34


class LUBasis:
    """Integer-preserving factorized basis inverse (see module docstring).

    ``inv`` holds the rows of ``W`` row-major (sparse dict rows or dense
    list rows), each as last written: row ``i`` reads
    ``inv[i]·den/stamp[i]`` at the current ``den``, and only rows with
    ``stamp[i] == den`` are canonical — read rows through
    :meth:`current_row`.  ``rhs`` holds the transformed right-hand side
    ``W·b`` eagerly (so the current basic values are always
    ``rhs[i] / den``); ``den > 0`` is maintained as an invariant so sign
    tests read directly off the integers.
    """

    kind = "lu"

    __slots__ = ("m", "den", "inv", "stamp", "rhs", "updates", "_dense_at")

    def __init__(self, m: int, b: Sequence[int]):
        if len(b) != m:
            raise SolverError("rhs length must match the basis dimension")
        self.m = m
        self.den = 1
        self.inv: List[Row] = [{i: 1} for i in range(m)]
        #: The ``den`` at which each row of ``inv`` was last written.
        self.stamp: List[int] = [1] * m
        self.rhs: List[int] = list(b)
        self.updates = 0
        # Densify once fill crosses the threshold; precomputed per instance.
        self._dense_at = max(2, int(DENSIFY_THRESHOLD * m) + 1)

    def current_row(self, i: int) -> Row:
        """Row ``i`` of ``W`` at the current ``den``, brought up and stored."""
        row = self.inv[i]
        st = self.stamp[i]
        den = self.den
        if st != den:
            if type(row) is dict:
                row = {j: w * den // st for j, w in row.items()}
            else:
                row = [w * den // st if w else 0 for w in row]
            self.inv[i] = row
            self.stamp[i] = den
        return row

    # ------------------------------------------------------------------
    # Exact solves
    # ------------------------------------------------------------------

    def ftran(self, col: Mapping[int, int]) -> List[int]:
        """``W·a`` for a sparse column *a* — the den-scaled tableau column."""
        items = [(k, v) for k, v in col.items() if v]
        cdict = dict(items)
        cget = cdict.get
        nitems = len(items)
        den = self.den
        out = []
        for row, st in zip(self.inv, self.stamp):
            s = 0
            if type(row) is dict:
                # Dot over the intersection: iterate whichever side is
                # smaller — deep in a sparse factorization rows often hold
                # fewer nonzeros than the incoming column.
                if len(row) < nitems:
                    for k, w in row.items():
                        v = cget(k)
                        if v is not None:
                            s += w * v
                else:
                    get = row.get
                    for k, v in items:
                        w = get(k)
                        if w is not None:
                            s += w * v
            else:
                for k, v in items:
                    w = row[k]
                    if w:
                        s += w * v
            if s and st != den:
                s = s * den // st  # exact: the product is a minor
            out.append(s)
        return out

    def btran(self, basic_costs: Mapping[int, int]) -> List[int]:
        """``c_Bᵀ·W`` for a sparse basic-cost vector — den-scaled duals."""
        out = [0] * self.m
        for i, c in basic_costs.items():
            if c == 0:
                continue
            row = self.current_row(i)
            if type(row) is dict:
                for j, w in row.items():
                    out[j] += c * w
            else:
                for j in range(self.m):
                    w = row[j]
                    if w:
                        out[j] += c * w
        return out

    # ------------------------------------------------------------------
    # Rank-one update
    # ------------------------------------------------------------------

    def update(
        self,
        row: int,
        alpha: Sequence[int],
        col: Optional[Mapping[int, int]] = None,
    ) -> None:
        """Basis exchange pivoting on ``(row, alpha[row])``.

        *alpha* is the entering column's forward transform (``ftran``
        output); the column *col* itself is not needed here.  Exactly the
        Edmonds tableau pivot restricted to the ``W | rhs`` block;
        divisions are exact by the minor identity.
        Rows with ``alpha[i] == 0`` only change by the factor
        ``new_den/den``, so they keep their stored entries and stamp; only
        their ``rhs`` entry is rescaled.  The sign of a negative pivot is
        folded into the rows written here, keeping ``den > 0``.
        """
        piv = alpha[row]
        if piv == 0:
            raise SolverError("zero pivot element in basis update")
        den = self.den
        m = self.m
        dense_at = self._dense_at
        inv, rhs, stamp = self.inv, self.rhs, self.stamp
        piv_row = self.current_row(row)
        piv_sparse = type(piv_row) is dict
        piv_rhs = rhs[row]
        negative = piv < 0
        new_den = -piv if negative else piv
        # Stale rows enter the combination as w·den/stamp; w·den·|piv| is
        # divisible by the stamp, so one exact division brings them up.
        lifted = den * new_den
        for i in range(m):
            if i == row:
                continue
            f = alpha[i]
            if f == 0:
                if new_den != den:
                    rhs[i] = rhs[i] * new_den // den
                continue
            if negative:
                f = -f
            w_row = inv[i]
            st = stamp[i]
            w_sparse = type(w_row) is dict
            if w_sparse and piv_sparse:
                if st == den:
                    acc: Dict[int, int] = {
                        j: w * new_den for j, w in w_row.items()
                    }
                else:
                    acc = {j: w * lifted // st for j, w in w_row.items()}
                get = acc.get
                for j, p in piv_row.items():
                    acc[j] = get(j, 0) - f * p
                new_row: Row = {}
                for j, v in acc.items():
                    if v:
                        new_row[j] = v // den
                if len(new_row) >= dense_at:
                    dense = [0] * m
                    for j, v in new_row.items():
                        dense[j] = v
                    new_row = dense
                inv[i] = new_row
            else:
                wr = w_row if not w_sparse else _to_dense(w_row, m)
                pr = piv_row if not piv_sparse else _to_dense(piv_row, m)
                if st == den:
                    inv[i] = [
                        (w * new_den - f * p) // den for w, p in zip(wr, pr)
                    ]
                else:
                    inv[i] = [
                        (w * lifted // st - f * p) // den
                        for w, p in zip(wr, pr)
                    ]
            stamp[i] = new_den
            rhs[i] = (rhs[i] * new_den - f * piv_rhs) // den
        if negative:
            if piv_sparse:
                inv[row] = {j: -w for j, w in piv_row.items()}
            else:
                inv[row] = [-w for w in piv_row]
            rhs[row] = -piv_rhs
        stamp[row] = new_den
        self.den = new_den
        self.updates += 1

    # ------------------------------------------------------------------
    # Factorization of an explicit basis
    # ------------------------------------------------------------------

    @classmethod
    def factorize(
        cls,
        m: int,
        columns: Sequence[Mapping[int, int]],
        b: Sequence[int],
    ) -> Optional["LUBasis"]:
        """Factorize an explicit set of ``m`` columns, or ``None`` if singular.

        Fraction-free elimination: each column is forward-transformed
        against the partial factorization and pivoted into the first still
        unclaimed row with a non-zero transformed entry (deterministic; any
        non-zero choice is exact).  ``O(m³)`` total.
        """
        if len(columns) != m:
            return None
        basis = cls(m, b)
        claimed = [False] * m
        for col in columns:
            alpha = basis.ftran(col)
            row = next(
                (r for r in range(m) if not claimed[r] and alpha[r] != 0), None
            )
            if row is None:
                return None  # linearly dependent on the columns placed so far
            basis.update(row, alpha)
            claimed[row] = True
        return basis

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def row_dot(self, row: int, col: Mapping[int, int]) -> int:
        """Single transformed entry ``(W·a)[row]`` — ``O(nnz(a))``."""
        inv_row = self.current_row(row)
        if type(inv_row) is dict:
            get = inv_row.get
            s = 0
            for k, v in col.items():
                if v:
                    w = get(k)
                    if w is not None:
                        s += w * v
            return s
        return sum(inv_row[k] * v for k, v in col.items() if v)

    def row_items(self, row: int):
        """Nonzero ``(col, value)`` pairs of ``W[row]`` in arbitrary order."""
        inv_row = self.current_row(row)
        if type(inv_row) is dict:
            return list(inv_row.items())
        return [(j, w) for j, w in enumerate(inv_row) if w]

    def row_density(self, row: int) -> float:
        """Fill fraction of a row (1.0 for dense-converted rows)."""
        inv_row = self.inv[row]
        if type(inv_row) is dict:
            return len(inv_row) / self.m if self.m else 0.0
        return 1.0


def _to_dense(row: Dict[int, int], m: int) -> List[int]:
    out = [0] * m
    for j, w in row.items():
        out[j] = w
    return out
