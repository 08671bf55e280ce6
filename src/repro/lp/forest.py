"""Pseudo-forest basis for LPs whose every column has at most two non-zeros.

The canonical LST LP that Theorem V.2 rounds (:mod:`repro.rounding.lst`)
has one assignment row per job and one load row per machine; a variable
``x_ij`` appears in exactly those two rows, and every slack and artificial
in one.  Such a constraint matrix is a *generalized network*: rows are
nodes, a two-entry column is an edge between its rows and a one-entry
column is a loop.  A basis of it is a pseudo-forest — every connected
component has as many basic columns as rows, so it is a spanning tree plus
exactly one more edge (Ahuja, Magnanti and Orlin, *Network Flows*,
ch. 15).  :class:`ForestBasis` stores that graph instead of an inverse:

    component = tree hung from a root node + one **root edge**

The root edge is a loop at the root (a slack, an artificial or a
single-entry structural column) or one extra two-entry column from the
root to a node ``w`` of the same tree, which closes a cycle.  Each non-root
node ``v`` keeps its parent, the basis position of the tree edge to it, and
that edge's entries ``c_v`` (in row ``v``) and ``p_v`` (in the parent's
row).

Equal integers
--------------
Every quantity the revised simplex reads is returned as the *same*
integer :class:`~repro.lp.basis.LUBasis` returns: ``den = |det B|`` of the
row-scaled integer system, ``rhs = den·B⁻¹b``, ``ftran(a) = den·B⁻¹a``,
``btran(c_B) = den·c_Bᵀ·B⁻¹`` and ``row_dot``.  Those integers are
canonical — functions of the basis alone — so pricing, the ratio test, the
crash and the Farkas certificates see identical numbers and every pivot is
unchanged.  ``den`` itself comes for free: after a pivot it is the pivot
element's absolute value (Cramer's rule), exactly as in ``LUBasis``.

``det B`` factors over components.  With ``C_k = Π c_v`` over a
component's non-root nodes, a loop root ``ℓ`` gives ``|det B_k| = |ℓ|·C_k``.
A cycle root with entries ``ℓ_r`` at the root and ``ℓ_w`` at ``w`` gives
``|det B_k| = |λ|·C_k`` with ``λ = ℓ_r + ℓ_w·g_w``, where
``g_w = Π_{u on w→root} (−p_u / c_u)`` is the gain of the tree path from
``w`` to the root.  The code keeps ``λ`` as ``Λ / C_w`` with ``C_w`` the
path's product of ``c_u``.

Operations
----------
``ftran(a)``
    Pushes each entry of *a* up its path to the root: edge ``e_v`` takes
    the demand arriving at ``v`` divided by ``c_v`` and hands
    ``−p_v`` times that to the parent.  A loop root takes what reaches the
    root over ``ℓ``; a cycle root takes it over ``λ`` and then pushes
    ``−ℓ_w`` times its own value up from ``w``.  Cost: the path lengths.
    Each step's division is exact because ``den`` holds every ``c_v`` of a
    loop-rooted component; a cycle-rooted one works at ``den·C_w`` and
    divides by ``C_w`` once at the end.
``btran(c_B)``
    Duals top-down: ``y_root = c_f / ℓ`` (or the cycle's ``λ`` solve), then
    ``y_v = (c_{e_v} − p_v·y_parent) / c_v``.  Only nodes a pivot moved
    since the last call are re-derived; every other dual is unchanged as a
    rational, so its den-scaled integer is rescaled by ``new_den/den``.
``update(r, α, col)``
    The leaving column at position ``r`` is cut out, which leaves one
    rootless tree; the entering column *col* (which must touch it, or the
    new basis would be singular) re-hangs it: as a new loop or cycle root,
    or under the other endpoint.  Cost: the size of the re-hung tree, plus
    the ``O(rows)`` rescale of ``rhs`` that ``LUBasis`` also pays.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Set, Tuple

from .._fraction import bigint
from ..exceptions import SolverError


class ForestBasis:
    """Pseudo-forest basis over rows-as-nodes (see module docstring).

    Node arrays, indexed by row: ``par`` (``-1`` for a root), ``pe`` (the
    basis position of the edge to the parent, or of the root edge), ``cv``
    (that edge's entry in this row), ``pv`` (its entry in the parent's row;
    for a cycle root, the root edge's entry at ``cyc``), ``cyc`` (a cycle
    root's other endpoint, ``-1`` for a loop) and ``kids``.  ``owner[p]``
    is the node whose ``pe`` is position ``p``.  ``rhs`` is eager and
    ``den > 0``, as in :class:`~repro.lp.basis.LUBasis`.
    """

    kind = "forest"

    __slots__ = (
        "m", "den", "rhs", "updates", "par", "pe", "cv", "pv", "cyc",
        "kids", "owner", "_lam", "_y", "_yden", "_ycosts", "_dirty",
    )

    def __init__(self, m: int, b: Sequence[int]):
        if len(b) != m:
            raise SolverError("rhs length must match the basis dimension")
        one = bigint(1)
        self.m = m
        self.den = one
        self.rhs: List[int] = [bigint(v) for v in b]
        self.updates = 0
        # The identity basis: every row its own component, rooted at a
        # unit loop in its own position.
        self.par: List[int] = [-1] * m
        self.pe: List[int] = list(range(m))
        self.cv: List[int] = [1] * m
        self.pv: List[int] = [0] * m
        self.cyc: List[int] = [-1] * m
        self.kids: List[List[int]] = [[] for _ in range(m)]
        self.owner: List[int] = list(range(m))
        #: Cycle roots' ``(Λ, C_w)``, computed on first use.
        self._lam: Dict[int, Tuple[int, int]] = {}
        # Cached den-scaled duals: their den, the costs they were derived
        # for, and the nodes a pivot moved since.
        self._y: List[int] = [0] * m
        self._yden = one
        self._ycosts: Dict[int, int] = {}
        self._dirty: Set[int] = set(range(m))

    # ------------------------------------------------------------------
    # Tree helpers
    # ------------------------------------------------------------------

    def _top(self, v: int) -> int:
        par = self.par
        while par[v] >= 0:
            v = par[v]
        return v

    def _cycle(self, r: int) -> Tuple[int, int]:
        """``(Λ, C_w)`` of the cycle root *r*: ``λ = Λ / C_w``."""
        cached = self._lam.get(r)
        if cached is None:
            par, cv, pv = self.par, self.cv, self.pv
            c_w = 1
            gain = 1
            u = self.cyc[r]
            while u != r:
                c_w *= cv[u]
                gain *= -pv[u]
                u = par[u]
            cached = (cv[r] * c_w + pv[r] * gain, c_w)
            self._lam[r] = cached
        return cached

    def _evert(self, x: int) -> None:
        """Make *x* the top of its tree by reversing the path above it."""
        par, pe, cv, pv, kids, owner = (
            self.par, self.pe, self.cv, self.pv, self.kids, self.owner,
        )
        u = x
        up = -1
        edge = (0, 0, 0)
        while u >= 0:
            nxt = par[u]
            pos, c_here, p_there = pe[u], cv[u], pv[u]
            par[u] = up
            if up >= 0:
                pe[u], cv[u], pv[u] = edge
                owner[edge[0]] = u
                kids[up].append(u)
            if nxt >= 0:
                kids[nxt].remove(u)
                # The edge u–nxt now hangs nxt below u.
                edge = (pos, p_there, c_here)
            up = u
            u = nxt

    def _subtree(self, top: int) -> List[int]:
        kids = self.kids
        out = [top]
        for v in out:
            out.extend(kids[v])
        return out

    # ------------------------------------------------------------------
    # Exact solves
    # ------------------------------------------------------------------

    def ftran(self, col: Mapping[int, int]) -> List[int]:
        """``den·B⁻¹a`` for a column *a* with at most two non-zeros."""
        out = [0] * self.m
        par, pe, cv, pv, cyc = self.par, self.pe, self.cv, self.pv, self.cyc
        den = self.den
        # Group the entries by component root.
        groups: Dict[int, List[Tuple[int, int]]] = {}
        for v, a in col.items():
            if a:
                groups.setdefault(self._top(v), []).append((v, a))
        for r, entries in groups.items():
            w = cyc[r]
            if w < 0:
                scale = 1
                k = den
            else:
                lam, scale = self._cycle(r)
                k = den * scale
            touched: List[int] = []
            residual = 0
            for v, a in entries:
                d = k * a
                while v != r:
                    c = cv[v]
                    x = d if c == 1 else d // c
                    pos = pe[v]
                    out[pos] += x
                    touched.append(pos)
                    d = -pv[v] * x
                    v = par[v]
                residual += d
            if w < 0:
                out[pe[r]] = residual // cv[r]
                continue
            t = residual // lam  # den·x_f, the cycle edge's true value
            out[pe[r]] = t
            d = -pv[r] * t * scale
            v = w
            while v != r:
                c = cv[v]
                x = d if c == 1 else d // c
                pos = pe[v]
                out[pos] += x
                touched.append(pos)
                d = -pv[v] * x
                v = par[v]
            if scale != 1:
                for pos in set(touched):
                    out[pos] //= scale
        return out

    def row_dot(self, row: int, col: Mapping[int, int]) -> int:
        """Single transformed entry ``(den·B⁻¹a)[row]``."""
        r = self._top(self.owner[row])
        if not any(a and self._top(v) == r for v, a in col.items()):
            return 0
        return self.ftran(col)[row]

    def btran(self, basic_costs: Mapping[int, int]) -> List[int]:
        """``den·c_Bᵀ·B⁻¹`` for a sparse basic-cost vector — den-scaled duals."""
        m = self.m
        par, pe, cv, pv, cyc, kids = (
            self.par, self.pe, self.cv, self.pv, self.cyc, self.kids,
        )
        den = self.den
        y = self._y
        dirty = self._dirty
        owner = self.owner
        old = self._ycosts
        # A changed cost reaches only the duals below its edge, which are
        # re-derived anyway when that edge's node moved.
        stale = len(dirty) == m
        if not stale:
            for pos, c in basic_costs.items():
                if old.get(pos, 0) != c and owner[pos] not in dirty:
                    stale = True
                    break
        if not stale:
            for pos, c in old.items():
                if c and pos not in basic_costs and owner[pos] not in dirty:
                    stale = True
                    break
        if stale:
            dirty = set(range(m))
        yden = self._yden
        if yden != den:
            for v in range(m):
                if y[v] and v not in dirty:
                    y[v] = y[v] * den // yden
        cost = basic_costs.get
        for top in dirty:
            up = par[top]
            if up >= 0 and up in dirty:
                continue
            if up >= 0:
                y[top] = (den * cost(pe[top], 0) - pv[top] * y[up]) // cv[top]
            else:
                c_f = cost(pe[top], 0)
                w = cyc[top]
                if w < 0:
                    y[top] = den * c_f // cv[top]
                else:
                    # y_w is affine in y_root with slope g_w: solve the root
                    # edge's equation for y_root at den·C_w.
                    lam, c_w = self._cycle(top)
                    k = den * c_w
                    path = []
                    v = w
                    while v != top:
                        path.append(v)
                        v = par[v]
                    a = 0
                    for v in reversed(path):
                        a = (k * cost(pe[v], 0) - pv[v] * a) // cv[v]
                    y[top] = (k * c_f - pv[top] * a) // lam
            stack = list(kids[top])
            while stack:
                v = stack.pop()
                c = cost(pe[v], 0)
                yp = y[par[v]]
                if c or yp:
                    y[v] = (den * c - pv[v] * yp) // cv[v]
                else:
                    y[v] = 0
                stack.extend(kids[v])
        self._dirty = set()
        self._yden = den
        self._ycosts = dict(basic_costs)
        return list(y)

    # ------------------------------------------------------------------
    # Basis exchange
    # ------------------------------------------------------------------

    def update(self, row: int, alpha: Sequence[int], col: Mapping[int, int]) -> None:
        """Basis exchange: *col* (with transform *alpha*) enters at *row*.

        ``rhs`` moves exactly as in :meth:`LUBasis.update
        <repro.lp.basis.LUBasis.update>`; the graph drops the leaving edge
        and re-hangs the rootless tree that leaves on *col*.
        """
        piv = alpha[row]
        if piv == 0:
            raise SolverError("zero pivot element in basis update")
        den = self.den
        rhs = self.rhs
        piv_rhs = rhs[row]
        negative = piv < 0
        new_den = -piv if negative else piv
        for i in range(self.m):
            if i == row:
                continue
            f = alpha[i]
            if f == 0:
                if new_den != den:
                    rhs[i] = rhs[i] * new_den // den
                continue
            if negative:
                f = -f
            rhs[i] = (rhs[i] * new_den - f * piv_rhs) // den
        if negative:
            rhs[row] = -piv_rhs
        self._exchange(row, [(v, a) for v, a in col.items() if a])
        self.den = new_den
        self.updates += 1

    def _exchange(self, pos: int, entries: List[Tuple[int, int]]) -> None:
        par, pe, cv, pv, cyc, kids, owner = (
            self.par, self.pe, self.cv, self.pv, self.cyc, self.kids,
            self.owner,
        )
        o = owner[pos]
        if par[o] < 0:
            # The root edge (loop or cycle edge) leaves: the whole
            # component is the rootless tree.
            top = o
            self._lam.pop(o, None)
        else:
            r = self._top(o)
            w = cyc[r]
            on_cycle = False
            if w >= 0:
                u = w
                while u != r:
                    if u == o:
                        on_cycle = True
                        break
                    u = par[u]
            kids[par[o]].remove(o)
            par[o] = -1
            if on_cycle:
                # A tree edge of the cycle leaves: the component stays
                # connected through the cycle edge, which becomes the tree
                # edge hanging w (and everything cut off with it) from r.
                self._evert(w)
                par[w] = r
                pe[w], cv[w], pv[w] = pe[r], pv[r], cv[r]
                owner[pe[r]] = w
                kids[r].append(w)
                cyc[r] = -1
                self._lam.pop(r, None)
                top = r
            else:
                top = o
        if len(entries) == 1:
            (x, a), = entries
            if self._top(x) != top:
                raise SolverError("singular basis update")
            self._evert(x)
            pe[x], cv[x], cyc[x] = pos, a, -1
        else:
            (x, a), (v, b) = entries
            x_in = self._top(x) == top
            v_in = self._top(v) == top
            if not x_in:
                if not v_in:
                    raise SolverError("singular basis update")
                x, a, v, b = v, b, x, a
            self._evert(x)
            pe[x], cv[x], pv[x] = pos, a, b
            if x_in and v_in:
                cyc[x] = v
                self._lam.pop(x, None)
            else:
                cyc[x] = -1
                par[x] = v
                kids[v].append(x)
        owner[pos] = x
        self._dirty.update(self._subtree(x))
