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
``btran(c_B)`` and ``rederive(c_B)``
    Duals top-down: ``y_root = c_f / ℓ`` (or the cycle's ``λ`` solve), then
    ``y_v = (c_{e_v} − p_v·y_parent) / c_v``.  ``rederive`` re-derives only
    the nodes a pivot moved since the last call and leaves them in
    ``moved`` (``None`` when it re-derived every node: the first call or
    new costs; within a phase only pivoted positions change cost, and
    their edges always moved); that is what lets the revised simplex
    reprice only the columns touching them.  Every other dual is unchanged
    as a rational and keeps its integer and the den it was written at.
    Cost: the moved subtrees.  ``btran`` is ``rederive`` plus ``duals()``,
    which brings every dual to the current den: one exact
    ``y·den // stamp`` per dual written at an older den, ``O(rows)``.
``update(r, α, col)``
    The leaving column at position ``r`` is cut out, which leaves one
    rootless tree; the entering column *col* (which must touch it, or the
    new basis would be singular) re-hangs it: as a new loop or cycle root,
    or under the other endpoint, and every node of it is marked moved for
    the next ``rederive``.  ``rhs`` moves as in ``LUBasis``, but only its
    entries with ``α_i ≠ 0`` are rewritten; the others change only by the
    factor ``new_den/den`` and keep their integers and stamps.  Cost: the
    size of the re-hung tree plus one scan of ``α``.

Stamped entries
---------------
Each ``rhs`` entry and each dual carries the den it was written at, the
``LUBasis`` stamping idiom: an entry ``v`` stamped ``s`` reads
``v·den // s`` now, an exact division because both are den-scaled
integers of one rational.  ``rhs_at(i)`` and ``dual(v)`` read one entry
(and store it back lifted); the ``rhs`` property and ``duals()`` lift every
entry, so they return the same integers ``LUBasis`` keeps eagerly.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..exceptions import SolverError


class ForestBasis:
    """Pseudo-forest basis over rows-as-nodes (see module docstring).

    Node arrays, indexed by row: ``par`` (``-1`` for a root), ``pe`` (the
    basis position of the edge to the parent, or of the root edge), ``cv``
    (that edge's entry in this row), ``pv`` (its entry in the parent's row;
    for a cycle root, the root edge's entry at ``cyc``), ``cyc`` (a cycle
    root's other endpoint, ``-1`` for a loop) and ``kids``.  ``owner[p]``
    is the node whose ``pe`` is position ``p``.  ``den > 0``, as in
    :class:`~repro.lp.basis.LUBasis`; ``rhs`` and the duals are stamped
    (see the module docstring).
    """

    kind = "forest"

    __slots__ = (
        "m", "den", "updates", "par", "pe", "cv", "pv", "cyc", "kids",
        "owner", "moved", "_lam", "_b", "_bs", "_y", "_ys", "_dirty",
    )

    def __init__(self, m: int, b: Sequence[int]):
        if len(b) != m:
            raise SolverError("rhs length must match the basis dimension")
        self.m = m
        self.den = 1
        # den-scaled rhs entries, each with the den it was written at.
        self._b: List[int] = list(b)
        self._bs: List[int] = [1] * m
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
        # Cached den-scaled duals, each with the den it was written at,
        # and the nodes a pivot moved since they were derived.
        self._y: List[int] = [0] * m
        self._ys: List[int] = [1] * m
        self._dirty: Set[int] = set(range(m))
        #: The nodes the last ``rederive`` re-derived; ``None`` for all.
        self.moved: Optional[Set[int]] = None

    # ------------------------------------------------------------------
    # Stamped entries
    # ------------------------------------------------------------------

    def _lift(self, vals: List[int], stamps: List[int], i: int) -> int:
        den = self.den
        if stamps[i] != den:
            vals[i] = vals[i] * den // stamps[i]
            stamps[i] = den
        return vals[i]

    def _lift_all(self, vals: List[int], stamps: List[int]) -> List[int]:
        den = self.den
        for i in range(self.m):
            if stamps[i] != den:
                vals[i] = vals[i] * den // stamps[i]
                stamps[i] = den
        return vals

    @property
    def rhs(self) -> List[int]:
        """``den·B⁻¹b``, every entry at the current den (the basis' own
        list: never write to it)."""
        return self._lift_all(self._b, self._bs)

    def rhs_at(self, i: int) -> int:
        """Entry *i* of ``rhs`` at the current den."""
        return self._lift(self._b, self._bs, i)

    def dual(self, v: int) -> int:
        """Node *v*'s den-scaled dual, as of the last ``rederive``."""
        return self._lift(self._y, self._ys, v)

    def duals(self) -> List[int]:
        """Every dual as of the last ``rederive``, at the current den (the
        basis' own list: never write to it)."""
        return self._lift_all(self._y, self._ys)

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
        """``den·c_Bᵀ·B⁻¹`` for a sparse basic-cost vector — den-scaled duals.

        :meth:`rederive`, then :meth:`duals`: every dual at the current
        den.  Returns the basis' own dual list: read it before the next
        call or pivot, and never write to it.
        """
        self.rederive(basic_costs)
        return self.duals()

    def rederive(
        self, basic_costs: Mapping[int, int], new_costs: bool = True
    ) -> Optional[Set[int]]:
        """Re-derive the duals a pivot moved for these basic costs.

        Pass ``new_costs=False`` only when every cost is the last call's
        except at positions pivoted in since; then only the moved duals
        are re-derived, otherwise all of them.  Sets and returns ``moved``
        (see the module docstring).  Every other dual is unchanged as a
        rational and keeps its integer and stamp; :meth:`dual` reads one at
        the current den.
        """
        m = self.m
        par, pe, cv, pv, cyc, kids = (
            self.par, self.pe, self.cv, self.pv, self.cyc, self.kids,
        )
        den = self.den
        y, ys = self._y, self._ys
        dirty = self._dirty
        # A changed cost reaches only the duals below its edge, which are
        # re-derived anyway when that edge's node moved: a pivot's own
        # position always has (update marks the entering edge's subtree).
        stale = new_costs or len(dirty) == m
        if stale:
            dirty = set(range(m))
        cost = basic_costs.get
        for top in dirty:
            up = par[top]
            if up >= 0 and up in dirty:
                continue
            if up >= 0:
                y_up = self.dual(up)
                y[top] = (den * cost(pe[top], 0) - pv[top] * y_up) // cv[top]
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
            ys[top] = den
            stack = list(kids[top])
            while stack:
                v = stack.pop()
                c = cost(pe[v], 0)
                yp = y[par[v]]
                if c or yp:
                    y[v] = (den * c - pv[v] * yp) // cv[v]
                else:
                    y[v] = 0
                ys[v] = den
                stack.extend(kids[v])
        self._dirty = set()
        self.moved = None if stale else dirty
        return self.moved

    # ------------------------------------------------------------------
    # Basis exchange
    # ------------------------------------------------------------------

    def update(self, row: int, alpha: Sequence[int], col: Mapping[int, int]) -> None:
        """Basis exchange: *col* (with transform *alpha*) enters at *row*.

        ``rhs`` moves exactly as in :meth:`LUBasis.update
        <repro.lp.basis.LUBasis.update>` (rows with ``alpha[i] == 0`` keep
        their stamped entries); the graph drops the leaving edge and
        re-hangs the rootless tree that leaves on *col*.
        """
        piv = alpha[row]
        if piv == 0:
            raise SolverError("zero pivot element in basis update")
        den = self.den
        b, bs = self._b, self._bs
        piv_rhs = self.rhs_at(row)
        negative = piv < 0
        new_den = -piv if negative else piv
        # Rows off the pivot's paths only rescale by new_den/den: they keep
        # their integers and stamps (rhs_at lifts them when read).
        for i, f in enumerate(alpha):
            if f and i != row:
                if negative:
                    f = -f
                b[i] = (self.rhs_at(i) * new_den - f * piv_rhs) // den
                bs[i] = new_den
        b[row] = -piv_rhs if negative else piv_rhs
        bs[row] = new_den
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
