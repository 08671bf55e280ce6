"""Generalized upper bounding: a basis that keeps (IP-3)'s assignment rows implicit.

The LPs of the ``T*`` search (probes, min-T LPs and the memory models'
side-row programs) have one assignment row ``Σ_α x_αj = 1`` per job: every
entry of such a row is ``+1``, and every column lies in at most one of
them.  Dantzig and Van Slyke's generalized upper bounding ("Generalized
upper bounding techniques", JCSS 1967) keeps such rows implicit and pivots
only a working basis the size of the other rows.  On the 64×16 min-T LP
that is 18–27 rows instead of 82–91, and the 64 assignment rows were the
bulk of every :class:`~repro.lp.basis.LUBasis` row update.

GUB rows
--------
A row is a *GUB row* when every non-zero entry of ``[A | S | I]`` in it is
``+1`` (:func:`gub_rows` takes them greedily in row order, keeping each
new row's support disjoint from the rows already taken).  Each GUB row
``g`` holds one basic **key** column; every other basic column is a
**non-key**.  With rows ordered (GUB, other) and columns (keys, non-keys)

    B = [[I, E], [K, N]],      S = N − K·E

where ``E[g][k] = 1`` when non-key ``k`` lies in row ``g``, ``K`` holds the
keys' entries in the other rows and ``N`` the non-keys'.  Column ``k`` of
the working basis ``S`` is non-key ``k``'s part in the other rows minus
its key's.  ``det B = det S``, and ``S`` (dimension ``f``, the number of
other rows) is kept as an :class:`LUBasis`, so ``den = |det S| = |det B|``.

Equal integers
--------------
Every quantity the revised simplex reads is the integer ``LUBasis``
returns for the whole basis, so no pivot, vertex, certificate or counter
changes (as with :class:`~repro.lp.forest.ForestBasis`):

* ``ftran(a)``: a non-key's entry is ``(W_S·ã)_k`` with ``ã = a_L − K·a_G``
  the column's *reduced* part; key ``g``'s is ``den·a_g − Σ_{k∈g} α_k``.
* ``btran(c_B)``: with ``c̃_k = c_k − c_{key(g(k))}``, the other rows'
  duals are ``c̃ᵀ·W_S``; GUB row ``g``'s is ``den·c_{key(g)} − y_L·K_g``.
* ``rhs``: a non-key's is ``S``'s own (``W_S·(b_L − K·b_G)``); key ``g``'s
  is ``den·b_g − Σ_{k∈g} rhs_k``.

Updates
-------
``update(r, α, col)`` has three cases, by what leaves at position ``r``:

* **A non-key leaves.**  The entering column takes its place in ``S``, whose
  update is ``LUBasis.update`` on the non-key part of ``α``.
* **A key leaves, and its row still holds a non-key ``c``.**  First ``c``
  becomes the key and the old key takes ``c``'s place in ``S``.  That
  changes ``S`` by a column operation ``S' = S·E`` with ``E = E⁻¹`` and
  ``det E = −1``: column ``c`` is negated and subtracted from the other
  non-keys of the row.  So ``den`` is unchanged and ``W_S ← E·W_S`` rewrites
  one row, ``W[c] ← −W[c] − Σ W[k']`` over the row's other non-keys, with
  ``rhs[c] ← den·b_g − Σ_{k∈g} rhs_k`` (the old key's value).  Then the
  first case applies.
* **A key leaves alone.**  The entering column must lie in the same row
  (else ``B`` would lose the row) and becomes its key.  ``S`` keeps every
  column, ``den`` is unchanged and ``rhs_S −= α_N·b_g``, since ``b_L − K·b_G``
  moved by the entering column's reduced part times ``b_g``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Set, Tuple

from ..exceptions import SolverError
from .basis import LUBasis, Row


def gub_rows(row_items: Sequence[Sequence[Tuple[int, int]]]) -> List[int]:
    """The rows a :class:`GUBBasis` keeps implicit, in row order.

    *row_items* holds each row's ``(column, entry)`` pairs of ``[A | S]``
    (an artificial is ``+1`` in its own row alone).  A row qualifies when
    its every non-zero entry is ``+1`` and its support misses every row
    already taken.
    """
    taken: Set[int] = set()
    rows: List[int] = []
    for i, items in enumerate(row_items):
        support = [j for j, a in items if a]
        if all(a == 1 for _j, a in items if a) and taken.isdisjoint(support):
            taken.update(support)
            rows.append(i)
    return rows


class GUBBasis:
    """A basis with implicit GUB rows and an ``LUBasis`` working basis
    (see the module docstring).

    Groups are indexed ``0..len(groups)-1`` (row ``groups[k]``); the other
    rows ``lrows`` index the working basis ``s``.  By basis position:
    ``spos[p]`` is the non-key's index in ``s`` (``-1`` for a key) and
    ``kgroup[p]`` a key's group (``-1`` for a non-key).  By working index:
    ``pos_of_s``, ``sgroup`` (``-1``: in no GUB row) and ``sload``, the
    column's entries in the other rows by their index.  By group:
    ``key_pos``, ``key_load`` and ``members``, the working indices of the
    row's non-keys.
    """

    kind = "gub"

    __slots__ = (
        "m", "updates", "s", "groups", "lrows", "lidx", "gidx", "gb",
        "spos", "kgroup", "pos_of_s", "sgroup", "sload", "key_pos",
        "key_load", "members", "_rhs",
    )

    def __init__(self, m: int, b: Sequence[int], groups: Sequence[int]):
        if len(b) != m:
            raise SolverError("rhs length must match the basis dimension")
        self.m = m
        self.updates = 0
        self.groups = list(groups)
        self.gidx = [-1] * m
        for k, g in enumerate(self.groups):
            self.gidx[g] = k
        self.lrows = [i for i in range(m) if self.gidx[i] < 0]
        self.lidx = [-1] * m
        for l, i in enumerate(self.lrows):
            self.lidx[i] = l
        self.gb = [b[g] for g in self.groups]
        # The identity basis: every row's own unit column at its position;
        # a GUB row's is its key, with no entry in the other rows.
        self.s = LUBasis(len(self.lrows), [b[i] for i in self.lrows])
        self.spos = list(self.lidx)
        self.kgroup = list(self.gidx)
        self.pos_of_s = list(self.lrows)
        self.sgroup = [-1] * len(self.lrows)
        self.sload: List[Dict[int, int]] = [{l: 1} for l in range(len(self.lrows))]
        self.key_pos = list(self.groups)
        self.key_load: List[Dict[int, int]] = [{} for _ in self.groups]
        self.members: List[Set[int]] = [set() for _ in self.groups]
        self._rhs = None

    @property
    def den(self) -> int:
        return self.s.den

    @property
    def rhs(self) -> List[int]:
        """``den·B⁻¹b`` by basis position, built once per pivot."""
        if self._rhs is None:
            rs = self.s.rhs
            out = [0] * self.m
            for p, v in zip(self.pos_of_s, rs):
                out[p] = v
            den = self.s.den
            for p, b, group in zip(self.key_pos, self.gb, self.members):
                v = den * b
                for t in group:
                    v -= rs[t]
                out[p] = v
            self._rhs = out
        return self._rhs

    def _split(self, col: Mapping[int, int]):
        """``(a_L, a_G)``: the column's non-zeros in the other rows, by
        their index, and in the GUB rows, as ``(group, entry)`` pairs."""
        lidx, gidx = self.lidx, self.gidx
        a_l: Dict[int, int] = {}
        ag: List[Tuple[int, int]] = []
        for i, a in col.items():
            if a:
                l = lidx[i]
                if l >= 0:
                    a_l[l] = a
                else:
                    ag.append((gidx[i], a))
        return a_l, ag

    def _reduced(self, col: Mapping[int, int]):
        """``(ã, a_G)``: the column's reduced part ``a_L − K·a_G`` by other-row
        index, and its GUB entries as ``(group, entry)`` pairs."""
        red, ag = self._split(col)
        for k, a in ag:
            for l, v in self.key_load[k].items():
                red[l] = red.get(l, 0) - a * v
        return red, ag

    # ------------------------------------------------------------------
    # Exact solves
    # ------------------------------------------------------------------

    def ftran(self, col: Mapping[int, int]) -> List[int]:
        """``den·B⁻¹a`` by basis position — ``LUBasis.ftran``'s integers."""
        red, ag = self._reduced(col)
        alpha_s = self.s.ftran(red)
        out = [0] * self.m
        key_pos, sgroup = self.key_pos, self.sgroup
        den = self.s.den
        for k, a in ag:
            out[key_pos[k]] = den * a
        for t, p in enumerate(self.pos_of_s):
            v = alpha_s[t]
            if v:
                out[p] = v
                k = sgroup[t]
                if k >= 0:
                    out[key_pos[k]] -= v
        return out

    def btran(self, basic_costs: Mapping[int, int]) -> List[int]:
        """``den·c_Bᵀ·B⁻¹`` by row — ``LUBasis.btran``'s integers."""
        spos, kgroup, members = self.spos, self.kgroup, self.members
        cs: Dict[int, int] = {}
        ck = [0] * len(self.groups)
        for p, c in basic_costs.items():
            if c:
                t = spos[p]
                if t >= 0:
                    cs[t] = cs.get(t, 0) + c
                else:
                    k = kgroup[p]
                    ck[k] = c
                    for u in members[k]:
                        cs[u] = cs.get(u, 0) - c
        y_s = self.s.btran(cs)
        out = [0] * self.m
        for i, y in zip(self.lrows, y_s):
            out[i] = y
        den = self.s.den
        for g, c, load in zip(self.groups, ck, self.key_load):
            v = den * c if c else 0
            for l, a in load.items():
                y = y_s[l]
                if y:
                    v -= y * a
            out[g] = v
        return out

    def row_dot(self, row: int, col: Mapping[int, int]) -> int:
        """Single transformed entry ``(den·B⁻¹a)[row]``."""
        red, ag = self._reduced(col)
        t = self.spos[row]
        if t >= 0:
            return self.s.row_dot(t, red)
        k = self.kgroup[row]
        v = self.s.den * sum(a for kk, a in ag if kk == k)
        for t in self.members[k]:
            v -= self.s.row_dot(t, red)
        return v

    # ------------------------------------------------------------------
    # Basis exchange
    # ------------------------------------------------------------------

    def update(self, row: int, alpha: Sequence[int], col: Mapping[int, int]) -> None:
        """Basis exchange pivoting on ``(row, alpha[row])``; *col* is the
        entering column (see the module docstring for the three cases)."""
        if alpha[row] == 0:
            raise SolverError("zero pivot element in basis update")
        self._rhs = None
        load, ag = self._split(col)
        k_in = ag[0][0] if ag else -1
        t = self.spos[row]
        if t < 0:
            k = self.kgroup[row]
            if not self.members[k]:
                # A lone key leaves: the entering column is the row's key.
                if k_in != k:
                    raise SolverError("singular exchange of a lone key")
                b = self.gb[k]
                if b:
                    rs = self.s.rhs
                    for u, p in enumerate(self.pos_of_s):
                        v = alpha[p]
                        if v:
                            rs[u] -= v * b
                self.key_load[k] = load
                self.updates += 1
                return
            t = self._swap_key(k, row)
        self.s.update(t, [alpha[p] for p in self.pos_of_s])
        old = self.sgroup[t]
        if old >= 0:
            self.members[old].discard(t)
        if k_in >= 0:
            self.members[k_in].add(t)
        self.sgroup[t] = k_in
        self.sload[t] = load
        self.updates += 1

    def _swap_key(self, k: int, row: int) -> int:
        """Make group *k*'s first non-key its key; the old key, at position
        *row*, takes that non-key's working index, which is returned."""
        s = self.s
        group = self.members[k]
        t = min(group)
        den = s.den
        rs = s.rhs
        rs[t] = den * self.gb[k] - sum(rs[u] for u in group)
        # W[t] ← −W[t] − Σ W[u] over the group's other non-keys.
        rows = [s.current_row(u) for u in group]
        if all(type(r) is dict for r in rows):
            acc: Dict[int, int] = {}
            for r in rows:
                for j, w in r.items():
                    acc[j] = acc.get(j, 0) - w
            new_row: Row = {j: w for j, w in acc.items() if w}
            if len(new_row) >= s._dense_at:
                dense = [0] * s.m
                for j, w in new_row.items():
                    dense[j] = w
                new_row = dense
        else:
            dense = [0] * s.m
            for r in rows:
                for j, w in (r.items() if type(r) is dict else enumerate(r)):
                    if w:
                        dense[j] -= w
            new_row = dense
        s.inv[t] = new_row
        s.stamp[t] = den
        # The non-key at working index t becomes the key, and the old key
        # a non-key at t.
        p_c = self.pos_of_s[t]
        self.key_pos[k] = p_c
        self.kgroup[p_c], self.spos[p_c] = k, -1
        self.kgroup[row], self.spos[row] = -1, t
        self.pos_of_s[t] = row
        self.key_load[k], self.sload[t] = self.sload[t], self.key_load[k]
        return t
