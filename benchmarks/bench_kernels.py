"""Micro-benchmarks of the core algorithmic kernels (multi-round timings).

Unlike the experiment benches (single-round sweeps), these time the paper's
individual algorithms on fixed representative instances so solver-level
regressions are measurable.

Run as a script, it micro-benchmarks the **LU basis kernel**
(:class:`repro.lp.basis.LUBasis`: factorize, ftran, btran, rank-one update)
on optimal IP-3 bases across the E14 shapes, breaks the cold canonical LST
LP at 64×16 down into pricing, ftran, update and btran time under both
bases — the pseudo-forest basis the solver picks for it
(:class:`repro.lp.forest.ForestBasis`) and ``LUBasis``, forced by patching
the solver's basis choice inside this script — with the ratio of their
solve times, breaks the cold min-T LP that Theorem V.2's search solves at
24×8 and 64×16 down the same way under the GUB basis the solver picks for
it (:class:`repro.lp.gub.GUBBasis`) and ``LUBasis``, times the **model
build** of Theorem V.2 at the ``v2_exact``
and ``v2_large`` shapes (the :class:`~repro.core.programs.IP3Builder`, the
LST LP's integer rows, the kernel's construction from them and their float
image, each beside the same step from the keyed, rational rows), and writes
``BENCH_kernels.json`` to the repository root (mirrored under
``benchmarks/results/``; a run with ``--out`` elsewhere writes only that
file)::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--quick] [--seed S]

Every configuration gets :data:`WARMUP` untimed runs and :data:`REPEATS`
timed ones (three with ``--quick``), reported as median, min and
interquartile range; the configurations run in an order shuffled by
``--seed``.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import pytest

from repro import schedule_hierarchical, schedule_semi_partitioned, two_approximation
from repro.baselines import mcnaughton_schedule
from repro.core.hierarchical import allocate_loads
from repro.core.programs import build_ip3, minimal_fractional_T
from repro.lp.solve import solve_lp
from repro.rounding.lst import lst_round
from repro.workloads import (
    random_feasible_pair,
    random_hierarchical,
    random_semi_partitioned,
    rng_from_seed,
)


@pytest.fixture(scope="module")
def semi_fixture():
    rng = rng_from_seed(1001)
    inst = random_semi_partitioned(rng, n=48, m=8)
    assignment, T = random_feasible_pair(rng, inst)
    return inst, assignment, T


@pytest.fixture(scope="module")
def hier_fixture():
    rng = rng_from_seed(1002)
    inst = random_hierarchical(rng, n=32, m=12, split_probability=0.9)
    assignment, T = random_feasible_pair(rng, inst)
    return inst, assignment, T


def test_kernel_algorithm1_semi_partitioned(benchmark, semi_fixture):
    inst, assignment, T = semi_fixture
    schedule = benchmark(
        lambda: schedule_semi_partitioned(inst, assignment, T, check_feasibility=False)
    )
    assert schedule.makespan() <= T


def test_kernel_algorithm2_load_allocation(benchmark, hier_fixture):
    inst, assignment, T = hier_fixture
    allocation = benchmark(lambda: allocate_loads(inst, assignment, T))
    assert allocation.T == T


def test_kernel_algorithm3_hierarchical_schedule(benchmark, hier_fixture):
    inst, assignment, T = hier_fixture
    schedule = benchmark(
        lambda: schedule_hierarchical(inst, assignment, T, check_feasibility=False)
    )
    assert schedule.makespan() <= T


def test_kernel_exact_simplex_ip3(benchmark):
    rng = rng_from_seed(1003)
    inst = random_hierarchical(rng, n=10, m=5)
    _lo, hi = inst.trivial_bounds()
    lp = build_ip3(inst, hi)
    solution = benchmark(lambda: solve_lp(lp, backend="exact"))
    assert solution.is_optimal


def test_kernel_scipy_lp_ip3(benchmark):
    from repro.lp.scipy_backend import solve_standard_float
    from repro.lp.solve import scale_rows

    rng = rng_from_seed(1003)
    inst = random_hierarchical(rng, n=30, m=10)
    _lo, hi = inst.trivial_bounds()
    lp = build_ip3(inst, hi)
    coeff, senses, rhs, objective = lp.to_standard_rows()
    coeff, rhs, scales = scale_rows(coeff, rhs)
    # The float ceiling: HiGHS alone, no exact certification.
    solution = benchmark(
        lambda: solve_standard_float(coeff, senses, rhs, objective, scales)
    )
    assert solution.status == "optimal"


def test_kernel_lst_rounding(benchmark):
    rng = rng_from_seed(1004)
    n, m = 24, 6
    p = {
        j: {i: int(rng.integers(1, 20)) for i in range(m)} for j in range(n)
    }
    from repro.baselines import minimal_unrelated_T

    T = minimal_unrelated_T(p, backend="hybrid")
    mapping = benchmark(lambda: lst_round(p, T, backend="hybrid"))
    assert len(mapping) == n


def test_kernel_two_approximation_end_to_end(benchmark):
    rng = rng_from_seed(1005)
    inst = random_hierarchical(rng, n=16, m=6)
    result = benchmark.pedantic(
        lambda: two_approximation(inst, backend="hybrid"), rounds=3, iterations=1
    )
    assert result.makespan <= result.bound


def test_kernel_mcnaughton(benchmark):
    rng = rng_from_seed(1006)
    lengths = [int(rng.integers(1, 100)) for _ in range(2000)]
    T, schedule = benchmark(lambda: mcnaughton_schedule(lengths, 64))
    assert schedule.makespan() == T


# ---------------------------------------------------------------------------
# LU basis kernel (factorize / ftran / btran / rank-one update)
# ---------------------------------------------------------------------------

#: E14 shapes the script-mode microbench sweeps (pytest uses the smallest).
LU_SHAPES = ((16, 6), (24, 8), (32, 10), (48, 12), (64, 16))

#: Untimed runs before, and timed runs of, every script-mode configuration.
WARMUP = 1
REPEATS = 7

#: The shape of the ``v2_exact`` perfbench workload, whose cold canonical LST
#: LP the per-step breakdown times.
LST_SHAPE = (64, 16)


def _lu_fixture(n, m, seed=140):
    """An optimal IP-3 basis at the top breakpoint, in kernel terms.

    Returns ``(solver, basis_columns)`` where *solver* is the revised
    driver's scaled-integer view of the LP and *basis_columns* are the
    sparse columns of an optimal basis — exactly what a warm-started probe
    factorizes, so the timings reflect production inputs, not random
    matrices.
    """
    from fractions import Fraction

    from repro.core.programs import IP3Builder
    from repro.lp.revised import _RevisedSolver, solve_standard, standard_form

    inst = random_hierarchical(rng_from_seed(seed), n=n, m=m)
    builder = IP3Builder(inst)
    coeff, senses, rhs, scales, active = builder.probe_rows(builder.breakpoints[-1])
    objective = [Fraction(0)] * len(active)
    std = standard_form(coeff, senses, rhs, objective, scales)
    solver = _RevisedSolver(std, objective, partial=False)
    result = solve_standard(coeff, senses, rhs, objective, scales)
    assert result.status == "optimal"
    return solver, [solver.cols[c] for c in result.basis]


def _measure(sample, repeats):
    """Run *sample* :data:`WARMUP` times untimed, then summarize *repeats* runs.

    *sample* returns one ``{op: value}`` dict per run.  A full garbage
    collection runs before every timed sample, so a generation-2
    collection of garbage left by earlier samples does not land inside a
    short timing.
    """
    import gc

    from _common import summary

    for _ in range(WARMUP):
        sample()
    runs = []
    for _ in range(repeats):
        gc.collect()
        runs.append(sample())
    return {op: summary([run[op] for run in runs]) for op in runs[0]}


def _lu_ops_sample(solver, basis_columns):
    """One wall-clock sample of the four kernel operations on a real basis."""
    import time

    from repro.lp.basis import LUBasis

    m = solver.m
    out = {}
    start = time.perf_counter()
    lub = LUBasis.factorize(m, basis_columns, solver.b_int)
    out["factorize_ms"] = (time.perf_counter() - start) * 1e3
    assert lub is not None

    sample = solver.cols[: min(len(solver.cols), 128)]
    start = time.perf_counter()
    for col in sample:
        lub.ftran(col)
    out["ftran_us"] = (time.perf_counter() - start) * 1e6 / len(sample)

    cb = {i: 1 for i in range(0, m, 3)}
    start = time.perf_counter()
    for _ in range(16):
        lub.btran(cb)
    out["btran_us"] = (time.perf_counter() - start) * 1e6 / 16

    # Update pairs: pivot a non-basic column in, then the displaced one
    # back (both legal exchanges), so the basis — and therefore the
    # per-op cost — is identical across iterations.
    basic = set()
    pairs = 0
    start = time.perf_counter()
    for col in solver.cols:
        if pairs >= 8:
            break
        alpha = lub.ftran(col)
        row = next(
            (r for r in range(m) if alpha[r] != 0 and r not in basic), None
        )
        if row is None:
            continue
        old = basis_columns[row]
        lub.update(row, alpha)
        lub.update(row, lub.ftran(old))
        basic.add(row)
        pairs += 1
    assert pairs
    out["update_ms"] = (time.perf_counter() - start) * 1e3 / (2 * pairs)
    return out


def _repr_bases(solver, basis_columns):
    """The factorized basis as stored, and its twin with every row dense.

    The sparse representation is whatever :class:`LUBasis` chose per row
    under :data:`~repro.lp.basis.DENSIFY_THRESHOLD`; the dense twin is the
    same factorization with every row brought up to the current den and
    expanded, so the delta is purely the representation's doing.
    """
    from repro.lp.basis import LUBasis, _to_dense

    m = solver.m
    sparse = LUBasis.factorize(m, basis_columns, solver.b_int)
    dense = LUBasis.factorize(m, basis_columns, solver.b_int)
    assert sparse is not None and dense is not None
    for i in range(m):
        row = dense.current_row(i)
        if type(row) is dict:
            dense.inv[i] = _to_dense(row, m)
    return sparse, dense


def _repr_ops_sample(solver, sparse, dense):
    """One sample of ftran/btran on sparse-as-factorized vs dense rows."""
    import time

    sample = solver.cols[: min(len(solver.cols), 128)]
    cb = {i: 1 for i in range(0, solver.m, 3)}
    out = {}
    for name, lub in (("sparse", sparse), ("dense", dense)):
        start = time.perf_counter()
        for col in sample:
            lub.ftran(col)
        out[f"ftran_{name}_us"] = (time.perf_counter() - start) * 1e6 / len(sample)
        start = time.perf_counter()
        for _ in range(16):
            lub.btran(cb)
        out[f"btran_{name}_us"] = (time.perf_counter() - start) * 1e6 / 16
    return out


def _collapse(inst):
    """The singleton times of *inst* as a ``job -> {machine: time}`` matrix."""
    from repro._fraction import is_inf

    return {
        j: {
            i: inst.p(j, frozenset([i]))
            for i in sorted(inst.machines)
            if not is_inf(inst.p(j, frozenset([i])))
        }
        for j in range(inst.n)
    }


def _lst_lp_rows(n, m, seed=140):
    """The LST assignment LP of ``Iu`` at ``T*`` as integer rows.

    Returns ``(coeff_rows, senses, rhs, objective, scales)``, what
    Theorem V.2 hands the kernel: the cold canonical solve it rounds, the
    hardest single solve of the E14 pipeline (wide, degenerate).
    """
    from repro.core.programs import IP3Builder, minimal_fractional_T
    from repro.rounding.lst import unrelated_rows

    inst = random_hierarchical(rng_from_seed(seed), n=n, m=m).with_singletons()
    builder = IP3Builder(inst)
    T = minimal_fractional_T(inst, backend="exact", builder=builder)
    coeff, senses, rhs, scales, pairs = unrelated_rows(builder.singleton_times(), T)
    return coeff, senses, rhs, [0] * len(pairs), scales


def _solve_lst(rows, canonical):
    from repro.lp.revised import solve_standard

    coeff, senses, rhs, objective, scales = rows
    return solve_standard(coeff, senses, rhs, objective, scales, canonical=canonical)


#: The model-build breakdown's shapes: those of ``v2_exact`` and ``v2_large``.
BUILD_SHAPES = ((64, 16), (96, 24))


def _build_fixture(n, m, seed=140):
    """The singleton extension of a seeded draw, its collapse and ``T*``."""
    from repro.core.programs import minimal_fractional_T

    inst = random_hierarchical(rng_from_seed(seed), n=n, m=m).with_singletons()
    return inst, _collapse(inst), minimal_fractional_T(inst, backend="exact")


def _build_sample(inst, p, T):
    """One sample of building Theorem V.2's LPs and handing them over.

    ``ip3_build_ms`` is the :class:`IP3Builder`.  For the LST LP at
    ``T*``: ``lst_rows_ms`` builds the integer rows from the builder's
    singleton times, ``kernel_init_ms`` the exact kernel from them
    (standard form and solver construction), ``float_image_ms`` the float
    image the HiGHS leg builds from them
    (:func:`~repro.lp.scipy_backend.float_entries`).  The
    ``*_rational_ms`` twins are the same steps from the keyed LP:
    ``build_unrelated_lp`` and its standard rows, then the rational entry's
    :func:`~repro.lp.solve.scale_rows` and the kernel.  The float image
    of the scaled rows is the one above.
    """
    import time

    from repro.core.programs import IP3Builder
    from repro.lp.revised import _RevisedSolver, standard_form
    from repro.lp.scipy_backend import float_entries
    from repro.lp.solve import scale_rows
    from repro.rounding.lst import build_unrelated_lp, unrelated_rows

    out = {}
    start = time.perf_counter()
    builder = IP3Builder(inst)
    out["ip3_build_ms"] = (time.perf_counter() - start) * 1e3

    start = time.perf_counter()
    coeff, senses, rhs, scales, pairs = unrelated_rows(builder.singleton_times(), T)
    out["lst_rows_ms"] = (time.perf_counter() - start) * 1e3
    objective = [0] * len(pairs)
    start = time.perf_counter()
    std = standard_form(coeff, senses, rhs, objective, scales)
    _RevisedSolver(std, objective, partial=False)
    out["kernel_init_ms"] = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    float_entries(coeff, scales, [sense == ">=" for sense in senses])
    out["float_image_ms"] = (time.perf_counter() - start) * 1e3

    start = time.perf_counter()
    coeff, senses, rhs, objective = build_unrelated_lp(p, T).to_standard_rows()
    out["lst_rows_rational_ms"] = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    coeff, rhs, scales = scale_rows(coeff, rhs)
    std = standard_form(coeff, senses, rhs, objective, scales)
    _RevisedSolver(std, objective, partial=False)
    out["kernel_init_rational_ms"] = (time.perf_counter() - start) * 1e3
    return out


def _pricing_pivots(rows):
    """Cold-solve pivot counts of both pricing rules on the LST LP.

    ``dantzig`` is what canonical solves price with, ``partial`` what
    probe-style (``canonical=False``) solves price with.
    """
    out = {}
    for pricing, canonical in (("dantzig", True), ("partial", False)):
        result = _solve_lst(rows, canonical)
        assert result.status == "optimal"
        out[f"pivots_{pricing}"] = result.pivots
    return out


#: The bases the LST step breakdown runs under: the pseudo-forest basis the
#: solver picks for the LST LP, and LUBasis forced in its place.
LST_BASES = ("forest", "lu")

#: The shapes of the cold min-T LP breakdown (``v2_small``'s larger shape
#: and ``v2_exact``'s), and the bases it runs under: the GUB basis the
#: solver picks for it, and LUBasis forced in its place.
MIN_T_SHAPES = ((24, 8), (64, 16))
MIN_T_BASES = ("gub", "lu")


def _min_t_lp_rows(n, m, seed=140):
    """The first min-T LP Theorem V.2's search solves, from seed *seed* up.

    Most draws are settled by the max-flow at ``B`` or a probe, so the seeds are
    tried in order until the search solves a min-T LP.  Returns
    ``(seed, (coeff_rows, senses, rhs, objective, scales))``: the LP the
    search hands the kernel, which the breakdown solves cold (no warm
    point) with the search's ``canonical=False`` pricing.
    """
    from repro.core.programs import IP3Builder, minimal_fractional_T

    for draw in range(seed, seed + 100):
        inst = random_hierarchical(rng_from_seed(draw), n=n, m=m).with_singletons()
        builder = IP3Builder(inst)
        programs = []
        min_T_rows = builder.min_T_rows

        def capture(r_anchor, t_low):
            program = min_T_rows(r_anchor, t_low)
            if program is not None:
                programs.append(program)
            return program

        builder.min_T_rows = capture
        minimal_fractional_T(inst, backend="exact", builder=builder)
        if programs:
            coeff, senses, rhs, scales, objective, _active = programs[0]
            return draw, (coeff, senses, rhs, objective, scales)
    raise AssertionError(f"no min-T LP in seeds {seed}..{seed + 99} at {n}x{m}")


def _step_sample(rows, basis, canonical):
    """One cold solve of *rows* on *basis*, timed per kernel step.

    Class-level wrappers time pricing, the dual row, and every ``ftran``
    and ``update`` of the solve; ``solve_ms`` is the whole
    ``solve_standard`` call, wrappers included.  Pricing is
    ``_RevisedSolver._entering`` and, on ``ForestBasis``,
    ``_entering_screened``, which holds every pricing step there: the
    screen's construction, its refresh of the moved duals, the exact
    pricing of its candidates, and the full pricing (with the lift of every
    dual to the current den) that starts each phase.  The dual row is
    ``btran`` and, on ``ForestBasis``, ``rederive``, which re-derives only
    the moved duals.  A wrapped call inside another call of the same step
    counts once; on ``GUBBasis`` only its own methods are wrapped, so the
    working basis' ``LUBasis`` calls count inside them.  ``basis="lu"``
    makes the solver pick ``LUBasis`` for the duration of the sample (no
    pseudo-forest, no GUB rows); every basis returns the same integers, so
    the pivots are identical.
    """
    import time

    from repro.lp import revised
    from repro.lp.basis import LUBasis
    from repro.lp.forest import ForestBasis
    from repro.lp.gub import GUBBasis
    from repro.lp.revised import _RevisedSolver, solve_standard

    cls = {"forest": ForestBasis, "gub": GUBBasis, "lu": LUBasis}[basis]
    totals = {"price_ms": 0.0, "ftran_ms": 0.0, "update_ms": 0.0, "btran_ms": 0.0}
    steps = (
        (_RevisedSolver, "_entering", "price_ms"),
        (_RevisedSolver, "_entering_screened", "price_ms"),
        (cls, "ftran", "ftran_ms"),
        (cls, "update", "update_ms"),
        (cls, "btran", "btran_ms"),
        (cls, "rederive", "btran_ms"),
    )
    # Only ForestBasis has rederive.
    wrapped = [step for step in steps if hasattr(step[0], step[1])]
    active = set()
    updates = [0]

    def timed(fn, key):
        def wrapper(*args, **kwargs):
            if key == "update_ms":
                updates[0] += 1
            if key in active:
                return fn(*args, **kwargs)
            active.add(key)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[key] += (time.perf_counter() - start) * 1e3
                active.discard(key)

        return wrapper

    patches = [(owner, name, timed(getattr(owner, name), key)) for owner, name, key in wrapped]
    if basis == "lu":
        patches += [(revised, "ForestBasis", LUBasis), (revised, "gub_rows", lambda row_items: [])]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        start = time.perf_counter()
        result = solve_standard(*rows, canonical=canonical)
        totals["solve_ms"] = (time.perf_counter() - start) * 1e3
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)
    assert result.status == "optimal"
    # Every pivot went through the timed basis.
    assert updates[0] == result.pivots
    totals["pivots"] = result.pivots
    totals["phase1_pivots"] = result.stats.phase1_pivots
    return totals


def _breakdown(steps, bases):
    """The per-basis step medians of one LP, with its pivot counts (which
    must agree across repeats and bases) split off."""
    counts = {
        key: {steps[basis].pop(key)["median"] for basis in bases}
        for key in ("pivots", "phase1_pivots")
    }
    assert all(len(values) == 1 for values in counts.values()), counts
    return {key: values.pop() for key, values in counts.items()}


def test_kernel_lu_basis_ops(benchmark):
    solver, basis_columns = _lu_fixture(*LU_SHAPES[0])
    from repro.lp.basis import LUBasis

    lub = benchmark(lambda: LUBasis.factorize(solver.m, basis_columns, solver.b_int))
    assert lub is not None and lub.den != 0


def lu_main(argv=None):
    """Script mode: emit BENCH_kernels.json across the E14 shapes."""
    import argparse
    import random

    from _common import write_bench_json

    parser = argparse.ArgumentParser(description="LU basis kernel microbench")
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    default_out = os.path.join(repo_root, "BENCH_kernels.json")
    parser.add_argument("--out", default=default_out)
    parser.add_argument(
        "--quick", action="store_true", help="two shapes and three repeats"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seeds the configuration order"
    )
    args = parser.parse_args(argv)
    repeats = 3 if args.quick else REPEATS

    shapes = LU_SHAPES[:2] if args.quick else LU_SHAPES
    fixtures = {shape: _lu_fixture(*shape) for shape in shapes}
    bases = {shape: _repr_bases(*fixtures[shape]) for shape in shapes}
    lst_rows = {shape: _lst_lp_rows(*shape) for shape in (*shapes, LST_SHAPE)}
    min_t = {shape: _min_t_lp_rows(*shape) for shape in MIN_T_SHAPES}
    builds = {shape: _build_fixture(*shape) for shape in BUILD_SHAPES}

    # Every timed configuration, run in a seeded random order so a drift in
    # machine speed over the run does not always land on the same shape.
    configs = [(kind, shape) for shape in shapes for kind in ("lu", "repr")]
    configs += [(f"lst-{basis}", LST_SHAPE) for basis in LST_BASES]
    configs += [(f"mint-{basis}", shape) for shape in MIN_T_SHAPES for basis in MIN_T_BASES]
    configs += [("build", shape) for shape in BUILD_SHAPES]
    order = list(configs)
    random.Random(args.seed).shuffle(order)
    measured = {}
    for kind, shape in order:
        if kind == "lu":
            sample = lambda: _lu_ops_sample(*fixtures[shape])  # noqa: E731
        elif kind == "repr":
            sample = lambda: _repr_ops_sample(fixtures[shape][0], *bases[shape])  # noqa: E731
        elif kind == "build":
            sample = lambda: _build_sample(*builds[shape])  # noqa: E731
        elif kind.startswith("mint-"):
            basis = kind[len("mint-"):]
            sample = lambda: _step_sample(min_t[shape][1], basis, False)  # noqa: E731
        else:
            basis = kind[len("lst-"):]
            sample = lambda: _step_sample(lst_rows[shape], basis, True)  # noqa: E731
        measured[kind, shape] = _measure(sample, repeats)

    rows = []
    for shape in shapes:
        solver, _ = fixtures[shape]
        sparse, _ = bases[shape]
        m = solver.m
        row = {
            "n": shape[0],
            "m": shape[1],
            "rows": m,
            "cols": len(solver.cols),
            "sparse_row_fraction": round(
                sum(1 for i in range(m) if type(sparse.inv[i]) is dict) / m, 4
            ),
            "mean_row_density": round(
                sum(sparse.row_density(i) for i in range(m)) / m, 4
            ),
            **_pricing_pivots(lst_rows[shape]),
            "ops": {**measured["lu", shape], **measured["repr", shape]},
        }
        rows.append(row)
        print(
            f"n={shape[0]:3d} m={shape[1]:3d} rows={m:4d} cols={len(solver.cols):5d}  "
            + "  ".join(
                f"{op}={v['median']}" for op, v in row["ops"].items()
            )
        )
    steps = {basis: measured[f"lst-{basis}", LST_SHAPE] for basis in LST_BASES}
    lst = {
        "n": LST_SHAPE[0],
        "m": LST_SHAPE[1],
        "rows": len(lst_rows[LST_SHAPE][0]),
        "cols": len(lst_rows[LST_SHAPE][3]),
        # Deterministic counts: identical in every repeat and under both bases.
        **_breakdown(steps, LST_BASES),
        "steps": steps["forest"],
        "steps_lu": steps["lu"],
        # Median LUBasis solve time over median pseudo-forest solve time.
        "lu_over_forest": round(
            steps["lu"]["solve_ms"]["median"]
            / steps["forest"]["solve_ms"]["median"],
            3,
        ),
    }
    for basis in LST_BASES:
        print(
            f"LST LP {LST_SHAPE[0]}x{LST_SHAPE[1]} {basis:6s} pivots={lst['pivots']}  "
            + "  ".join(f"{k}={v['median']}" for k, v in steps[basis].items())
        )
    print(f"LST LP lu/forest solve time: {lst['lu_over_forest']}x")
    min_t_rows = []
    for shape in MIN_T_SHAPES:
        draw, program = min_t[shape]
        steps = {basis: measured[f"mint-{basis}", shape] for basis in MIN_T_BASES}
        row = {
            "n": shape[0],
            "m": shape[1],
            "seed": draw,
            "rows": len(program[0]),
            "gub_rows": program[1].count("=="),
            "cols": len(program[3]),
            **_breakdown(steps, MIN_T_BASES),
            "steps": steps["gub"],
            "steps_lu": steps["lu"],
            # Median LUBasis solve time over median GUB solve time.
            "lu_over_gub": round(
                steps["lu"]["solve_ms"]["median"] / steps["gub"]["solve_ms"]["median"], 3
            ),
        }
        min_t_rows.append(row)
        for basis in MIN_T_BASES:
            print(
                f"min-T LP {shape[0]}x{shape[1]} {basis:6s} pivots={row['pivots']}  "
                + "  ".join(f"{k}={v['median']}" for k, v in steps[basis].items())
            )
        print(f"min-T LP {shape[0]}x{shape[1]} lu/gub solve time: {row['lu_over_gub']}x")
    model_build = []
    for shape in BUILD_SHAPES:
        inst, p, T = builds[shape]
        ops = measured["build", shape]
        model_build.append({"n": shape[0], "m": shape[1], "T": str(T), "ops": ops})
        print(
            f"model build {shape[0]}x{shape[1]}  "
            + "  ".join(f"{op}={v['median']}" for op, v in ops.items())
        )
    payload = {
        "family": "e14_scaling",
        "kernel": "LUBasis",
        "lst_kernels": ["ForestBasis", "LUBasis"],
        "min_t_kernels": ["GUBBasis", "LUBasis"],
        "config": {
            "seed": args.seed,
            "warmup": WARMUP,
            "repeats": repeats,
            "order": [f"{kind}:{n}x{m}" for kind, (n, m) in order],
            "stats": (
                "median, min and interquartile range over the repeats; "
                "a full gc.collect() runs before every timed repeat"
            ),
        },
        "rows": rows,
        "lst_step_breakdown": lst,
        "min_t_step_breakdown": min_t_rows,
        "model_build": model_build,
    }
    write_bench_json(args.out, default_out, payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(lu_main())
