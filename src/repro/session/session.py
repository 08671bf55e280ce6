"""The solver session: one façade owning defaults and the cache.

A :class:`Session` is the object every entry point routes through: it owns
the backend default (instead of threading ``backend=`` strings through
call chains) and consults one content-addressed
:class:`~repro.session.cache.SolveCache` before every solve.  It counts
cache hits and misses as every solve counts its pivots: through
:func:`~repro.lp.stats.record`, into whatever
:func:`~repro.lp.stats.collect_stats` scope or trace span is open (the
``--profile`` output reads such a scope).

Cache discipline: every cacheable entry point builds a
:class:`~repro.session.request.SolveRequest`, keys it under the current
:func:`~repro.session.canon.code_fingerprint`, and

* on a **hit** decodes the stored payload — byte-identical to what the cold
  solve wrote, Fractions exact — and performs **zero LP solves**;
* on a **miss** runs the cold path inside a stats scope, then records the
  canonical payload so the next identical request (this process or any
  later one) hits.

A fingerprint change (edited code, or a deliberate
``REPRO_FINGERPRINT_SALT``) changes every key, so exactly the stale
generation stops hitting; its records remain in the store for
``records(fingerprint="*")`` forensics.

The future service daemon is a thin wrapper over this class: accept a
request, look it up, solve on miss, stream the payload.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..core.instance import Instance
from ..lp.solve import _resolve_backend
from ..lp.stats import SolverStats, collect_stats, record
from ..obs.trace import span as trace_span
from .cache import SolveCache
from .canon import code_fingerprint, frac_to_str, str_to_frac
from .request import SolveRequest

#: Process-wide default cache (``repro … --cache PATH`` sets it); ``None``
#: means sessions run uncached unless given a cache explicitly.
_default_cache: Optional[SolveCache] = None


def _check_cache(cache: object) -> None:
    """Raise ``TypeError`` unless *cache* is ``None``, a path or a cache."""
    if cache is not None and not isinstance(cache, (str, SolveCache)):
        raise TypeError(
            "cache must be None, a store path or a SolveCache, "
            f"not {type(cache).__name__} {cache!r}"
        )


def set_default_cache(cache: Union[SolveCache, str, None]) -> Optional[SolveCache]:
    """Set (and return) the process-default solve cache.

    Accepts an open :class:`SolveCache`, a store directory path, or ``None``
    to clear; anything else raises ``TypeError``.  The CLI's ``--cache``
    sets it once and every Session constructed without an explicit cache
    picks it up.
    """
    global _default_cache
    _check_cache(cache)
    if isinstance(cache, str):
        cache = SolveCache(cache)
    _default_cache = cache
    return cache


def default_cache() -> Optional[SolveCache]:
    return _default_cache


class Session:
    """A reusable solver session: defaults + cache.

    Parameters
    ----------
    backend:
        LP backend every routed solve uses: ``"hybrid"`` (default) or
        ``"exact"``.  Any other name raises
        :class:`~repro.exceptions.SolverError` here, before it can reach a
        cache key.
    cache:
        ``None`` (default) uses the process-default cache — which may be
        absent, in which case the session solves cold every time;
        ``False`` disables caching even when a default is set; a path
        string opens (and owns) a store at that directory; an open
        :class:`SolveCache` is used without taking ownership.  Any other
        value raises ``TypeError``.
    """

    def __init__(
        self,
        backend: str = "hybrid",
        cache: Union[SolveCache, str, None, bool] = None,
    ):
        _resolve_backend(backend)  # raises on unknown names
        if cache is not False:
            _check_cache(cache)
        # The requested name, not its scipy-less fallback, keys the cache.
        self.backend = backend
        self._owns_cache = False
        if cache is False:
            self.cache: Optional[SolveCache] = None
        elif cache is None:
            self.cache = default_cache()
        elif isinstance(cache, str):
            self.cache = SolveCache(cache)
            self._owns_cache = True
        else:
            self.cache = cache

    # -- plumbing --------------------------------------------------------

    def _config(self) -> Dict[str, Any]:
        """Solver configuration that participates in every cache key."""
        return {"backend": self.backend}

    def _solve(
        self,
        request: SolveRequest,
        compute: Callable[[], Any],
        encode: Callable[[Any], Any],
        decode: Callable[[Any], Any],
    ) -> Any:
        """Cache-through execution of one request."""
        cache = self.cache
        with trace_span(
            f"session.{request.algorithm}", backend=self.backend,
        ) as session_sp:
            if cache is not None:
                key = request.key()
                stored = cache.get(key)
                if stored is not None:
                    record(SolverStats(cache_hits=1))
                    if session_sp:
                        session_sp.attrs["cache"] = "hit"
                    return decode(stored["result"])
            if session_sp:
                session_sp.attrs["cache"] = "miss" if cache is not None else "off"
            with collect_stats() as scope:
                start = time.perf_counter()
                value = compute()
                elapsed = time.perf_counter() - start
            if cache is not None:
                record(SolverStats(cache_misses=1))
                fingerprint = code_fingerprint()
                cache.put(
                    key,
                    request.bucket,
                    {
                        "key": key,
                        "request": request.canonical(),
                        "fingerprint": fingerprint,
                        "result": encode(value),
                    },
                    params=dict(request.params),
                    fingerprint=fingerprint,
                    elapsed_s=elapsed,
                    stats=scope.to_json(),
                )
            return value

    # -- cacheable entry points ------------------------------------------

    def minimal_fractional_T(self, instance: Instance) -> Fraction:
        """Cached :func:`repro.core.programs.minimal_fractional_T`."""
        from ..core.programs import minimal_fractional_T

        request = SolveRequest("minimal_fractional_T", instance, self._config())
        return self._solve(
            request,
            lambda: minimal_fractional_T(instance, backend=self.backend),
            lambda T: {"T_star": frac_to_str(T)},
            lambda result: str_to_frac(result["T_star"]),
        )

    def two_approximation(
        self,
        instance: Instance,
        verify: bool = True,
        use_pushdown_certificate: bool = False,
    ):
        """Cached :func:`repro.core.approx.two_approximation`.

        The payload stores ``T*``, the integral assignment, and the exact
        schedule; a hit rebuilds the full
        :class:`~repro.core.approx.TwoApproxResult` (the schedule
        deserializer re-checks machine exclusivity on the way in).
        """
        from ..core.approx import TwoApproxResult, two_approximation
        from ..schedule.serialize import (
            assignment_from_dict,
            assignment_to_dict,
            schedule_from_dict,
            schedule_to_dict,
        )

        params = dict(self._config())
        params["verify"] = verify
        params["use_pushdown_certificate"] = use_pushdown_certificate
        request = SolveRequest("two_approximation", instance, params)
        ext = instance.with_singletons()

        def encode(result) -> Dict[str, Any]:
            return {
                "T_lp": frac_to_str(result.T_lp),
                "makespan": frac_to_str(result.makespan),
                "assignment": assignment_to_dict(result.assignment),
                "schedule": schedule_to_dict(result.schedule),
            }

        def decode(result) -> TwoApproxResult:
            return TwoApproxResult(
                instance=ext,
                original=instance,
                T_lp=str_to_frac(result["T_lp"]),
                assignment=assignment_from_dict(result["assignment"]),
                schedule=schedule_from_dict(result["schedule"]),
                makespan=str_to_frac(result["makespan"]),
            )

        return self._solve(
            request,
            lambda: two_approximation(
                instance,
                backend=self.backend,
                verify=verify,
                use_pushdown_certificate=use_pushdown_certificate,
            ),
            encode,
            decode,
        )

    def solve_exact(self, instance: Instance, upper_bound=None, node_limit: int = 2_000_000):
        """Cached :func:`repro.core.exact.solve_exact` (branch-and-bound).

        *upper_bound* participates in the key: it never changes the optimum,
        but it changes ``nodes_explored``, and a payload must stay a pure
        function of its key.
        """
        from ..core.exact import ExactResult, solve_exact
        from ..schedule.serialize import assignment_from_dict, assignment_to_dict

        from .._fraction import to_fraction

        params: Dict[str, Any] = {}
        if upper_bound is not None:
            params["upper_bound"] = frac_to_str(to_fraction(upper_bound))
        request = SolveRequest("solve_exact", instance, params)
        return self._solve(
            request,
            lambda: solve_exact(
                instance, upper_bound=upper_bound, node_limit=node_limit
            ),
            lambda result: {
                "optimum": frac_to_str(result.optimum),
                "assignment": assignment_to_dict(result.assignment),
                "nodes_explored": result.nodes_explored,
            },
            lambda result: ExactResult(
                assignment=assignment_from_dict(result["assignment"]),
                optimum=str_to_frac(result["optimum"]),
                nodes_explored=result["nodes_explored"],
            ),
        )

    def minimal_model1_T(self, instance: Instance, space, budgets) -> Fraction:
        """Cached :func:`repro.core.memory.minimal_model1_T`."""
        from .._fraction import to_fraction
        from ..core.memory import minimal_model1_T

        params = dict(self._config())
        params["space"] = [
            [to_fraction(v) for v in row] for row in space
        ]
        params["budgets"] = {int(i): to_fraction(budgets[i]) for i in budgets}
        request = SolveRequest("minimal_model1_T", instance, params)
        return self._solve(
            request,
            lambda: minimal_model1_T(
                instance, space, budgets, backend=self.backend
            ),
            lambda T: {"T_star": frac_to_str(T)},
            lambda result: str_to_frac(result["T_star"]),
        )

    def minimal_model2_T(self, instance: Instance, sizes, mu) -> Fraction:
        """Cached :func:`repro.core.memory.minimal_model2_T`."""
        from .._fraction import to_fraction
        from ..core.memory import minimal_model2_T

        params = dict(self._config())
        params["sizes"] = [to_fraction(s) for s in sizes]
        params["mu"] = to_fraction(mu)
        request = SolveRequest("minimal_model2_T", instance, params)
        return self._solve(
            request,
            lambda: minimal_model2_T(
                instance, sizes, mu, backend=self.backend
            ),
            lambda T: {"T_star": frac_to_str(T)},
            lambda result: str_to_frac(result["T_star"]),
        )

    def template(self, instance: Instance, assignment, T):
        """Cached :func:`repro.core.hierarchical.schedule_hierarchical`.

        The wrap-around template for one planning window is what batch
        admission amortizes — many arrival streams replay one cached
        template (see :meth:`admit_batch`).
        """
        from .._fraction import to_fraction
        from ..core.hierarchical import schedule_hierarchical
        from ..schedule.serialize import (
            assignment_to_dict,
            schedule_from_dict,
            schedule_to_dict,
        )

        T = to_fraction(T)
        params = {
            "assignment": assignment_to_dict(assignment),
            "T": frac_to_str(T),
        }
        request = SolveRequest("template", instance, params)
        return self._solve(
            request,
            lambda: schedule_hierarchical(instance, assignment, T),
            schedule_to_dict,
            schedule_from_dict,
        )

    # schedule_hierarchical routes through the same cached entry point.
    schedule_hierarchical = template

    # -- batch admission -------------------------------------------------

    def admit_batch(
        self,
        instance: Instance,
        assignment,
        T,
        streams: Sequence[Sequence[Any]],
        windows: int,
        topology=None,
        cost_model=None,
    ) -> List[Any]:
        """Run many arrival *streams* against one cached template schedule.

        The template for ``(instance, assignment, T)`` is built (or fetched)
        once through :meth:`template`; one
        :class:`~repro.simulation.admission.WindowReplay` of it is shared
        across every stream — the amortization the scheduling-as-a-service
        layer is built around.  Returns one
        :class:`~repro.simulation.admission.AdmissionResult` per stream, in
        order, identical to calling ``admit`` per stream.
        """
        from ..simulation.admission import admit_batch

        template = self.template(instance, assignment, T)
        return admit_batch(
            template, streams, windows, topology=topology, cost_model=cost_model
        )

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Close the cache if this session opened it (path constructor)."""
        if self._owns_cache and self.cache is not None:
            self.cache.close()
            self.cache = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
