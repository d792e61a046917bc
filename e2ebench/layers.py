"""Per-layer time of a traced run, measured from outside the program.

Two span sources feed one aggregation:

* wrappers that :class:`LayerProbe` installs on the public entry points of
  each layer, each emitting a ``bench.<layer>`` span, and
* the spans the program already emits (``solve.*``, ``evaluator.*``,
  ``kernels.nondominated_sort``, ``archipelago.migrate``).

Both go through the process-global :mod:`repro.obs` tracer, so parent links
join them into one tree.  A span's self time is its duration minus the
durations of its direct children; a layer's self time is the sum over its
spans.  A span whose name maps to no layer (a span added to the program
later, say) counts towards the layer of its nearest mapped ancestor.

The wrappers time the call and touch nothing else, so a wrapped run makes
the same random draws and returns the same front as an unwrapped one
(``test_e2ebench.py`` checks this bitwise).
"""

from __future__ import annotations

import functools
import sys
from collections import Counter

#: Layers in report order; ``other`` (time under no span) is added on top.
LAYERS = (
    "variation",
    "selection",
    "archive",
    "migration",
    "evaluation",
    "robustness",
    "fba",
    "artifacts",
    "solve",
)

#: Span-name prefixes the program emits, mapped to the layer they belong to.
PROGRAM_SPANS = (
    ("solve.", "solve"),
    ("evaluator.", "evaluation"),
    ("kernels.nondominated_sort", "selection"),
    ("archipelago.migrate", "migration"),
)

_WRAPPER_PREFIX = "bench."
_MARK = "_e2ebench_layer"


def span_layer(name: str) -> str | None:
    """Layer a span name belongs to, or ``None`` when it names none."""
    if name.startswith(_WRAPPER_PREFIX):
        return name[len(_WRAPPER_PREFIX):]
    for prefix, layer in PROGRAM_SPANS:
        if name.startswith(prefix):
            return layer
    return None


def layer_times(spans: list[dict], wall: float) -> dict[str, dict[str, float]]:
    """Calls and self time per layer, plus ``other``, for spans under ``wall``.

    ``calls`` counts entries into a layer from outside it, so a kernel span
    nested in a wrapper of the same layer is not counted twice.  ``other``
    is ``wall`` minus the time covered by root spans, computed independently
    of the per-layer sums: the two add up to ``wall`` only when every child
    span lies inside its parent.
    """
    by_id = {span["span_id"]: span for span in spans}
    child_time: Counter = Counter()
    for span in spans:
        if span.get("parent_id") in by_id:
            child_time[span["parent_id"]] += span["duration"]

    resolved: dict[str, str] = {}

    def resolve(span: dict) -> str:
        chain = []
        layer = None
        while span is not None:
            known = resolved.get(span["span_id"])
            if known is not None:
                layer = known
                break
            chain.append(span["span_id"])
            layer = span_layer(span["name"])
            if layer is not None:
                break
            span = by_id.get(span.get("parent_id"))
        layer = layer or "other"
        for span_id in chain:
            resolved[span_id] = layer
        return layer

    totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS + ("other",)}
    covered = 0.0
    for span in spans:
        layer = resolve(span)
        parent = by_id.get(span.get("parent_id"))
        if parent is None:
            covered += span["duration"]
        if parent is None or resolve(parent) != layer:
            totals[layer]["calls"] += 1
        totals[layer]["self_s"] += span["duration"] - child_time[span["span_id"]]
    totals["other"]["self_s"] += wall - covered
    return totals


class LayerProbe:
    """Timing wrappers on the layer entry points, for one traced run.

    ``install()`` replaces every binding of each entry point in the loaded
    ``repro`` modules (the engines' own ``from ... import`` names included)
    and ``restore()`` puts the originals back.  Use it as a context manager.
    Counters the wrappers gather land in :attr:`counts`.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._evaluation_depth = 0

    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerProbe":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def install(self) -> None:
        """Wrap every layer entry point; a second call is an error."""
        if self._patches:
            raise RuntimeError("layer probe already installed")
        import repro.cli.main  # noqa: F401  (loads every module that binds an entry point)
        import repro.core.designer  # noqa: F401
        import repro.runtime.diskcache  # noqa: F401  (defines an Evaluator subclass)
        from repro.core import artifacts
        from repro.fba import assembly, solver
        from repro.moo import dominance, kernels, operators, robustness
        from repro.moo.archipelago import Archipelago
        from repro.moo.archive import ParetoArchive
        from repro.problems.base import Problem
        from repro.runtime.evaluator import Evaluator

        for function in (
            operators.binary_tournament,
            operators.sbx_crossover,
            operators.polynomial_mutation,
        ):
            self._patch_function(function, self._timed("variation", function))
        for function in (dominance.assign_ranks_and_crowding, kernels.crowding_truncation_order):
            self._patch_function(function, self._timed("selection", function))
        for function in (robustness.uptake_yield, robustness.front_yields):
            self._patch_function(function, self._timed("robustness", function, self._trials))
        for function in (
            solver.flux_balance_analysis,
            solver.optimize_combination,
            solver.parsimonious_fba,
        ):
            self._patch_function(function, self._timed("fba", function))
        for module in (solver, assembly):
            self._patch_attribute(module, "linprog", self._counted("fba.lp_solves", module.linprog))
        self._patch_function(artifacts.record_run, self._timed("artifacts", artifacts.record_run))
        self._patch_attribute(ParetoArchive, "extend", self._archive_extend(ParetoArchive.extend))
        self._patch_attribute(
            Archipelago, "migrate", self._timed("migration", Archipelago.migrate)
        )
        # Engines evaluate through an Evaluator when one is configured, and
        # straight through the problem otherwise.
        for cls in (Problem, *_subclasses(Evaluator)):
            if "evaluate_matrix" in vars(cls) and cls.__module__.startswith("repro."):
                self._patch_attribute(
                    cls, "evaluate_matrix", self._evaluate_matrix(vars(cls)["evaluate_matrix"])
                )

    def restore(self) -> None:
        """Put every original entry point back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    def _patch_attribute(self, owner: object, name: str, wrapper: object) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _patch_function(self, function: object, wrapper: object) -> None:
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if value is function:
                    self._patch_attribute(module, name, wrapper)

    def _timed(self, layer: str, function, after=None):
        from repro.obs.trace import get_tracer

        span_name = _WRAPPER_PREFIX + layer

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with get_tracer().span(span_name):
                result = function(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        setattr(wrapper, _MARK, layer)
        return wrapper

    def _counted(self, counter: str, function):
        counts = self.counts

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return function(*args, **kwargs)

        setattr(wrapper, _MARK, counter)
        return wrapper

    def _trials(self, result) -> None:
        reports = result if isinstance(result, list) else [result]
        self.counts["robustness.trials"] += sum(report.n_trials for report in reports)

    def _archive_extend(self, extend):
        from repro.obs.trace import get_tracer

        counts = self.counts

        @functools.wraps(extend)
        def wrapper(archive, candidates):
            with get_tracer().span(_WRAPPER_PREFIX + "archive"):
                batch = list(candidates)
                accepted = extend(archive, batch)
            counts["archive.offered"] += len(batch)
            counts["archive.accepted"] += accepted
            return accepted

        setattr(wrapper, _MARK, "archive")
        return wrapper

    def _evaluate_matrix(self, evaluate_matrix):
        from repro.obs.trace import get_tracer

        probe = self

        @functools.wraps(evaluate_matrix)
        def wrapper(owner, *args):  # (evaluator, problem, X) or (problem, X)
            outermost = probe._evaluation_depth == 0
            ledger = getattr(owner, "ledger", None) if outermost else None
            hits_before = _ledger_hits(ledger)
            probe._evaluation_depth += 1
            try:
                with get_tracer().span(_WRAPPER_PREFIX + "evaluation"):
                    batch = evaluate_matrix(owner, *args)
            finally:
                probe._evaluation_depth -= 1
            if outermost:
                probe.counts["evaluation.rows"] += len(args[-1])
                probe.counts["evaluation.cache_hits"] += _ledger_hits(ledger) - hits_before
            return batch

        setattr(wrapper, _MARK, "evaluation")
        return wrapper


def installed_wrappers() -> list[str]:
    """``module.name`` of every probe wrapper still bound in a repro module."""
    from repro.moo.archipelago import Archipelago
    from repro.moo.archive import ParetoArchive
    from repro.problems.base import Problem
    from repro.runtime.evaluator import Evaluator

    owners = [*_repro_modules(), ParetoArchive, Archipelago, Problem, *_subclasses(Evaluator)]
    return [
        "%s.%s" % (getattr(owner, "__name__", owner), name)
        for owner in owners
        for name, value in list(vars(owner).items())
        if hasattr(value, _MARK)
    ]


def _repro_modules():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            yield module


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _ledger_hits(ledger) -> int:
    if ledger is None:
        return 0
    return ledger.total_cache_hits + ledger.total_disk_hits
