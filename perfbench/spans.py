"""Spans and counters around the kldesign layer entry points, kept in memory.

The tracer times calls into each layer's public functions from outside the
package. `algorithm` and `verify` bind `minimize_beta2`, `collapse_support`
and the other entry points by name at import time, so a wrapper installed on
the defining module alone would miss every nested call. `install` therefore
replaces the original function under every name any `kldesign` module binds
it to, and `uninstall` puts the originals back. Nothing in the package is
edited.

A span is `[name, start, end, parent, info]`: `parent` is the index of the
enclosing span (-1 at the top) and `info` holds what the span's result says
(iterations, step size, ...). Self time is a span's duration minus the time
its direct children cover.
"""

import inspect
import sys
import time
from collections import Counter, defaultdict

# Layer entry points: (defining module, function, span name).
FUNCTIONS = (
    ("inner", "minimize_beta2", "inner"),
    ("algorithm", "line_search_alpha", "algorithm.line_search"),
    ("algorithm", "best_support_candidate", "algorithm.best_point"),
    ("algorithm", "run_first_order", "algorithm.loop"),
    ("algorithm", "run_regularized", "algorithm.loop"),
    ("designs", "mix_design", "designs.mix"),
    ("designs", "blend_designs", "designs.blend"),
    ("designs", "collapse_support", "designs.collapse"),
    ("designs", "prune_support", "designs.prune"),
    ("verify", "equivalence_check", "verify.equivalence"),
    ("verify", "invariance_check", "verify.invariance"),
    ("config", "parse_run_config", "config.parse"),
)


# Spans whose info needs the call's arguments, bound to parameter names.
_NEEDS_ARGUMENTS = {"inner", "designs.collapse", "designs.prune"}


def _info(name, arguments, result):
    """What a finished call says, beyond its duration."""
    if name == "inner":
        return (arguments.get("warm_start") is not None,
                bool(getattr(result, "singular_flag", False)))
    if name == "algorithm.line_search":
        return result[0] == 0.0
    if name == "algorithm.loop":
        return len(result.history), result.termination_reason
    if name in ("designs.collapse", "designs.prune"):
        design = next(iter(arguments.values()))
        return design.size - result.size
    if name == "verify.equivalence":
        return int(result.grid_size)
    return None


class Tracer:
    """Records spans and model-layer counts while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def install(self):
        package = {name: module for name, module in sys.modules.items()
                   if name == "kldesign" or name.startswith("kldesign.")}
        for module_name, func_name, span_name in FUNCTIONS:
            home = package.get("kldesign." + module_name)
            original = getattr(home, func_name, None)
            if original is None:  # entry point gone: its metrics read zero
                continue
            wrapper = self._span_wrapper(span_name, original)
            for module in package.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        for cls in vars(package["kldesign.models"]).values():
            if not isinstance(cls, type):
                continue
            if "divergence" in vars(cls):
                self._patch(cls, "divergence", self._divergence_wrapper(cls.divergence))
            if "divergence_evaluator" in vars(cls):
                self._patch(cls, "divergence_evaluator",
                            self._evaluator_wrapper(cls.divergence_evaluator))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if name in _NEEDS_ARGUMENTS else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            arguments = {}
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            span[4] = _info(name, arguments, result)
            return result

        return wrapper

    def _divergence_wrapper(self, fn):
        counts = self.counts

        def divergence(pair, *args, **kwargs):
            values = fn(pair, *args, **kwargs)
            counts["models.divergence_calls"] += 1
            counts["models.divergence_rows"] += len(values)
            return values

        return divergence

    def _evaluator_wrapper(self, fn):
        counts = self.counts

        def divergence_evaluator(pair, *args, **kwargs):
            counts["models.evaluator_builds"] += 1
            values = fn(pair, *args, **kwargs)

            def counted(*call_args):
                counts["inner.evals"] += 1
                return values(*call_args)

            return counted

        return divergence_evaluator

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded since construction."""
        # Spans of calls that raised carry no info and count only as time.
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]

        def parent_name(span):
            return spans[span[3]][0] if span[3] >= 0 else None

        inner = [s for s in spans if s[0] == "inner" and s[4] is not None]
        loops = [i for i, s in enumerate(spans)
                 if s[0] == "algorithm.loop" and s[4] is not None]
        direct_solves = Counter(s[3] for s in inner
                                if parent_name(s) == "algorithm.loop")
        # The loop solves once before iterating and once per completed
        # iteration; any further solve it issues itself is the fallback guard.
        fallbacks = 0
        for i in loops:
            iterations, reason = spans[i][4]
            housekeeping = iterations - (reason != "max-iterations")
            fallbacks += direct_solves[i] - 1 - housekeeping

        n_inner = calls["inner"]
        n_returned = len(inner)
        evals = self.counts["inner.evals"]
        designs_self = sum((v for k, v in self_s.items() if k.startswith("designs.")), 0.0)
        return {
            "inner.calls": n_inner,
            "inner.self_s": self_s["inner"],
            "inner.us_per_call": 1e6 * self_s["inner"] / n_inner if n_inner else 0.0,
            "inner.evals": evals,
            "inner.evals_per_call": evals / n_inner if n_inner else 0.0,
            "inner.warm_share": (sum(s[4][0] for s in inner) / n_returned
                                 if n_returned else 0.0),
            "inner.singular_flags": sum(s[4][1] for s in inner),
            "algorithm.line_search.calls": calls["algorithm.line_search"],
            "algorithm.line_search.self_s": self_s["algorithm.line_search"],
            "algorithm.line_search.inner_calls": sum(
                1 for s in inner if parent_name(s) == "algorithm.line_search"),
            "algorithm.line_search.zero_steps": sum(
                1 for s in spans if s[0] == "algorithm.line_search" and s[4]),
            "algorithm.best_point.calls": calls["algorithm.best_point"],
            "algorithm.best_point.self_s": self_s["algorithm.best_point"],
            "algorithm.iterations": sum(spans[i][4][0] for i in loops),
            "algorithm.loop.self_s": self_s["algorithm.loop"],
            "algorithm.housekeeping.fallbacks": fallbacks,
            "designs.collapse.merged": sum(
                s[4] or 0 for s in spans if s[0] == "designs.collapse"),
            "designs.prune.dropped": sum(
                s[4] or 0 for s in spans if s[0] == "designs.prune"),
            "designs.blend.calls": calls["designs.blend"],
            "designs.self_s": designs_self,
            "models.divergence_calls": self.counts["models.divergence_calls"],
            "models.divergence_rows": self.counts["models.divergence_rows"],
            "models.evaluator_builds": self.counts["models.evaluator_builds"],
            "verify.equivalence.calls": calls["verify.equivalence"],
            "verify.equivalence.self_s": self_s["verify.equivalence"],
            "verify.grid_rows": sum(
                s[4] or 0 for s in spans if s[0] == "verify.equivalence"),
            "verify.invariance.calls": calls["verify.invariance"],
            "config.parse_s": self_s["config.parse"],
        }
