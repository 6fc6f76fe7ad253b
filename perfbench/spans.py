"""Outside-in span tracer for one campaign process.

The tracer wraps public functions of the ``thetacb`` modules from the
benchmark's side; no program code changes.  Each wrapped call is one span
with a name and the name of the enclosing span.  Spans are aggregated per
(name, parent) into call count, inclusive seconds and self seconds, so
memory stays bounded however many calls a campaign makes.  Self time is a
span's duration minus the durations of its direct child spans.

Modules bind kernels with ``from .special import theta``, so a wrapper must
replace the function object under every name, in every ``thetacb`` module
namespace, that refers to it.  Registry runners are wrapped in place as
``cli.check.<identity>`` spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

#: (span name, module, attribute) of every traced public function.  A name
#: the program no longer defines is skipped and reads as zero calls.
TRACED = (
    ("special.theta", "thetacb.special", "theta"),
    ("special.theta_fact", "thetacb.special", "theta_fact"),
    ("special.qpoch", "thetacb.special", "qpoch"),
    ("weights.elliptic_weight", "thetacb.weights", "elliptic_weight"),
    ("weights.binomial_weight", "thetacb.weights", "binomial_weight"),
    ("lattice.a_closed", "thetacb.lattice", "a_closed"),
    ("lattice.b_closed", "thetacb.lattice", "b_closed"),
    ("lattice.master_equality_total", "thetacb.lattice", "master_equality_total"),
    ("lattice.total_weight_residual", "thetacb.lattice", "total_weight_residual"),
    ("identities.cb_terms", "thetacb.identities", "cb_terms"),
    ("identities.cb_term_elliptic", "thetacb.identities", "cb_term_elliptic"),
    ("noncomm.nf_mul", "thetacb.noncomm", "nf_mul"),
    ("noncomm.evaluate_element", "thetacb.noncomm", "evaluate_element"),
    ("noncomm.frenkel_turaev", "thetacb.noncomm", "frenkel_turaev"),
    ("bezout.bezout_solve", "thetacb.bezout", "bezout_solve"),
    ("sampling.sample_param_point", "thetacb.sampling", "sample_param_point"),
    ("sampling.check_genericity", "thetacb.sampling", "check_genericity"),
    ("sampling.theta_margin", "thetacb.sampling", "theta_margin"),
)

#: ``theta`` spans are split by the scalar type of the argument.
_DOUBLE_TYPES = (complex, float, int)


class Tracer:
    """Span aggregation for one process; install once, read once."""

    def __init__(self):
        self.stats: dict[tuple[str, str], list] = {}
        self.raised: dict[tuple[str, str], int] = defaultdict(int)
        self._stack = [["root", 0.0]]

    def span(self, name: str, fn, split_precision: bool = False):
        """A wrapper of ``fn`` that records one span per call."""
        stack, stats, raised = self._stack, self.stats, self.raised
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name
            if split_precision:
                label += ".double" if isinstance(args[0], _DOUBLE_TYPES) else ".mp"
            parent = stack[-1]
            frame = [label, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                raised[(label, type(exc).__name__)] += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                rec = stats.get((label, parent[0]))
                if rec is None:
                    rec = stats[(label, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every traced function under every name that binds it, and
        every registry runner."""
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "thetacb" or name.startswith("thetacb.")]
        for span_name, module, attr in TRACED:
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is None:
                continue
            wrapper = self.span(span_name, fn, split_precision=span_name == "special.theta")
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
        cli = sys.modules["thetacb.cli"]
        for ident, entry in list(cli.REGISTRY.items()):
            if isinstance(entry, tuple) and callable(entry[-1]):
                runner = self.span(f"cli.check.{ident}", entry[-1])
                cli.REGISTRY[ident] = (*entry[:-1], runner)
        report_cls = cli.CampaignReport
        report_cls.to_text = self.span("cli.to_text", report_cls.to_text)

    def dump(self) -> dict:
        """Plain-data snapshot: spans as [name, parent, calls, total_s,
        self_s] rows, raised exceptions as [name, type, count] rows, and the
        two process-global cache counters."""
        caches = {}
        for key, module, attr in (("lattice.h_cache", "thetacb.lattice", "_h_value"),
                                  ("noncomm.reorder_cache", "thetacb.noncomm",
                                   "reorder_coefficient")):
            info = getattr(getattr(sys.modules.get(module), attr, None), "cache_info", None)
            if info is not None:
                hits, misses = info()[:2]
                caches[key] = {"hits": hits, "misses": misses}
        return {
            "spans": [[name, parent, *rec] for (name, parent), rec in sorted(self.stats.items())],
            "raised": [[name, exc, count] for (name, exc), count in sorted(self.raised.items())],
            "caches": caches,
        }
