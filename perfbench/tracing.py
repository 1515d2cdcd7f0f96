"""Spans and field-op counters recorded from outside the program.

The traced run replaces names that ``radica.cli`` and ``radica.verifier``
resolve at call time -- the two backend classes and the public layer
functions -- with wrappers that record a span around each call.  Nothing in
``radica`` itself changes; the patches are undone when the run ends.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from time import perf_counter

from radica import cli, verifier
from radica.fields import FieldCapabilities
from radica.radicals import RadicalExpr

# span record layout: [name, start, end, parent index, solve id, error]
NAME, START, END, PARENT, SOLVE, ERROR = range(6)


class Recorder:
    """In-memory span list with a stack for parents; one solve id per run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.solve_id = -1
        self.fields = []  # (layer, inner field) built during the current solve
        self.records = []  # root records rendered during the current solve

    def call(self, name, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.solve_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            rec[ERROR] = type(exc).__name__
            raise
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    def write(self, path):
        """One JSON array per line: name, start_s, end_s, parent, solve, error."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class TracedField(FieldCapabilities):
    """Counting and timing proxy for a backend's ``FieldCapabilities``.

    Every operation becomes a span named ``<layer>.<op>``; the wrapped
    backend's own derived operations call the backend, not the proxy, so
    op spans never nest.
    """

    def __init__(self, inner, recorder, layer):
        self.inner = inner
        self.name = inner.name
        self.is_exact = inner.is_exact
        self._rec = recorder
        self._layer = layer

    @property
    def zero(self):
        return self.inner.zero

    @property
    def one(self):
        return self.inner.one

    def _op(self, op, *args):
        return self._rec.call(f"{self._layer}.{op}", getattr(self.inner, op), *args)

    def add(self, x, y):
        return self._op("add", x, y)

    def neg(self, x):
        return self._op("neg", x)

    def sub(self, x, y):
        return self._op("sub", x, y)

    def mul(self, x, y):
        return self._op("mul", x, y)

    def div(self, x, y):
        return self._op("div", x, y)

    def inverse(self, x):
        return self._op("inverse", x)

    def is_zero(self, x):
        return self._op("is_zero", x)

    def eq(self, x, y):
        return self._op("eq", x, y)

    def sqrt(self, x):
        return self._op("sqrt", x)

    def cbrt(self, x):
        return self._op("cbrt", x)

    def from_rational(self, q):
        return self._op("from_rational", q)

    def to_complex(self, x):
        return self._op("to_complex", x)

    def as_rational(self, x):
        return self._op("as_rational", x)


#: (module, attribute, span name) of every layer function the CLI reaches
LAYER_FUNCTIONS = (
    (cli, "parse_polynomial", "cli.parse_polynomial"),
    (cli, "solve_cubic", "solvers.solve_cubic"),
    (cli, "solve_quartic", "solvers.solve_quartic"),
    (cli, "verify_solution", "verifier.verify_solution"),
    (verifier, "horner_eval", "verifier.horner_eval"),
    (verifier, "expand_monic_from_roots", "verifier.expand_monic_from_roots"),
    (verifier, "durand_kerner", "verifier.durand_kerner"),
    (verifier, "match_root_multisets", "verifier.match_root_multisets"),
)


class Tracer:
    """Context manager that installs the proxies and span wrappers."""

    def __init__(self, recorder):
        self.rec = recorder
        self._saved = []

    def _patch(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def __enter__(self):
        rec = self.rec

        def field_factory(cls, layer):
            def make(*args, **kwargs):
                inner = cls(*args, **kwargs)
                rec.fields.append((layer, inner))
                return TracedField(inner, rec, layer)

            return make

        def spanned(name, fn):
            def wrapper(*args, **kwargs):
                return rec.call(name, fn, *args, **kwargs)

            return wrapper

        def render(record):
            rec.records.append(record)
            return rec.call("radicals.render_radical", original_render, record)

        original_render = cli.render_radical
        self._patch(cli, "TowerField", field_factory(cli.TowerField, "tower"))
        self._patch(cli, "ComplexField", field_factory(cli.ComplexField, "complexfield"))
        for module, attr, name in LAYER_FUNCTIONS:
            self._patch(module, attr, spanned(name, getattr(module, attr)))
        self._patch(cli, "render_radical", render)
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)
        return False


def count_nodes(expr):
    """Nodes of a radical expression tree, walked through its dataclass fields."""
    total = 1
    for f in dataclasses.fields(expr):
        child = getattr(expr, f.name)
        if isinstance(child, RadicalExpr):
            total += count_nodes(child)
    return total


def tower_shape(field):
    """(depth, dimension over Q) of a session tower."""
    levels = field.tower.levels
    dim = 1
    for level in levels:
        dim *= level.deg
    return len(levels), dim


def signature(rec, first):
    """What the solve whose spans start at index ``first`` did, as counts:
    ops per span name, session tower shape, fallback, nodes per root."""
    towers = [tower_shape(f) for layer, f in rec.fields if layer == "tower"]
    return {
        "ops": Counter(span[NAME] for span in rec.spans[first:]),
        "tower": towers[-1] if towers else (0, 0),
        "fallback": len({layer for layer, _ in rec.fields}) > 1,
        "nodes": [count_nodes(r.radical) for r in rec.records],
    }


def layer_metrics(spans, signatures):
    """Per-solve means of the per-layer metrics: {name: (value, unit)}.

    A span's self time is its duration minus the time its children cover.
    """
    n = len(signatures)
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    total, self_time, count, errors = Counter(), Counter(), Counter(), Counter()
    for i, span in enumerate(spans):
        name = span[NAME]
        dur = span[END] - span[START]
        total[name] += dur
        self_time[name] += dur - covered[i]
        count[name] += 1
        if span[ERROR]:
            errors[name] += 1

    def per_solve(table, *names, scale=1.0):
        return sum(table[name] for name in names) * scale / n

    def tower(*ops):
        names = [f"tower.{op}" for op in ops]
        return (per_solve(total, *names, scale=1e3), "ms"), (per_solve(count, *names), "count")

    metrics = {}
    for metric, ops in (
        ("mul", ("mul",)),
        ("addsub", ("add", "neg", "sub")),
        ("inverse", ("inverse", "div")),
        ("is_zero", ("is_zero", "eq")),
        ("adjoin", ("sqrt", "cbrt")),
    ):
        metrics[f"tower.{metric}_ms"], metrics[f"tower.{metric}_count"] = tower(*ops)
    complex_ops = [name for name in count if name.startswith("complexfield.")]
    dk_runs = count["verifier.durand_kerner"]
    roots = sum(len(s["nodes"]) for s in signatures)
    metrics.update(
        {
            "tower.to_complex_ms": (per_solve(total, "tower.to_complex", scale=1e3), "ms"),
            "tower.depth_mean": (sum(s["tower"][0] for s in signatures) / n, "count"),
            "tower.dim_mean": (sum(s["tower"][1] for s in signatures) / n, "count"),
            "verifier.horner_ms": (per_solve(total, "verifier.horner_eval", scale=1e3), "ms"),
            "verifier.horner_count": (per_solve(count, "verifier.horner_eval"), "count"),
            "verifier.expand_ms": (
                per_solve(total, "verifier.expand_monic_from_roots", scale=1e3),
                "ms",
            ),
            "verifier.oracle_us": (per_solve(total, "verifier.durand_kerner", scale=1e6), "us"),
            "verifier.oracle_skip_ratio": (
                errors["verifier.durand_kerner"] / dk_runs if dk_runs else 0.0,
                "ratio",
            ),
            "verifier.match_us": (
                per_solve(total, "verifier.match_root_multisets", scale=1e6),
                "us",
            ),
            "verifier.self_us": (
                per_solve(self_time, "verifier.verify_solution", scale=1e6),
                "us",
            ),
            "solvers.self_us": (
                per_solve(self_time, "solvers.solve_cubic", "solvers.solve_quartic", scale=1e6),
                "us",
            ),
            "radicals.render_us": (per_solve(total, "radicals.render_radical", scale=1e6), "us"),
            "radicals.nodes_per_root": (
                sum(sum(s["nodes"]) for s in signatures) / roots if roots else 0.0,
                "count",
            ),
            "complexfield.op_count": (per_solve(count, *complex_ops), "count"),
            "complexfield.op_us": (per_solve(total, *complex_ops, scale=1e6), "us"),
            "cli.parse_us": (per_solve(total, "cli.parse_polynomial", scale=1e6), "us"),
            "cli.self_us": (per_solve(self_time, "cli.run", scale=1e6), "us"),
            "cli.fallback_ratio": (sum(s["fallback"] for s in signatures) / n, "ratio"),
        }
    )
    return metrics
