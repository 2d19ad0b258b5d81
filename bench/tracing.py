"""Spans and counters for the traced run.

The benchmark records spans from its own files: wrappers are installed
around the library's public functions at the module binding each caller
uses (steinerchains.porism.invert_circle is the name chain_at_phase looks
up, steinerchains.moments.complex_moment the one sweep_rows looks up), and
around the package names the benchmark itself calls. Nothing in src/ is
edited, and the wrappers exist only in the traced run.

Spans stay in memory as flat arrays and are written when the run ends.
A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array
from collections import Counter, defaultdict

# (span name, bindings wrapped, extra counter). A binding is "module:attr",
# or "module:Class.attr" for a method. Counters: "key" records the distinct
# argument tuples (useful_ratio), "terms" the circles a moment call sums
# over, "false" how often the call returned False.
LAYERS = [
    ("geometry.invert_circle", ["steinerchains.porism:invert_circle"], None),
    ("geometry.limiting_points", ["steinerchains.porism:limiting_points"], None),
    ("porism.concentric_model", ["steinerchains.porism:concentric_model"], "key"),
    (
        "porism.chain_at_phase",
        [
            "steinerchains:chain_at_phase",
            "steinerchains.moments:chain_at_phase",
            "steinerchains.symmetric:chain_at_phase",
            "steinerchains.cli:chain_at_phase",
        ],
        None,
    ),
    ("porism.chain_residuals", ["steinerchains.porism:chain_residuals", "steinerchains.document:chain_residuals"], None),
    ("porism.is_valid_chain", ["steinerchains:is_valid_chain"], None),
    ("porism.neighbor_bends", ["steinerchains.feasibility:neighbor_bends"], None),
    ("porism.validate_gauge", ["steinerchains.cli:validate_gauge"], None),
    ("porism.pedoe_distance", ["steinerchains.cli:pedoe_distance"], None),
    ("moments.complex_moment", ["steinerchains.moments:complex_moment", "steinerchains.cli:complex_moment"], "terms"),
    ("moments.bending_moment", ["steinerchains.moments:bending_moment", "steinerchains.cli:bending_moment"], "terms"),
    ("moments.sweep_rows", ["steinerchains.moments:sweep_rows", "steinerchains.document:sweep_rows"], "key"),
    ("moments.invariance_sweep", ["steinerchains:invariance_sweep", "steinerchains.cli:invariance_sweep"], None),
    ("moments.invariants_ok", ["steinerchains.moments:InvarianceReport.invariants_ok"], "false"),
    ("feasibility.feasibility_check", ["steinerchains:feasibility_check", "steinerchains.cli:feasibility_check"], None),
    ("feasibility.virtual_gauge", ["steinerchains.feasibility:virtual_gauge"], None),
    ("document.chain_to_document", ["steinerchains:chain_to_document", "steinerchains.cli:chain_to_document", "steinerchains.document:chain_to_document"], None),
    ("document.document_to_chain", ["steinerchains:document_to_chain", "steinerchains.document:document_to_chain"], None),
    ("document.render_svg", ["steinerchains:render_svg", "steinerchains.cli:render_svg"], None),
    ("document.sweep_csv_text", ["steinerchains.document:sweep_csv_text"], None),
    ("document.save_chain", ["steinerchains.cli:save_chain"], None),
    ("document.load_chain", ["steinerchains.cli:load_chain"], None),
    ("document.write_sweep_csv", ["steinerchains.cli:write_sweep_csv"], None),
    ("symmetric.symmetric_chain", ["steinerchains:symmetric_chain", "steinerchains.cli:symmetric_chain"], None),
    ("cli.build_parser", ["steinerchains.cli:build_parser"], None),
    ("cli.main", ["steinerchains.cli:main"], None),
]


class Tracer:
    """Single-threaded span recorder. Spans are (name, op, parent, start, end)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack: list[int] = []
        self.current_op = -1
        self.active = False
        self.keys: dict[str, set] = defaultdict(set)
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.op.append(self.current_op)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args):
        """Call fn(*args) inside a span opened by the benchmark itself."""
        i = self.open(self.intern(name))
        try:
            return fn(*args)
        except BaseException:
            self.raised[i] = 1
            raise
        finally:
            self.close(i)

    def wrap(self, fn, name: str, counter: str | None):
        name_id = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if counter == "key":
                self.keys[name].add(args)
            i = self.open(name_id)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.raised[i] = 1
                raise
            finally:
                self.close(i)
            if counter == "terms":
                self.counts["moments.terms"] += len(args[0].circles)
            elif counter == "false" and out is False:
                self.counts[f"{name}.false"] += 1
            return out

        return traced

    def install(self) -> None:
        for name, bindings, counter in LAYERS:
            for binding in bindings:
                module_name, attr = binding.split(":")
                owner = importlib.import_module(module_name)
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                original = getattr(owner, attr)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        return self_times(self.start, self.end, self.parent)

    def summary(self, scale=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_ms, raised. scale[op], when given,
        multiplies the self time of the spans of operation op."""
        out: dict[str, dict[str, float]] = {}
        for i, own in enumerate(self.self_times()):
            row = out.setdefault(self.names[self.name[i]], {"calls": 0, "self_ms": 0.0, "raised": 0})
            row["calls"] += 1
            row["self_ms"] += own * 1e3 * (scale[self.op[i]] if scale is not None and self.op[i] >= 0 else 1.0)
            row["raised"] += self.raised[i]
        return out

    def write(self, path) -> None:
        """Spans as gzipped CSV: name, op, parent, start_s, end_s."""
        with gzip.open(path, "wt") as fh:
            fh.write("span,name,op,parent,start_s,end_s,raised\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.op[i]},{self.parent[i]},"
                    f"{self.start[i]!r},{self.end[i]!r},{self.raised[i]}\n"
                )


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    each child clipped to its parent."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered, reach = 0.0, lo
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            a, b = max(start[c], reach), min(end[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out
