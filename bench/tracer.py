"""Per-layer tracing of the eilab package from outside it.

Every public function of each layer module is replaced, at its module
attribute, by a wrapper that records a span.  The layers call each other
through the module name (``graph_core.apply_surgery(...)``), and a module's
own calls by bare name also resolve through that attribute, so the
wrappers see every crossing between layers without any change to ``src/``.

Spans are kept in memory as one record per (span, parent span): call count,
total time and self time (total minus the time covered by child spans).
One record per call would not fit: the squeeze workload makes millions of
calls into ``graph_core``.  Oracle spans carry the field characteristic in
their name, so each kernel's self time can be read apart.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = (
    "graph_core",
    "formats_io",
    "matchings",
    "chordality",
    "cameron_walker",
    "classifier",
    "regularity_oracle",
    "bounds_engine",
    "harness",
)

# harness functions that build the corpus (set-up), as opposed to sweeps.
ENUMERATION = ("connected_graphs", "enumerate_connected", "enumerate_all", "corpus_up_to")

# Layers whose calls are keyed to count repeated requests.
_REPEAT_LAYERS = ("matchings", "regularity_oracle")


class Tracer:
    def __init__(self):
        self.open: list[list] = []  # [span name, child seconds] per open span
        self.spans: dict[tuple[str, str | None], list] = {}  # -> [calls, total_s, self_s]
        self.seen: dict[str, set] = {layer: set() for layer in _REPEAT_LAYERS}
        self.repeats: dict[str, int] = {layer: 0 for layer in _REPEAT_LAYERS}
        self.intervals = 0
        self.points = 0

    def install(self) -> None:
        """Wrap the public functions of every layer module in place."""
        for layer in LAYERS:
            module = importlib.import_module(f"eilab.{layer}")
            for name, obj in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or inspect.isclass(obj)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                ):
                    continue
                setattr(module, name, self._wrap(layer, name, obj))

    def unwind(self) -> None:
        """Drop spans left open after a top-level call was interrupted: the
        deadline alarm can fire inside a wrapper's own bookkeeping."""
        self.open.clear()

    def _wrap(self, layer: str, name: str, fn):
        span_name = f"{layer}.{name}"
        char_of = _char_getter(fn) if layer == "regularity_oracle" else None
        keyed = layer in _REPEAT_LAYERS
        on_result = self._count_interval if span_name == "bounds_engine.refine_bounds" else None
        open_spans = self.open
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = span_name
            char = None
            if char_of is not None:
                char = char_of(args, kwargs)
                if char is not None:
                    span = f"{span_name}@char{char}"
            if keyed and args and isinstance(getattr(args[0], "edges", None), tuple):
                g = args[0]
                self._note_request(layer, (g.n, g.edges, char) if char_of else (name, g.n, g.edges))
            parent = open_spans[-1][0] if open_spans else None
            frame = [span, 0.0]
            open_spans.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                open_spans.pop()
                if open_spans:
                    open_spans[-1][1] += dt
                rec = spans.get((span, parent))
                if rec is None:
                    rec = spans[(span, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _note_request(self, layer: str, key) -> None:
        seen = self.seen[layer]
        if key in seen:
            self.repeats[layer] += 1
        else:
            seen.add(key)

    def _count_interval(self, interval) -> None:
        self.intervals += 1
        self.points += interval.lo == interval.hi

    def span_table(self) -> list[dict]:
        return [
            {"span": span, "parent": parent, "calls": c, "total_s": t, "self_s": s}
            for (span, parent), (c, t, s) in sorted(self.spans.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
        ]

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json, from the spans."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (span, _), (c, _, s) in self.spans.items():
            calls[span] = calls.get(span, 0) + c
            self_s[span] = self_s.get(span, 0.0) + s

        def total(values: dict, prefix: str):
            # Span names are "layer.function", oracle ones with "@char<c>" appended.
            return sum(v for k, v in values.items() if (k.split("@")[0] + ".").startswith(prefix + "."))

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        oracle_calls = total(calls, "regularity_oracle")
        matching_calls = total(calls, "matchings")
        out = {
            "graph_core.canonical_form.calls": total(calls, "graph_core.canonical_form"),
            "graph_core.canonical_form.self_s": total(self_s, "graph_core.canonical_form"),
            "graph_core.apply_surgery.calls": total(calls, "graph_core.apply_surgery"),
            "graph_core.apply_surgery.self_s": total(self_s, "graph_core.apply_surgery"),
            "graph_core.self_s": total(self_s, "graph_core"),
            "formats_io.self_s": total(self_s, "formats_io"),
            "matchings.calls": matching_calls,
            "matchings.repeat_ratio": ratio(self.repeats["matchings"], matching_calls),
            "matchings.self_s": total(self_s, "matchings"),
            "chordality.cochord_number.calls": total(calls, "chordality.cochord_number"),
            "chordality.cochord_number.self_s": total(self_s, "chordality.cochord_number"),
            "chordality.self_s": total(self_s, "chordality"),
            "cameron_walker.self_s": total(self_s, "cameron_walker"),
            "classifier.self_s": total(self_s, "classifier"),
            "regularity_oracle.calls": oracle_calls,
            "regularity_oracle.repeat_ratio": ratio(self.repeats["regularity_oracle"], oracle_calls),
            "bounds_engine.refine_bounds.calls": total(calls, "bounds_engine.refine_bounds"),
            "bounds_engine.self_s": total(self_s, "bounds_engine"),
            "bounds_engine.point_ratio": ratio(self.points, self.intervals),
            "harness.enumerate.self_s": sum(total(self_s, f"harness.{name}") for name in ENUMERATION),
            "harness.self_s": total(self_s, "harness"),
        }
        for char in (0, 2, 3):
            out[f"regularity_oracle.char{char}.self_s"] = sum(
                s for span, s in self_s.items() if span.endswith(f"@char{char}")
            )
        return out


def _char_getter(fn):
    """Reads the field characteristic from an oracle call's arguments."""
    params = list(inspect.signature(fn).parameters.values())
    for index, param in enumerate(params):
        if param.name in ("field", "characteristic"):
            default = param.default

            def char_of(args, kwargs, index=index, name=param.name, default=default):
                value = args[index] if len(args) > index else kwargs.get(name, default)
                return getattr(value, "characteristic", value)

            return char_of
    return None

