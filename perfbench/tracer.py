"""Outside-in layer tracing: wrap the library's public functions from here.

Nothing under ``src/`` changes.  ``Tracer.install`` replaces every public
module-level function of the seven library modules (``lru_cache``
wrappers included), plus the two ``SpanMembership`` methods the
membership metric needs, by a timing wrapper, and rebinds every attribute
of every loaded ``quhom`` module that points to the same object, so
``from .zmod import contains`` call sites are traced too.  ``uninstall``
restores the originals.

Spans nest: a wrapper pushes a frame on entry and on exit adds its
duration to its parent's child time, so self time is the duration minus
the part covered by child spans.  Layer metrics are built from per-name
totals kept in memory; a metric whose functions no longer exist is
reported as absent.
"""

from __future__ import annotations

import functools
import sys
import time

MODULES = ("zmod", "complex2", "pauli", "distance", "hypermap", "oracle", "documents")
EXTRA_METHODS = (("zmod", "SpanMembership", "__init__"), ("zmod", "SpanMembership", "contains"))
ROOT = "cli.main"

# metric -> (aggregate, traced names).  "incl": time inside the outermost
# span among the names; "self": summed self time of the names.  A name
# ending in ".*" stands for every traced function of that module.
TIME_METRICS = {
    "zmod.snf_s": ("incl", ("zmod.smith_normal_form",)),
    "zmod.membership_s": ("incl", ("zmod.contains", "zmod.SpanMembership.__init__",
                                   "zmod.SpanMembership.contains")),
    "complex2.chain_s": ("incl", ("complex2.chain_complex",)),
    "complex2.homology_s": ("incl", ("complex2.homology_cardinality",)),
    "complex2.validate_s": ("incl", ("complex2.validate",)),
    "distance.css_s": ("incl", ("distance.distance_css",)),
    "distance.homological_s": ("incl", ("distance.distance_homological",)),
    "distance.logical_check_s": ("incl", ("distance.is_logical", "distance.is_in_normalizer")),
    "pauli.closure_s": ("incl", ("pauli.enumerate_pauli_closure",)),
    "pauli.stabilizer_size_s": ("incl", ("pauli.stabilizer_size",)),
    "oracle.projector_build_s": ("incl", ("oracle.dense_projector",)),
    "oracle.projector_checks_self_s": ("self", ("oracle.projector_checks",)),
    "oracle.logical_action_s": ("incl", ("oracle.verify_logical_action",)),
    "oracle.complement_duality_s": ("incl", ("oracle.complement_duality_checks",
                                             "oracle.verify_complement_duality")),
    "hypermap.convert_s": ("incl", ("hypermap.*",)),
    "documents.parse_s": ("incl", ("documents.load_json", "documents.complex_from_dict",
                                   "documents.hypermap_from_dict")),
    "cli.self_s": ("self", (ROOT,)),
}


def _dense_dim(args, kwargs, result):
    """D^n of the stabilizer spec argument."""
    spec = next(a for a in args if hasattr(a, "generators"))
    return spec.modulus**spec.n


def _snf_cells(args, kwargs, result):
    rows = args[0]
    return len(rows) * (len(rows[0]) if len(rows) else 0)


# counter -> (how it combines, traced names, value taken from (args, kwargs, result))
COUNTERS = {
    "zmod.snf_calls": ("sum", ("zmod.smith_normal_form",), lambda a, k, r: 1),
    "zmod.snf_cells": ("sum", ("zmod.smith_normal_form",), _snf_cells),
    "distance.candidates": ("sum", ("distance.distance_css", "distance.distance_homological"),
                            lambda a, k, r: r.examined),
    "pauli.closure_elements": ("sum", ("pauli.enumerate_pauli_closure",), lambda a, k, r: r.size),
    "oracle.dense_dim_max": ("max", ("oracle.dense_projector", "oracle.projector_checks",
                                     "oracle.verify_logical_action"), _dense_dim),
}

# metric -> (numerator counter, denominator time metrics)
RATES = {
    "distance.candidates_per_s": ("distance.candidates", ("distance.css_s", "distance.homological_s")),
    "pauli.closure_elements_per_s": ("pauli.closure_elements", ("pauli.closure_s",)),
}

LAYER_METRICS = tuple(TIME_METRICS) + tuple(COUNTERS) + tuple(RATES)


def _public_functions(module):
    """Public functions and lru_cache wrappers defined in the module itself."""
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self._stack = []  # frames: [name, start, child_time]
        self._active = {}  # group key -> number of open spans in the group
        self.calls = {}
        self.self_s = {}
        self.group_s = {}
        self.counts = {}
        self.counter_errors = set()
        self.traced_names = set()
        self._groups_of = {}  # traced name -> group keys it belongs to
        self._counters_of = {}  # traced name -> counters fed by its calls
        self._patches = []  # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self):
        wrappers = {}  # id(original) -> wrapper
        originals = {}
        for short in MODULES:
            module = sys.modules[f"quhom.{short}"]
            for name, fn in _public_functions(module):
                originals[id(fn)] = fn
                wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for short, cls_name, meth in EXTRA_METHODS:
            cls = getattr(sys.modules[f"quhom.{short}"], cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is not None:
                self._patch(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "quhom" and not mod_name.startswith("quhom."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and originals[id(value)] is value:
                    self._patch(module, attr, wrappers[id(value)])
        self._index()

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _index(self):
        self.traced_names.add(ROOT)
        self._groups_of = {}
        for metric, (_, names) in TIME_METRICS.items():
            for traced in self.traced_names:
                if any(traced == n or (n.endswith(".*") and traced.startswith(n[:-1])) for n in names):
                    self._groups_of.setdefault(traced, []).append(metric)
        self._counters_of = {}
        for counter, (_, names, _) in COUNTERS.items():
            for n in names:
                self._counters_of.setdefault(n, []).append(counter)

    # -- spans --------------------------------------------------------------

    def _wrap(self, name, fn):
        self.traced_names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def call(self, name, fn, *args, **kwargs):
        groups = self._groups_of.get(name, ())
        opened = [g for g in groups if not self._active.get(g)]
        for g in groups:
            self._active[g] = self._active.get(g, 0) + 1
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - frame[1]
            self._stack.pop()
            if self._stack:
                self._stack[-1][2] += duration
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[2]
            for g in groups:
                self._active[g] -= 1
            for g in opened:
                self.group_s[g] = self.group_s.get(g, 0.0) + duration
        for counter in self._counters_of.get(name, ()):
            self._count(counter, args, kwargs, result)
        return result

    def _count(self, counter, args, kwargs, result):
        value_of = COUNTERS[counter][2]
        try:
            value = value_of(args, kwargs, result)
        except (AttributeError, TypeError, IndexError, StopIteration):
            self.counter_errors.add(counter)
            return
        self._add_count(counter, value)

    def _add_count(self, counter, value):
        old = self.counts.get(counter, 0)
        self.counts[counter] = old + value if COUNTERS[counter][0] == "sum" else max(old, value)

    # -- metrics ------------------------------------------------------------

    def absent(self):
        """Layer metrics none of whose functions exist in the library."""
        present = {g for groups in self._groups_of.values() for g in groups}
        gone = [m for m in TIME_METRICS if m not in present]
        gone += [c for c, (_, names, _) in COUNTERS.items()
                 if not any(n in self.traced_names for n in names) or c in self.counter_errors]
        gone += [r for r, (num, dens) in RATES.items() if num in gone or any(d in gone for d in dens)]
        return sorted(gone)

    def totals(self):
        """Every layer metric, summed over all traced calls so far (absent ones as 0)."""
        out = {}
        for metric, (how, names) in TIME_METRICS.items():
            if how == "incl":
                out[metric] = self.group_s.get(metric, 0.0)
            else:
                out[metric] = sum(self.self_s.get(n, 0.0) for n in names)
        for counter in COUNTERS:
            out[counter] = self.counts.get(counter, 0)
        for rate, (num, dens) in RATES.items():
            seconds = sum(out[d] for d in dens)
            out[rate] = out[num] / seconds if seconds > 0 else 0.0
        return out

    def state(self) -> dict:
        """Everything ``merge`` needs, as plain data."""
        return {"traced_names": sorted(self.traced_names), "calls": self.calls, "self_s": self.self_s,
                "group_s": self.group_s, "counts": self.counts,
                "counter_errors": sorted(self.counter_errors)}

    def merge(self, state: dict):
        """Add the totals of a tracer that ran elsewhere, such as in a child process."""
        for key in ("calls", "self_s", "group_s"):
            mine = getattr(self, key)
            for name, value in state[key].items():
                mine[name] = mine.get(name, 0) + value
        for name, value in state["counts"].items():
            self._add_count(name, value)
        self.counter_errors.update(state["counter_errors"])
        self.traced_names.update(state["traced_names"])
        self._index()

    def per_round(self, rounds: int):
        """``totals`` with times and summed counts divided by the number of traced rounds."""
        out = self.totals()
        for name in out:
            if name not in RATES and COUNTERS.get(name, ("sum",))[0] == "sum":
                out[name] /= rounds
        return out

    def self_time_total(self):
        return sum(self.self_s.values())

    def modules_hit(self):
        return sorted({name.split(".")[0] for name, calls in self.calls.items() if calls})
