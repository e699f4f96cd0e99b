"""Span recording around calls into the package's public functions.

The hooks are installed from outside the package: each traced function is
replaced, in every loaded sumsetlab module that binds it, by a wrapper
that keeps (id, name, start_ns, end_ns, parent, tag) in memory. Backend
``mul_key`` methods run millions of times per pass, so they get a call
counter instead of a span. Everything is restored by ``uninstall``.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


def _kappa_tag(inst, *args, **kwargs):
    return inst.backend.spec


def _equality_pairs_tag(window, size_range, *args, **kwargs):
    """Pairs the equality checker enumerates, by its own size clamp."""
    lo, hi = max(size_range[0], 2), size_range[1]
    total = sum(math.comb(len(window), s) for s in range(lo, hi + 1))
    return total * total


# (module, attribute, tag); a dotted attribute is a method of a class.
# isoperimetry._Search.minimizers is the fragment search that
# kappa_restricted's fragment phase and enumerate_fragments both run. A
# target the package no longer has is skipped, and its metrics read 0.
SPAN_TARGETS = (
    ("setops", "product_size", None),
    ("setops", "product_set", None),
    ("setops", "dimension", None),
    ("setops", "detect_progression", None),
    ("setops", "min_progression_cover", None),
    ("isoperimetry", "kappa_restricted", _kappa_tag),
    ("isoperimetry", "_Search.minimizers", None),
    ("laws", "check_kempermann", None),
    ("laws", "check_hls", None),
    ("laws", "check_freiman_dim", None),
    ("laws", "check_ruzsa_dim", None),
    ("laws", "check_gardner_gronchi", None),
    ("laws", "check_equality_characterization", _equality_pairs_tag),
    ("laws", "check_3k4", None),
    ("laws", "check_corollary_AB", None),
    ("laws", "check_atom_lemmas", None),
    ("laws", "check_uvk", None),
    ("laws", "check_main_theorem", None),
    ("laws", "check_c_lower", None),
    ("laws", "example_klein_grid", None),
    ("laws", "example_klein_union", None),
    ("explorer", "run_campaign", None),
    ("explorer", "write_records", None),
    ("explorer", "read_records", None),
    ("explorer", "summarize", None),
    ("reports", "LawReport.to_dict", None),
    ("cli", "main", None),
)

BACKEND_CLASSES = ("LatticeBackend", "FreeBackend", "KleinBackend", "HeisenbergBackend")


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []
        self._mul_counters: dict[str, itertools.count] = {}

    # -- hooks ---------------------------------------------------------------

    def _span(self, name, fn, tag):
        spans, ids, local, perf = self.spans, self._ids, self._local, time.perf_counter_ns
        main_stack = self._main_stack

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            # a worker thread's outermost span belongs to the main thread's open span
            parent = stack[-1] if stack else (main_stack[-1:] or [None])[0]
            sid = next(ids)
            stack.append(sid)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans.append((sid, name, start, end, parent, tag(*args, **kwargs) if tag else None))

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        self.missing = []
        self._local.stack = self._main_stack
        modules = [m for n, m in list(sys.modules.items()) if n == "sumsetlab" or n.startswith("sumsetlab.")]
        for modname, attr, tag in SPAN_TARGETS:
            name = f"{modname}.{attr}"
            mod = sys.modules.get(f"sumsetlab.{modname}")
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(mod, cls_name, None)
                fn = cls.__dict__.get(meth) if isinstance(cls, type) else None
                if fn is None:
                    self.missing.append(name)
                    continue
                self._patch(cls, meth, self._span(name, fn, tag))
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            traced = self._span(name, fn, tag)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is fn]:
                    self._patch(m, key, traced)
        groups = sys.modules["sumsetlab.groups"]
        for cls_name in BACKEND_CLASSES:
            cls = getattr(groups, cls_name, None)
            if isinstance(cls, type) and "mul_key" in cls.__dict__:
                counter = self._mul_counters.setdefault(cls_name, itertools.count())
                self._patch(cls, "mul_key", _counted(cls.__dict__["mul_key"], counter))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def mul_key_calls(self) -> int:
        # next() on a count returns how many times next() was called before
        return sum(next(c) for c in self._mul_counters.values())

    # -- analysis ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, seconds by text tag, sum of number tags."""
        children = defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict = {}
        for sid, name, start, end, _, tag in self.spans:
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "by_tag": defaultdict(float), "work": 0})
            dur = end - start
            row["calls"] += 1
            row["s"] += dur / 1e9
            row["self_s"] += (dur - _covered(children.get(sid, ()), start, end)) / 1e9
            if isinstance(tag, str):
                row["by_tag"][tag] += dur / 1e9
            elif tag is not None:
                row["work"] += tag
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, tag in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "workload": self.workload, "tag": tag}) + "\n")


def _counted(fn, counter):
    tick = next

    def mul_key(self, a, b):
        tick(counter)
        return fn(self, a, b)

    mul_key.__wrapped__ = fn
    return mul_key


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]; worker threads can overlap."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
