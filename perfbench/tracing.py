"""Span tracing from outside the program.

The tracer replaces public functions and methods of ``turan_workbench`` with
wrappers, under the names their callers look them up by, for the length of
one traced pass.  Each wrapped call records a span: name, kind, start, end,
parent span, and -- where the call takes a search budget -- the nodes that
call spent.  Spans stay in memory; ``write_spans`` dumps them when the
benchmark ends.

A layer's self time is the duration of its spans minus the time their
direct child spans cover.  Because every span of a pass descends from the
pass's root span, the self times of all layers add up to the pass's wall
time.  Node counts come from a ``Budget`` read before and after the call; a
wrapper that receives an integer limit or None turns it into a ``Budget``
with the same limit, which the wrapped function would have done itself.
"""

from __future__ import annotations

import inspect
import json
import time
from contextlib import contextmanager

# span fields
NAME, KIND, START, END, PARENT, BUDGET, NODES, OUTCOME = range(8)


class Tracer:
    def __init__(self, budget_cls):
        self.budget_cls = budget_cls
        self.spans: list[list] = []
        self._stack = [-1]
        self._targets: list[tuple] = []

    def target(self, owner, attr: str, kind: str, budget: bool = False,
               outcome=None) -> None:
        """Register ``owner.attr`` to be wrapped while tracing.

        ``kind`` is ``<layer>.<operation>``; the layer is a module of the
        program, named as in the per-layer metrics.  ``budget``: read the
        node count from the function's ``budget`` parameter.  ``outcome``:
        maps the call's result to a value kept on the span (a hit flag, a
        verdict, a distance).
        """
        self._targets.append((owner, attr, kind, budget, outcome))

    @contextmanager
    def installed(self):
        """Wrap every target and open a root span for one pass.

        The pass's spans replace those of the previous pass; the root is
        ``spans[0]``.
        """
        self.spans = []
        saved = []
        for owner, attr, kind, budget, outcome in self._targets:
            raw = vars(owner)[attr]
            wrapper = self._wrap(owner, attr, kind, budget, outcome)
            if isinstance(raw, classmethod):
                wrapper = staticmethod(wrapper)
            saved.append((owner, attr, raw))
            setattr(owner, attr, wrapper)
        root = ["bench.pass", "bench.pass", 0.0, 0.0, -1, None, 0, None]
        self.spans.append(root)
        self._stack.append(0)
        root[START] = time.perf_counter()
        try:
            yield
        finally:
            root[END] = time.perf_counter()
            self._stack.pop()
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def _wrap(self, owner, attr, kind, budget, outcome):
        fn = getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        budget_cls = self.budget_cls
        if budget:
            params = list(inspect.signature(fn).parameters.values())
            pos = [p.name for p in params].index("budget")
            default = params[pos].default

        def wrapper(*args, **kwargs):
            rec = [name, kind, 0.0, 0.0, stack[-1], None, 0, None]
            if budget:
                if "budget" in kwargs:
                    bud = kwargs["budget"]
                elif len(args) > pos:
                    bud = args[pos]
                else:
                    bud = default
                if not isinstance(bud, budget_cls):
                    bud = budget_cls(bud)
                    if len(args) > pos:
                        args = args[:pos] + (bud,) + args[pos + 1:]
                    else:
                        kwargs["budget"] = bud
                rec[BUDGET] = bud
                before = bud.used
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if budget:
                    rec[NODES] = bud.used - before
            if outcome is not None:
                rec[OUTCOME] = outcome(result)
            return result

        return wrapper


def self_times(spans: list[list]) -> tuple[list[float], list[int]]:
    """Per-span self time and self nodes of one pass's spans."""
    self_s = [sp[END] - sp[START] for sp in spans]
    self_nodes = [sp[NODES] for sp in spans]
    for sp in spans[1:]:
        p = sp[PARENT]
        self_s[p] -= sp[END] - sp[START]
        if sp[BUDGET] is not None and sp[BUDGET] is spans[p][BUDGET]:
            self_nodes[p] -= sp[NODES]
    return self_s, self_nodes


def write_spans(spans: list[list], path) -> None:
    """One JSON array per span of a pass: id, parent id, kind, wrapped name,
    start and end in microseconds from the pass's start, and nodes spent."""
    t0 = spans[0][START]
    with open(path, "w", encoding="utf-8") as fh:
        for i, sp in enumerate(spans):
            fh.write(json.dumps([i, sp[PARENT], sp[KIND], sp[NAME],
                                 round((sp[START] - t0) * 1e6, 1),
                                 round((sp[END] - t0) * 1e6, 1), sp[NODES]]) + "\n")
