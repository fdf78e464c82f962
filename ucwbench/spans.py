"""Spans and call counts around the public functions of the ``ucw`` modules.

:func:`install` replaces each public function with a wrapper in every module
namespace that holds it, since ``structure``, ``phisearch``, ``cli`` and the
package itself import functions from ``core`` and ``constructions`` by name.
Spans stay in memory; :meth:`Tracer.dump` writes them out at the end of a run.
"""

import functools
import json
import time

# Called once per set or per search node: a wrapper there would time itself.
UNTRACED = {"canonical_key", "elements_of", "mask_of"}

# Work counts read off a call: name -> (count name, f(args, result)).
COUNTS = {
    "phi_search": ("visited", lambda args, result: 0 if args[0].naive else result.visited),
    "phi_naive": ("visited", lambda args, result: result.visited),
    "close_under_union": ("sets", lambda args, result: len(result.sets)),
    "parse_family": ("bytes", lambda args, result: len(args[0])),
    "serialize_family": ("bytes", lambda args, result: len(result)),
}


class Tracer:
    """Spans ``[name, start, end, parent, child_time, op, count]`` in call order."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.overhead = 0.0

    def enter(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, 0.0, self.op, None])
        self.stack.append(len(self.spans) - 1)

    def leave(self, count=None):
        span = self.spans[self.stack.pop()]
        span[2] = time.perf_counter()
        span[6] = count
        if span[3] is not None:
            self.spans[span[3]][4] += span[2] - span[1]

    def wrap(self, name, fn):
        counter = COUNTS.get(name, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            self.enter(name)
            t1 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.leave()
                raise
            t2 = time.perf_counter()
            self.leave(counter(args, result) if counter else None)
            self.overhead += (t1 - t0) + (time.perf_counter() - t2)
            return result

        return traced

    def summary(self, first):
        """Per name, calls, self time ``s`` and work counts over spans[first:]."""
        out = {}
        for name, start, end, _, child, _, count in self.spans[first:]:
            row = out.setdefault(name, {"calls": 0, "s": 0.0})
            row["calls"] += 1
            row["s"] += end - start - child
            if name in COUNTS:
                kind = COUNTS[name][0]
                row[kind] = row.get(kind, 0) + (count or 0)  # None: the call raised
        return out

    def dump(self, path):
        keys = ("name", "start", "end", "parent", "child_s", "op", "count")
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def install(tracer, modules, namespaces):
    """Wrap every public function defined in ``modules``.

    Returns {function name: short module name} for what was wrapped.
    """
    names = {}
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if (name.startswith("_") or name in UNTRACED or isinstance(obj, type)
                    or not callable(obj) or getattr(obj, "__module__", None) != mod.__name__):
                continue
            traced = tracer.wrap(name, obj)
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is obj:
                        setattr(ns, attr, traced)
            names[name] = mod.__name__.rpartition(".")[2]
    return names
