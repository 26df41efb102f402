"""In-memory span recorder that wraps the package's public names from outside.

Each wrapper is installed where the caller looks the name up (for example
``tclmarket.engine.build_demand_curve`` rather than
``tclmarket.market.build_demand_curve``), so the package itself is not
edited. A name that no longer exists is listed as absent and skipped; a
name that is never called reports zero calls. Either way the run goes on,
and the time that moved shows up in the caller's self time.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Records (name, start, end, parent) spans and per-boundary counts."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Rebind ``owner.attr`` to a recording wrapper.

        ``count(counts, args, result)`` runs after the span closes, so its
        cost falls to the caller's self time, not to the wrapped layer.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(name)
            return

        def wrapper(*args, **kwargs):
            result = self.span(name, original, *args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped name back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def calls(self) -> Counter:
        return Counter(name for name, _, _, _ in self.spans)

    def times(self) -> tuple[dict, dict, float]:
        """Per-name self seconds, per-name inclusive seconds, root seconds.

        Self time is a span's duration minus the part of it that its child
        spans cover (the union of the children's intervals, clipped to the
        parent), so overlapping or escaping children are not counted twice.
        """
        children = defaultdict(list)
        for index, (_, _, _, parent) in enumerate(self.spans):
            children[parent].append(index)
        self_s: dict = defaultdict(float)
        inclusive_s: dict = defaultdict(float)
        root_s = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for child in sorted(children[index], key=lambda c: self.spans[c][1]):
                lo = max(self.spans[child][1], reach)
                hi = min(self.spans[child][2], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            self_s[name] += (end - start) - covered
            inclusive_s[name] += end - start
            if parent == -1:
                root_s += end - start
        return dict(self_s), dict(inclusive_s), root_s

    def write(self, path: str) -> None:
        """Write every span as one CSV row: id, parent, name, start, end."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "start_s", "end_s"])
            for index, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([index, parent, name, repr(start), repr(end)])
