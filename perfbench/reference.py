"""Reference clock: program time expressed in units of a fixed kernel.

On a shared machine the same round can take 40% longer from one minute to
the next because other tenants load the same cores.  The benchmark
therefore runs a fixed reference kernel, which does not touch the program,
before and after every round, and between trials once ``PERIOD_NS`` has
passed since its last run.  Each stretch of program time between two
kernel runs is divided by the mean duration of those two runs, so the
result counts how many kernel runs the program's work is worth at the
machine's speed of the moment.  Interference that slows the kernel and the
program alike cancels.

Set-up time is scaled the same way by ``setup_kernel``, whose work is
shaped like an import: unmarshalling and executing module code, then
parsing and walking a JSON target.
"""

from __future__ import annotations

import json
import marshal
import time

import numpy as np

ITERATIONS = 4_000
PERIOD_NS = 1_000_000_000

# Nominal seconds of one ``setup_kernel`` pass: about its duration on the
# host of the first baseline (2-vCPU shared VM, Python 3.11), where its
# median per run was 14 to 22 ms, depending on the load from other tenants.
SETUP_KERNEL_S = 0.02


def kernel(k_size: int) -> float:
    """One pass of step-shaped work; returns a value so nothing is skipped.

    Each iteration does a few small-array numpy calls and dict and float
    work, as the program's step loop does, plus one vectorised expression
    over 2K elements, as the fused beta draw over 2K shapes does.  The share
    of vector work thus grows with K as it does in the program: a kernel of
    small calls alone slowed about twice as much as the tree-2k rounds
    under the same interference, one with the vector term about as much.
    """
    x = np.linspace(0.1, 1.0, 2 * k_size)
    a = np.ones(8)
    acc = 0.0
    table = {}
    for i in range(ITERATIONS):
        a[i & 7] += 1.0
        acc += float(a.sum())
        table[i & 63] = acc
        acc += float(((1.0 + 0.3 * x) ** 3)[i % x.size])
    return acc


class ReferenceClock:
    """Kernel runs interleaved with program time, and conversions to units."""

    def __init__(self, k_size: int) -> None:
        self.k_size = k_size
        self.marks: list[tuple[int, int]] = []  # (start_ns, end_ns) of each kernel run

    def sample(self) -> None:
        start = time.perf_counter_ns()
        kernel(self.k_size)
        self.marks.append((start, time.perf_counter_ns()))

    def sample_if_due(self) -> None:
        if time.perf_counter_ns() - self.marks[-1][1] >= PERIOD_NS:
            self.sample()

    def gaps(self) -> list[tuple[int, int, float]]:
        """(start_ns, end_ns, local kernel ns) of the time between kernel runs."""
        return [
            (e0, s1, (e0 - s0 + e1 - s1) / 2)
            for (s0, e0), (s1, e1) in zip(self.marks, self.marks[1:])
        ]

    def seconds(self, start: int, end: int) -> float:
        """Length of [start, end] (ns) in seconds, kernel runs excluded."""
        return sum(overlap for overlap, _ in self._overlaps(start, end)) * 1e-9

    def units(self, start: int, end: int) -> float:
        """Length of [start, end] (ns) in kernel runs, kernel runs excluded."""
        return sum(overlap / ref for overlap, ref in self._overlaps(start, end))

    def _overlaps(self, start: int, end: int):
        """(ns of [start, end] within a gap, that gap's local kernel ns) per gap."""
        for lo, hi, ref in self.gaps():
            overlap = min(hi, end) - max(lo, start)
            if overlap > 0:
                yield overlap, ref

    def kernel_seconds(self) -> list[float]:
        return [(end - start) * 1e-9 for start, end in self.marks]


_MODULE = "\n".join(
    ["from dataclasses import dataclass"]
    + [
        f"@dataclass(frozen=True)\nclass Record{i}:\n    a: int = 0\n    b: float = 0.0\n"
        f"    c: str = ''\n    d: tuple = ()\n\n    def total(self, x):\n        return self.a + x * {i}\n"
        for i in range(6)
    ]
    + [
        f"def step{i}(x, y=1):\n    table = {{}}\n    for j in range(x):\n"
        f"        table[j] = j * y + {i}\n    return table\n"
        for i in range(60)
    ]
)
_MODULE_CODE = marshal.dumps(compile(_MODULE, "<setup-kernel>", "exec", dont_inherit=True))
_TARGET = json.dumps([{"id": i, "prereqs": [i // 2] if i else [], "p": 0.05} for i in range(1500)])


def setup_kernel() -> int:
    """One pass of import-shaped work; returns a count so nothing is skipped.

    Three executions of a module of dataclasses and functions from its
    marshalled code, as importing from ``.pyc`` files does, then a parse
    and prerequisite walk of a 1500-edge target, as ``load_config`` does.
    Under load from two busy processes on two cores, set-up time grew by
    18% and set-up time in ``setup_kernel`` passes by 2.5%.  In quiet
    minutes, the median over 15 interpreters moved from one batch to the
    next by up to 18% in passes of the numpy-heavy ``kernel``, and by up
    to 1.5% in ``setup_kernel`` passes.
    """
    count = 0
    for _ in range(3):
        namespace = {"__name__": "setup_kernel"}
        exec(marshal.loads(_MODULE_CODE), namespace)
        count += len(namespace)
    seen = set()
    for edge in json.loads(_TARGET):
        if all(p in seen for p in edge["prereqs"]):
            seen.add(edge["id"])
    return count + len(seen)
