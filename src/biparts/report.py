"""Result objects for the verification harness.

A failed comparison always carries its first mismatch: the location plus the
two disagreeing values.  A bare boolean is useless when a thousand-term
series differs in one coefficient.

A :class:`Recorder` runs the checks and makes every leaf comparison through
:meth:`Recorder.compare`: it times every report and applies at most one
injected fault, so the harness can prove that it reports failures.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, NamedTuple


class Mismatch(NamedTuple):
    """First point where two supposedly equal objects differ."""

    location: tuple[int, ...]
    lhs: int
    rhs: int
    kind: str  # "index", "q,z" or "n" -- how to render location

    def describe(self) -> str:
        if self.kind == "q,z":
            q, z = self.location
            where = f"q^{q} z^{z}"
        elif self.kind == "n":
            where = f"n={self.location[0]}"
        else:
            where = f"index {self.location[0]}"
        return f"first mismatch at {where}: {self.lhs} != {self.rhs}"


class CheckReport:
    """Outcome of one verification, possibly aggregating sub-checks."""

    def __init__(
        self,
        name: str,
        bound: int,
        passed: bool,
        mismatch: Mismatch | None = None,
        elapsed: float = 0.0,
        children: list[CheckReport] | None = None,
        note: str = "",
        compared: int | None = None,
    ):
        self.name = name
        self.bound = bound
        self.passed = passed
        self.mismatch = mismatch
        self.elapsed = elapsed
        self.children = [] if children is None else children
        self.note = note
        self.compared = compared  # triples a leaf compared; None on an aggregate

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        status = "PASS" if self.passed else "FAIL"
        bits = [f"{pad}{status}  {self.name}", f"(bound={self.bound})"]
        if indent == 0:
            bits.append(f"[{self.elapsed:.2f}s]")
        if self.note:
            bits.append(f"- {self.note}")
        if self.compared == 0:
            bits.append("- compared nothing")
        lines = [" ".join(bits)]
        if self.mismatch is not None:
            lines.append(f"{pad}      {self.mismatch.describe()}")
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "bound": self.bound,
            "passed": self.passed,
            "elapsed": self.elapsed,
        }
        if self.compared is not None:
            out["compared"] = self.compared
        if self.note:
            out["note"] = self.note
        if self.mismatch is not None:
            out["mismatch"] = {
                "location": list(self.mismatch.location),
                "lhs": self.mismatch.lhs,
                "rhs": self.mismatch.rhs,
            }
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out


def combine(name: str, bound: int, children: list[CheckReport]) -> CheckReport:
    """Aggregate sub-reports; fails iff any child fails, carries first mismatch,
    and takes the sum of their elapsed times."""
    passed = all(child.passed for child in children)
    mismatch = next((c.mismatch for c in children if c.mismatch is not None), None)
    elapsed = sum(child.elapsed for child in children)
    return CheckReport(name, bound, passed, mismatch, elapsed, children)


class FaultError(ValueError):
    """An injected fault that is malformed, out of range or never fired."""


class Fault(NamedTuple):
    """Add ``delta`` at ``location`` -- (index,), (n,) or (q_exp, z_exp) -- to
    the compared side ``target``, ``<check-id>.lhs`` or ``<check-id>.rhs``."""

    target: str
    location: tuple[int, ...]
    delta: int


class Recorder:
    """Runs checks, compares and times their leaves, applies at most one fault.

    A leaf report, made by :meth:`compare`, gets the time since the previous
    leaf or the start of its check, an aggregate the sum of its children (see
    :func:`combine`), and a check run through :meth:`run` its wall time.  A
    recorder serves one run and is not shared between threads.
    """

    def __init__(self, fault: Fault | None = None):
        if fault is not None and not fault.delta:
            raise FaultError("fault delta must be nonzero")
        self.fault = fault
        self.fired = 0  # times the fault was applied to a compared object
        self._lap = time.perf_counter()

    def run(self, check: Callable[..., CheckReport], bound: int) -> CheckReport:
        """``check(bound, self)``, stamped with its wall time."""
        start = self._lap = time.perf_counter()
        report = check(bound, self)
        report.elapsed = time.perf_counter() - start
        return report

    def compare(
        self, check_id: str, title: str, bound: int, pairs: Iterable[tuple], kind: str = "n"
    ) -> CheckReport:
        """Compare (location, lhs, rhs) triples, reporting the first difference.

        A location is one integer, or a (q, z) pair when ``kind`` is ``"q,z"``;
        ``kind`` also says how the mismatch renders it.  The fault taps the
        sides ``<check_id>.lhs`` and ``<check_id>.rhs``: its location must be
        in 0..bound, or for a pair have q in 0..bound and any z, else
        FaultError.  It fires on the first triple at its location, which then
        differs, so a location never streamed is never faulted; ``fired``
        counts each firing.  The leaf report, noted with ``title``, counts the
        triples compared, up to and including a mismatch, and gets the time
        since the previous leaf.
        """
        scalar = kind != "q,z"
        fault = self.fault
        if fault is not None and fault.target not in (f"{check_id}.lhs", f"{check_id}.rhs"):
            fault = None
        if fault is not None and (
            len(fault.location) != (1 if scalar else 2) or not 0 <= fault.location[0] <= bound
        ):
            where = ",".join(map(str, fault.location))
            shape = f"0..{bound}" if scalar else f"0..{bound},any"
            raise FaultError(f"fault location {where} is outside {fault.target} ({shape})")
        on_lhs = fault is not None and fault.target.endswith(".lhs")
        mismatch = None
        compared = 0
        for compared, (where, lhs, rhs) in enumerate(pairs, 1):
            at = (where,) if scalar else where
            if fault is not None and fault.location == at:
                self.fired += 1
                if on_lhs:
                    lhs += fault.delta
                else:
                    rhs += fault.delta
            if lhs != rhs:
                mismatch = Mismatch(at, lhs, rhs, kind)
                break
        now = time.perf_counter()
        elapsed, self._lap = now - self._lap, now
        return CheckReport(
            check_id, bound, mismatch is None, mismatch, elapsed, note=title, compared=compared
        )
