"""Result objects for the verification harness.

A failed comparison always carries its first mismatch: the location plus the
two disagreeing values.  A bare boolean is useless when a thousand-term
series differs in one coefficient.

A :class:`Recorder` runs the checks: it times every report and applies at
most one injected fault, so the harness can prove that it reports failures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple


@dataclass
class Mismatch:
    """First point where two supposedly equal objects differ."""

    location: tuple[int, ...]
    lhs: int
    rhs: int
    kind: str = "index"  # "index", "q,z" or "n" -- how to render location

    def describe(self) -> str:
        if self.kind == "q,z":
            q, z = self.location
            where = f"q^{q} z^{z}"
        elif self.kind == "n":
            where = f"n={self.location[0]}"
        else:
            where = f"index {self.location[0]}"
        return f"first mismatch at {where}: {self.lhs} != {self.rhs}"


@dataclass
class CheckReport:
    """Outcome of one verification, possibly aggregating sub-checks."""

    name: str
    bound: int | None
    passed: bool
    mismatch: Mismatch | None = None
    elapsed: float = 0.0
    children: list["CheckReport"] = field(default_factory=list)
    note: str = ""

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        status = "PASS" if self.passed else "FAIL"
        bits = [f"{pad}{status}  {self.name}"]
        if self.bound is not None:
            bits.append(f"(bound={self.bound})")
        if indent == 0:
            bits.append(f"[{self.elapsed:.2f}s]")
        if self.note:
            bits.append(f"- {self.note}")
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


def combine(name: str, bound: int | None, children: list[CheckReport]) -> CheckReport:
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
    delta: int = 1


class Recorder:
    """Runs checks, times their reports and applies at most one fault.

    A leaf report gets the time since the previous leaf or the start of its
    check, an aggregate the sum of its children (see :func:`combine`), and a
    check run through :meth:`run` its wall time.  A recorder serves one run
    and is not shared between threads.
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

    def tap(self, target: str, bounds: tuple[int | None, ...]) -> Fault | None:
        """The fault, if it corrupts the compared side ``target``.

        ``bounds`` holds the compared object's largest index per coordinate
        (None: any integer); a fault outside them raises FaultError.
        :func:`compare_values` applies it and counts each application in
        ``fired``.
        """
        fault = self.fault
        if fault is None or fault.target != target:
            return None
        if len(fault.location) != len(bounds) or any(
            bound is not None and not 0 <= index <= bound
            for index, bound in zip(fault.location, bounds)
        ):
            where = ",".join(map(str, fault.location))
            shape = ",".join("any" if b is None else f"0..{b}" for b in bounds)
            raise FaultError(f"fault location {where} is outside {target} ({shape})")
        return fault


def compare_values(
    check_id: str,
    title: str,
    bound: int,
    pairs: Iterable[tuple],
    recorder: Recorder,
    kind: str = "n",
) -> CheckReport:
    """Compare (location, lhs, rhs) triples, reporting the first difference.

    A location is one integer, or a (q, z) pair when ``kind`` is ``"q,z"``;
    ``kind`` also says how the mismatch renders it.  The sides are tapped as
    ``<check_id>.lhs|rhs`` with the bounds of :meth:`Recorder.tap`: 0..bound
    for the one integer, and 0..bound for q with any z for a pair.  A fault
    fires on the first triple at its location, which then differs, so a
    location never streamed is never faulted.  The leaf report, noted with
    ``title``, gets the time since the recorder's previous leaf.
    """
    scalar = kind != "q,z"
    shape = (bound,) if scalar else (bound, None)
    lhs_fault = recorder.tap(f"{check_id}.lhs", shape)
    rhs_fault = recorder.tap(f"{check_id}.rhs", shape)
    mismatch = None
    for where, lhs, rhs in pairs:
        at = (where,) if scalar else where
        if lhs_fault and lhs_fault.location == at:
            lhs += lhs_fault.delta
            recorder.fired += 1
        if rhs_fault and rhs_fault.location == at:
            rhs += rhs_fault.delta
            recorder.fired += 1
        if lhs != rhs:
            mismatch = Mismatch(at, lhs, rhs, kind)
            break
    now = time.perf_counter()
    report = CheckReport(
        check_id, bound, mismatch is None, mismatch, now - recorder._lap, note=title
    )
    recorder._lap = now
    return report
