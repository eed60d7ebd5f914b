#!/usr/bin/env python3
"""The biparts benchmark: real CLI invocations, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Each invocation is a fresh ``python -m biparts.cli ...`` process with
``PYTHONPATH=src``, run one at a time, and every output is checked against
an independent reference (see workloads.py).  ``--trace 0`` repeats the
workload's invocation sequence for S seconds and reports the end-to-end
metrics as medians over the repeats, with the times scaled to a reference
host speed measured by a probe loop between invocations.  ``--trace 1`` is
the separate traced run: it alternates an untraced and a traced pass of the
same sequence (the traced pass runs each invocation under tracer.py) and
reports per-layer metrics as medians over the pairs, plus the kernel
micro-rows and the per-module import times.  ``--self-test`` checks BENCHMARK.json against the
metric lists below and shows that corrupted references are caught.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a run header and the same metrics as a readable table.  Outputs and the
traced run's spans go to ``perfbench/out/``.  README.md documents the
metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Picker, References, verify_failures

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

#: A hung invocation is killed and counted as failed after this long.
INVOCATION_LIMIT_S = 120
#: Fresh imports timed before the first repeat; one more follows each repeat.
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
#: Iterations of the host-speed probe, and about its median time on the reference host.
PROBE_LOOPS = 1_000_000
PROBE_REFERENCE_S = 0.1

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_rate", "ratio", "higher"),
)

#: Span name -> metrics it reports; the third entry names its work count.
SPAN_METRICS = {
    "kernels.extend_partition_table": ("calls", "self_s", "entries"),
    "kernels.extend_bipartition_table": ("calls", "self_s", "entries"),
    "kernels.extend_self_convolution": ("calls", "self_s", "entries"),
    "kernels.mul_series": ("calls", "self_s", "coeffs"),
    "kernels.invert_series": ("calls", "self_s", "coeffs"),
    "kernels.fold_binomial": ("calls", "self_s"),
    "partitions.enumerate_partitions": ("calls", "self_s", "items"),
    "partitions.enumerate_bipartitions": ("calls", "self_s", "items"),
    "series.product_series": ("calls", "self_s"),
    "series.TruncatedSeries.mul": ("calls", "self_s"),
    "series.TruncatedSeries.inverse": ("calls", "self_s"),
    "series.BivariateSeries.mul": ("calls", "self_s", "terms"),
    "symbols.enumerate_classes": ("calls", "self_s", "items"),
    "symbols.class_counts": ("calls", "self_s"),
    "symbols.SpecialSymbol.family": ("calls", "self_s", "items"),
    "cli.main": ("self_s",),
}
VERIFY_CHECKS = (
    "euler", "thm1", "lemma22", "jacobi", "firstproof",
    "families", "corollary", "appendix", "congruence",
)
VERIFY_SUBCHECKS = (
    "thm1.convolution", "thm1.enumeration", "thm1.degenerate",
    "lemma22.ratio", "lemma22.step1", "lemma22.step2",
    "lemma22.distinct_odd", "lemma22.distinct_counts", "lemma22.odd_counts",
    "firstproof.p_table", "firstproof.p2_table", "firstproof.identity",
    *(f"families.n{n}" for n in range(16)),
    "corollary.recurrence", "corollary.enumeration",
    "appendix.factor_square", "appendix.dissections",
    "appendix.partition_form", "appendix.bipartition_form",
    "appendix.dissect2", "appendix.dissect3", "appendix.dissect4", "appendix.ramanujan",
    "congruence.bipartition", "congruence.partition",
)
KERNEL_ROWS = (
    "partition_table", "bipartition_table", "self_convolution",
    "mul_series", "invert_series", "fold_binomial",
)
IMPORT_MODULES = (
    "biparts", "biparts.kernels", "biparts._fallback", "biparts.report",
    "biparts.partitions", "biparts.series", "biparts.symbols",
    "biparts.verify", "biparts.cli",
)
UNITS = {"calls": "count", "entries": "count", "coeffs": "count", "items": "count", "terms": "count"}


def _import_metric(module: str) -> str:
    return f"setup.import.{module.removeprefix('biparts.')}_s"


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, grouped by layer."""

    def spans(layer: str) -> list[tuple[str, str, str]]:
        return [
            (f"{span}.{metric}", UNITS.get(metric, "s"), "lower")
            for span, metrics in SPAN_METRICS.items()
            if span.startswith(layer + ".")
            for metric in metrics
        ]

    return [
        *spans("kernels"),
        ("kernels.table_mb", "MB", "lower"),
        *((f"kernels.bench.{row}_s", "s", "lower") for row in KERNEL_ROWS),
        *spans("partitions"),
        ("partitions.enumerate_bipartitions.repeat_ratio", "ratio", "lower"),
        ("partitions.lookups", "count", "lower"),
        ("partitions.fills", "count", "lower"),
        ("partitions.hit_ratio", "ratio", "higher"),
        ("partitions.cap_refusals", "count", "lower"),
        *spans("series"),
        *spans("symbols"),
        ("symbols.from_bipartition.calls", "count", "lower"),
        ("symbols.to_bipartition.calls", "count", "lower"),
        *((f"verify.{check}.total_s", "s", "lower") for check in VERIFY_CHECKS + VERIFY_SUBCHECKS),
        ("verify.failed", "count", "lower"),
        *spans("cli"),
        ("cli.output_bytes", "bytes", "lower"),
        *((_import_metric(module), "s", "lower") for module in IMPORT_MODULES),
        ("trace.overhead_s", "s", "lower"),
    ]


# ---------------------------------------------------------------------------
# Running invocations.


@dataclass
class Finished:
    seconds: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


class Launcher:
    """Runs commands from the repository root through launcher.py.

    The launcher reaps each child with ``os.wait4``, which gives that child's
    own peak RSS; RUSAGE_CHILDREN would give a running maximum over every
    child reaped so far.  Used as a context manager.
    """

    def __enter__(self) -> "Launcher":
        OUT.mkdir(exist_ok=True)
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            cwd=ROOT,
            env=ENV,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, *exc_info) -> None:
        self._proc.stdin.close()
        self._proc.wait()

    def run(self, cmd: list[str]) -> Finished:
        out, err = OUT / "stdout", OUT / "stderr"
        self._proc.stdin.write(json.dumps([cmd, str(out), str(err), INVOCATION_LIMIT_S]) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher.py exited early")
        seconds, rss_kb, status = json.loads(reply)
        return Finished(
            seconds, rss_kb / 1024, os.waitstatus_to_exitcode(status), out.read_bytes(), err.read_bytes()
        )


NO_TRACE = {"spans": [], "counts": {}, "subchecks": {}, "table_bytes": 0}


@dataclass
class Sequence:
    wall_s: float = 0.0
    scaled_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    output_bytes: int = 0
    verify_failed: int = 0
    traces: list[dict] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)


def probe_seconds() -> float:
    """Time of a fixed pure-Python loop in this process: the host-speed yardstick.

    It is never changed by the program under test, so its time moves only
    with the speed the host gives this machine.
    """
    begin = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - begin


def run_sequence(launcher: Launcher, invocations, traced: bool) -> Sequence:
    """Run the invocations one at a time, checking each output."""
    seq = Sequence()
    times = []
    for index, inv in enumerate(invocations):
        seq.probes.append(probe_seconds())
        spans = OUT / f"spans-{index}.json"
        if traced:
            spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), *inv.args]
        else:
            cmd = [sys.executable, "-m", "biparts.cli", *inv.args]
        done = launcher.run(cmd)
        times.append(done.seconds)
        seq.peak_rss_mb = max(seq.peak_rss_mb, done.rss_mb)
        seq.attempted += 1
        seq.output_bytes += len(done.stdout)
        if done.code != 0:
            reason = f"exit code {done.code}"
        elif b"Traceback" in done.stderr:
            reason = "traceback on stderr"
        else:
            reason = inv.check(done.stdout)
        if traced:
            if spans.is_file():
                seq.traces.append(json.loads(spans.read_text()))
            else:
                seq.traces.append(NO_TRACE)
                reason = reason or "tracer wrote no spans"
        if reason:
            seq.failures.append(f"biparts {' '.join(inv.args)}: {reason}")
        if inv.is_verify:
            seq.verify_failed += verify_failures(done.stdout)
    seq.probes.append(probe_seconds())
    seq.wall_s = sum(times)
    seq.scaled_s = sum(map(scaled, times, seq.probes, seq.probes[1:]))
    return seq


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference host speed, from the probes either side."""
    return seconds * PROBE_REFERENCE_S / ((before + after) / 2)


def repeat(seconds: float, started: float, step) -> None:
    """Call ``step()`` until the run has used ``seconds`` since ``started``.

    A new repeat starts only when about half of one more still fits, so the
    run ends near its budget instead of a whole repeat past it.
    """
    durations = []
    while True:
        begin = time.perf_counter()
        step()
        durations.append(time.perf_counter() - begin)
        if time.perf_counter() - started + statistics.median(durations) / 2 >= seconds:
            return


# ---------------------------------------------------------------------------
# Set-up measurements and the run header.


def warm_up(launcher: Launcher) -> str:
    """Import everything once (writing bytecode caches); returns the backend."""
    done = launcher.run([sys.executable, "-c", "import biparts.cli, biparts.kernels as k; print(k.BACKEND)"])
    if done.code != 0:
        raise SystemExit(f"cannot import biparts from src/: {done.stderr.decode(errors='replace')}")
    return done.stdout.decode().strip()


def setup_seconds(launcher: Launcher) -> float:
    """Fresh-process wall time of ``import biparts.cli``."""
    return launcher.run([sys.executable, "-c", "import biparts.cli"]).seconds


def import_times(launcher: Launcher) -> dict[str, float]:
    """Median self import time of each biparts module, from -X importtime."""
    pattern = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)")
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORTTIME_REPEATS):
        done = launcher.run([sys.executable, "-X", "importtime", "-c", "import biparts.cli"])
        found = {m: float(us) / 1e6 for us, m in pattern.findall(done.stderr.decode())}
        for module in IMPORT_MODULES:
            samples[module].append(found.get(module, 0.0))
    return {_import_metric(m): statistics.median(v) for m, v in samples.items()}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def header(workload: str, seed: int, backend: str, refs: References) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "backend": backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "p_reference": refs.p_route,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced pass.


def layer_metrics(seq: Sequence) -> tuple[dict[str, float], Counter, Counter]:
    """Per-layer metrics of one traced pass, the call count of each span, and
    the self time summed per layer (module)."""
    calls, self_s, total, work = Counter(), Counter(), Counter(), Counter()
    counts, subchecks = Counter(), Counter()
    table_bytes = 0
    for trace in seq.traces:
        spans = trace["spans"]
        inner = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                inner[parent] += end - start
        for (name, start, end, _, amount), covered in zip(spans, inner):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - covered
            work[name] += amount
        counts.update(trace["counts"])
        subchecks.update(trace["subchecks"])
        table_bytes = max(table_bytes, trace["table_bytes"])

    metrics: dict[str, float] = {}
    for span, names in SPAN_METRICS.items():
        for name in names:
            value = {"calls": calls, "self_s": self_s}.get(name, work)[span]
            metrics[f"{span}.{name}"] = value
    items = work["partitions.enumerate_bipartitions"]
    distinct = counts["partitions.enumerate_bipartitions.distinct"]
    lookups = counts["partitions.lookups"]
    metrics.update(
        {
            "partitions.enumerate_bipartitions.repeat_ratio": items / distinct if distinct else 0.0,
            "partitions.lookups": lookups,
            "partitions.fills": counts["partitions.fills"],
            "partitions.hit_ratio": 1 - counts["partitions.fills"] / lookups if lookups else 0.0,
            "partitions.cap_refusals": counts["partitions.cap_refusals"],
            "kernels.table_mb": table_bytes / 2**20,
            "symbols.from_bipartition.calls": counts["symbols.from_bipartition.calls"],
            "symbols.to_bipartition.calls": counts["symbols.to_bipartition.calls"],
            "verify.failed": seq.verify_failed,
            "cli.output_bytes": seq.output_bytes,
        }
    )
    for check in VERIFY_CHECKS:
        metrics[f"verify.{check}.total_s"] = total[f"verify.{check}"]
    for sub in VERIFY_SUBCHECKS:
        metrics[f"verify.{sub}.total_s"] = subchecks[sub]
    for name in ("symbols.from_bipartition", "symbols.to_bipartition"):
        calls[name] = counts[f"{name}.calls"]
    layers = Counter()
    for name, seconds in self_s.items():
        layers[name.split(".", 1)[0]] += seconds
    return metrics, calls, layers


# ---------------------------------------------------------------------------
# The runs.


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failures: list[str]
    notes: dict = field(default_factory=dict)
    spans: list | None = None


def timed_run(launcher: Launcher, workload: str, seed: int, seconds: float, refs: References) -> Result:
    build, _ = WORKLOADS[workload]
    pick = Picker(seed)
    setups, walls, peaks, failures = [], [], [], []
    raw_setups, raw_walls, probes = [], [], []
    attempted = 0

    def setup(before: float) -> None:
        seconds = setup_seconds(launcher)
        probes.append(probe_seconds())
        raw_setups.append(seconds)
        setups.append(scaled(seconds, before, probes[-1]))

    probes.append(probe_seconds())
    for _ in range(SETUP_REPEATS):
        setup(probes[-1])

    def step():
        nonlocal attempted
        seq = run_sequence(launcher, build(pick, refs), traced=False)
        walls.append(seq.scaled_s)
        raw_walls.append(seq.wall_s)
        probes.extend(seq.probes)
        peaks.append(seq.peak_rss_mb)
        attempted += seq.attempted
        failures.extend(seq.failures)
        setup(seq.probes[-1])

    repeat(seconds, time.perf_counter(), step)
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(peaks),
        "pass_rate": 1 - len(failures) / attempted,
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    return Result(
        {name: (value, units[name]) for name, value in values.items()},
        attempted,
        failures,
        {
            "repeats": len(walls),
            "fail_rate": len(failures) / attempted,
            "unscaled_wall_s": statistics.median(raw_walls),
            "unscaled_setup_s": statistics.median(raw_setups),
            "probe_s": statistics.median(probes),
        },
    )


def traced_run(launcher: Launcher, workload: str, seed: int, seconds: float, refs: References) -> Result:
    build, expected = WORKLOADS[workload]
    pick = Picker(seed)
    imports = import_times(launcher)
    started = time.perf_counter()
    rows = json.loads(launcher.run([sys.executable, str(HERE / "kernel_rows.py")]).stdout)
    samples, layer_samples, failures, spans = [], [], [], []
    attempted = 0
    missing: set[str] = set()

    def step():
        nonlocal attempted
        invocations = build(pick, refs)
        plain = run_sequence(launcher, invocations, traced=False)
        traced = run_sequence(launcher, invocations, traced=True)
        metrics, calls, layers = layer_metrics(traced)
        metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
        samples.append(metrics)
        layer_samples.append(layers)
        missing.update(name for name in expected if not calls[name])
        attempted += plain.attempted + traced.attempted
        failures.extend(plain.failures + traced.failures)
        for inv, trace in zip(invocations, traced.traces):
            invocation = f"{len(samples)}:{' '.join(inv.args)}"
            spans.extend([invocation, *span[:4]] for span in trace["spans"])

    repeat(seconds, started, step)
    values = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    values.update(rows)
    values.update(imports)
    for name in sorted(missing):
        failures.append(f"traced run recorded no calls of {name}")
    layer_self_s = {
        layer: round(statistics.median(s[layer] for s in layer_samples), 4)
        for layer in layer_samples[0]
    }
    notes = {"pairs": len(samples), "fail_rate": len(failures) / attempted, "layer_self_s": layer_self_s}
    units = {name: unit for name, unit, _ in per_layer_spec()}
    return Result(
        {name: (values[name], unit) for name, unit in units.items()},
        attempted,
        failures,
        notes,
        spans,
    )


def report(head: dict, result: Result) -> None:
    print("# " + json.dumps({**head, **result.notes}))
    for failure in result.failures:
        print(f"# FAILED {failure}")
    for name, (value, unit) in result.metrics.items():
        print(f"{name:<52} {value:>16.6g} {unit}")
    if result.spans is not None:
        trace_path = OUT / f"trace-{head['workload']}-seed{head['seed']}.json"
        trace_path.write_text(json.dumps({"header": head, "spans": result.spans}))
        print(f"# spans [invocation, name, start, end, parent] written to {trace_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not result.failures,
                "attempted": result.attempted,
                "failed": len(result.failures),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )


def self_test() -> int:
    """BENCHMARK.json matches the metric lists, and corrupted references fail."""
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = lambda key: [(m["name"], m["unit"], m["better"]) for m in spec[key]]
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if listed("end_to_end") != list(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if listed("per_layer") != per_layer_spec():
        problems.append("BENCHMARK.json per_layer differs from run.per_layer_spec()")
    corrupted = References(skew=1)
    with Launcher() as launcher:
        warm_up(launcher)
        sequences = {
            workload: run_sequence(launcher, build(Picker(0), corrupted), traced=False)
            for workload, (build, _) in WORKLOADS.items()
        }
    for workload, seq in sequences.items():
        rate = len(seq.failures) / seq.attempted
        print(f"# corrupted references on {workload}: fail_rate {rate:.3f} ({len(seq.failures)}/{seq.attempted})")
        if len(seq.failures) != seq.attempted:
            problems.append(f"{workload}: corrupted references left {seq.attempted - len(seq.failures)} invocations passing")
    for problem in problems:
        print(f"# SELF-TEST FAILED {problem}")
    print("# self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "biparts" / "cli.py").is_file():
        print(f"error: no biparts sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    refs = References()
    run = traced_run if args.trace else timed_run
    with Launcher() as launcher:
        head = header(args.workload, args.seed, warm_up(launcher), refs)
        result = run(launcher, args.workload, args.seed, args.seconds, refs)
    report(head, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
