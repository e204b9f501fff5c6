#!/usr/bin/env python3
"""pcqed benchmark.

Run from the root of a pcqed checkout:

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 20 --trace 0

It imports pcqed from ``src/`` of that checkout (and refuses to run without
it), repeats whole rounds of the workload's operations for ``--seconds``,
checks every output against the references in ``refs.py`` and prints, as
its last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

WORKLOAD_NAMES = ("cli-cold", "closed-form", "ode-transits", "field-traces")
OUT_ROOT = Path(".perfbench_out")
SETUP_PROBES = 7   # fresh processes that repeat set-up; setup_s is their median
IMPORT_PROBES = 3  # fresh processes that time `import pcqed.cli`
SECONDS_PER_START = 0.05  # nominal wall time of a bare interpreter start, to state setup_s in seconds
# BLAS and OpenMP pools left spinning after an operation would slow the calibration
# loop beside the next one; every process of the benchmark gets one thread each.
THREAD_LIMITS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mib": "MiB", "round_cal": "cal"}

# Per-layer metric -> span name whose self time (or call count) it reports.
LAYER_TIMES = {
    "cli.validate_s": "cli.validate",
    "cli.evolve_s": "cli.evolve",
    "cli.sweep_s": "cli.sweep",
    "cli.calibrate_s": "cli.calibrate",
    "cli.gate_report_s": "cli.gate_report",
    "cli.field_stats_s": "cli.field_stats",
    "cli.profile_s": "cli.profile",
    "io.csv_write_s": "io.csv_write",
    "coupling.pulse_area_s": "coupling.pulse_area",
    "sweep.surface_s": "sweep.surface",
    "gates.calibrate_s": "gates.calibrate",
    "gates.truth_table_analytic_s": "gates.truth_table_analytic",
    "analytic.trajectory_s": "analytic.trajectory",
    "gates.truth_table_ode_s": "gates.truth_table_ode",
    "ode.evolve_s": "ode.evolve",
    "fieldgrid.synthesize_s": "fieldgrid.synthesize",
    "fieldgrid.mode_stats_s": "fieldgrid.mode_stats",
    "fieldgrid.trace_s": "fieldgrid.trace",
}
LAYER_CALLS = {"coupling.pulse_area_calls": "coupling.pulse_area", "ode.evolve_calls": "ode.evolve"}
LAYER_COUNTS = {"io.output_bytes": "bytes", "sweep.cells": "count", "ode.nfev": "count",
                "fieldgrid.cells": "count"}
ACCURACY_UNITS = {
    "coupling.area_err_max": "rad",
    "sweep.amp_err_max": "abs",
    "analytic.trajectory_err_max": "abs",
    "ode.amp_err_max": "abs",
    "ode.norm_drift_max": "abs",
    "fieldgrid.mode_volume_rel_err": "rel",
}
IMPORT_METRICS = ("import.pcqed_cli_s", "import.scipy_s", "import.jsonschema_s")
PER_LAYER_UNITS = {
    **{name: "s" for name in IMPORT_METRICS},
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_CALLS},
    **LAYER_COUNTS,
    **ACCURACY_UNITS,
    "trace.overhead_s": "s",
    "calibration.loop_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Runner:
    """Runs rounds of operations, counting attempts, failures and check errors."""

    def __init__(self, checks, tracer=None) -> None:
        self.checks = checks
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.loops: list[float] = []  # every calibration loop time of the run

    def round(self, ops, span_per_op: bool = False) -> float:
        """Run each op once.

        Returns the summed time of the ops in calibration units: each op's
        time divided by the mean of the calibration loops timed just before
        and just after it (checks excluded).
        """
        import workloads

        cal = 0.0
        for op in ops:
            self.attempted += 1
            before = workloads.calibration_loop()
            start = time.perf_counter()
            try:
                out = self.tracer.call(op.name, op.run) if span_per_op else op.run()
                failure = None
            except Exception as exc:  # an operation failure is counted, not fatal
                failure = exc
            elapsed = time.perf_counter() - start
            after = workloads.calibration_loop()
            self.loops += [before, after]
            cal += 2.0 * elapsed / (before + after)
            if failure is not None:
                self.failed += 1
                print(f"perfbench: {op.name} failed: {failure!r}", file=sys.stderr)
                continue
            with self._untraced():
                try:
                    op.check(out, self.checks)
                except Exception as exc:  # a check that cannot complete is a wrong output
                    self.checks.errors.append(f"{op.name}: check raised {exc!r}")
        return cal

    def rounds(self, ops, seconds: float) -> list[float]:
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            times.append(self.round(ops))
        return times

    def _untraced(self):
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()


def run_child(args, timeout: float = 120.0) -> subprocess.CompletedProcess:
    import workloads

    proc = subprocess.run(args, env=workloads.child_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[1:3]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return proc


def interpreter_start() -> float:
    """Wall time of a bare `python -c pass` child, the unit set-up is measured in."""
    start = time.perf_counter()
    run_child([sys.executable, "-c", "pass"])
    return time.perf_counter() - start


def setup_probe(args) -> float:
    """Set-up time of one fresh process, in interpreter starts.

    The child times its own set-up, which is divided by the mean of the bare
    interpreter starts run just before and just after it.  On a busy host,
    imports slow about as much as an interpreter start does, and about half
    as much as the calibration loop does (README).
    """
    before = interpreter_start()
    proc = run_child([sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", "0", "--setup-probe"])
    after = interpreter_start()
    return 2.0 * float(proc.stdout.strip().splitlines()[-1]) / (before + after)


def import_metrics() -> dict[str, float]:
    """Cold `import pcqed.cli` wall time, and scipy's and jsonschema's shares of it."""
    code = "import time; t = time.perf_counter(); import pcqed.cli; print(repr(time.perf_counter() - t))"
    samples = [float(run_child([sys.executable, "-c", code]).stdout) for _ in range(IMPORT_PROBES)]
    proc = run_child([sys.executable, "-X", "importtime", "-c", "import pcqed.cli"])
    return {
        "import.pcqed_cli_s": statistics.median(samples),
        "import.scipy_s": importtime_cost(proc.stderr, "scipy"),
        "import.jsonschema_s": importtime_cost(proc.stderr, "jsonschema"),
    }


def importtime_cost(report: str, package: str) -> float:
    """Seconds spent importing ``package``, dependencies first loaded by it included.

    `-X importtime` prints a module after its children, indented two spaces
    per level; the cumulative times of the package's outermost modules sum
    to its whole cost.
    """
    entries = []
    for line in report.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, int(cumulative), name.strip()))
    ours = lambda n: n == package or n.startswith(package + ".")  # noqa: E731
    total, ancestors = 0, []
    for depth, cumulative, name in reversed(entries):
        del ancestors[depth:]
        if ours(name) and not any(ours(a) for a in ancestors):
            total += cumulative
        ancestors.append(name)
    return total * 1e-6


def layer_metrics(tracer, census_snapshot, n_rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures: the mean per traced round for the layers the
    workload runs, the census's own value for the layers it never runs."""
    self_times, calls, counts = tracer.self_times(), tracer.calls(), dict(tracer.counts)
    base_times, base_calls, base_counts = census_snapshot

    def pick(ran: bool, total: dict, base: dict, key: str) -> float:
        return (total.get(key, 0) - base.get(key, 0)) / n_rounds if ran else base.get(key, 0)

    out = {}
    for metric, span in LAYER_TIMES.items():
        if span in calls:
            out[metric] = (pick(calls[span] > base_calls.get(span, 0), self_times, base_times, span), "s")
    for metric, span in LAYER_CALLS.items():
        if span in calls:
            out[metric] = (pick(calls[span] > base_calls.get(span, 0), calls, base_calls, span), "count")
    for metric, unit in LAYER_COUNTS.items():
        if metric in counts:
            out[metric] = (pick(counts[metric] > base_counts.get(metric, 0), counts, base_counts, metric),
                           unit)
    return out


def measure(args, ops, out_dir: Path, checks) -> tuple[Runner, dict]:
    import workloads

    if args.trace == 0:
        runner = Runner(checks)
        rounds = runner.rounds(ops, args.seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
        peak_rss = resource.getrusage(who).ru_maxrss / 1024.0
        setup_starts = statistics.median(setup_probe(args) for _ in range(SETUP_PROBES))
        metrics = {
            "setup_s": setup_starts * SECONDS_PER_START,
            "peak_rss_mib": peak_rss,
            "round_cal": statistics.median(rounds),
        }
        return runner, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    # Traced run: untraced rounds, then one traced census pass over the bundled
    # configs (so every layer reports on every workload), then traced rounds.
    tracer = spans.Tracer()
    runner = Runner(checks, tracer)
    untraced = runner.rounds(ops, args.seconds / 2)
    census = workloads.census_ops(out_dir / "census")
    patches = spans.instrument(tracer, layer_probes())
    try:
        runner.round(census, span_per_op=True)
        snapshot = (tracer.self_times(), tracer.calls(), dict(tracer.counts))
        traced = runner.rounds(ops, args.seconds / 2)
    finally:
        spans.restore(patches)
    metrics = layer_metrics(tracer, snapshot, len(traced))
    metrics.update({k: (v, "s") for k, v in import_metrics().items()})
    for name, unit in ACCURACY_UNITS.items():
        if name in checks.accuracy:
            metrics[name] = (checks.accuracy[name], unit)
    # Compared in calibration units, since the two halves run at different times.
    loop_s = statistics.median(runner.loops)
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (overhead * loop_s, "s")
    metrics["calibration.loop_s"] = (loop_s, "s")
    return runner, metrics


def layer_probes():
    """The wrapped pcqed functions; their span names feed LAYER_TIMES and LAYER_CALLS."""
    Probe = spans.Probe

    def engine(args, kwargs):
        return "gates.truth_table_" + (kwargs["engine"] if "engine" in kwargs else args[1])

    def counter(name, amount):
        return lambda tracer, args, kwargs, result: tracer.count(name, amount(result))

    def written(result):
        paths = result if isinstance(result, tuple) else (result,)
        return sum(Path(p).stat().st_size for p in paths)

    csv_bytes = counter("io.output_bytes", written)
    return [
        Probe("pcqed.coupling", "pulse_area", "coupling.pulse_area"),
        Probe("pcqed.sweep", "surface", "sweep.surface",
              counter("sweep.cells", lambda grid: grid.a_surface.size)),
        Probe("pcqed.gates", "calibrate_velocity", "gates.calibrate"),
        Probe("pcqed.gates", "truth_table", engine),
        Probe("pcqed.analytic", "analytic_trajectory", "analytic.trajectory"),
        Probe("pcqed.ode", "evolve", "ode.evolve",
              counter("ode.nfev", lambda traj: traj.diagnostics["nfev"])),
        Probe("pcqed.fieldgrid", "synthesize_mode", "fieldgrid.synthesize",
              counter("fieldgrid.cells", lambda grid: grid.epsilon.size)),
        Probe("pcqed.fieldgrid", "peak_energy_point", "fieldgrid.mode_stats"),
        Probe("pcqed.fieldgrid", "mode_volume", "fieldgrid.mode_stats"),
        Probe("pcqed.fieldgrid", "polarization_fraction", "fieldgrid.mode_stats"),
        Probe("pcqed.fieldgrid", "coupling_trace_from_field", "fieldgrid.trace"),
        Probe("pcqed.ode", "trajectory_to_csv", "io.csv_write", csv_bytes),
        Probe("pcqed.sweep", "surfaces_to_csv", "io.csv_write", csv_bytes),
        Probe("pcqed.coupling", "trace_to_csv", "io.csv_write", csv_bytes),
        Probe("jsonschema", "validate", "cli.validate"),
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path("src").resolve()
    if not (src / "pcqed" / "__init__.py").is_file():
        print("perfbench: src/pcqed not found; run from the root of a pcqed checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    for name in THREAD_LIMITS:
        os.environ[name] = "1"  # before numpy loads; children inherit it
    out_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"

    start = time.perf_counter()
    import workloads  # imports pcqed

    ops = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    args.setup_s = time.perf_counter() - start

    import pcqed

    if Path(pcqed.__file__).resolve().parent != src / "pcqed":
        print(f"perfbench: imported pcqed from {pcqed.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(args.setup_s))
        return 0

    checks = workloads.Checks()
    try:
        runner, metrics = measure(args, ops, out_dir, checks)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if OUT_ROOT.is_dir() and not any(OUT_ROOT.iterdir()):
            OUT_ROOT.rmdir()
    for error in checks.errors[:20]:
        print(f"perfbench: wrong output: {error}", file=sys.stderr)
    result = {
        "correct": not checks.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
