"""The repository benchmark: one command, three workloads, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 24 --trace 0

``--workload`` is ``catalog``, ``corpus`` or ``service`` (see
``BENCHMARK.json`` for why each exists).  The inputs are made from
``--seed``; the program only ever sees the generated inputs.  Set-up
runs three times and ``setup_s`` is its median.  Then whole passes run
until ``--seconds`` have gone by; each pass's outputs are checked.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics: the benchmark's own ``bench.*`` spans
around each public call, plus the spans and counters the program emits,
collected through ``obs.configure(record=True)``.  ``perfbench/layers.json``
says which workload each per-layer metric belongs to and which
end-to-end metric it should move; a metric of a layer the workload does
not exercise reads 0.

The last line of standard output is the result: a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it give every metric with its unit and sample count, the error
rate with its base, and the CPU count, Python version, seed, commit
and a digest of ``src/``.

The run reads and writes only inside the checkout: scratch files (the
relation cache, the server's session store) live in a fresh directory
under ``.perfbench_tmp/`` that is removed on exit.  Python's string hash
seed is pinned (the script re-executes itself with ``PYTHONHASHSEED=0``)
so that set and dict orders, and with them the work done, repeat from
run to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up repeats at least this many times and until this much time went
#: by (capped), so the median ``setup_s`` of a fast set-up is steady too.
SETUP_REPEATS = (3, 1.0, 25)
#: A run stops starting passes once this much wall time has gone by, so
#: it ends well within its three-minute limit even on a slow machine.
WALL_LIMIT = 120.0
#: The share of a traced pass allowed outside every layer span.
GLUE_TOLERANCE = 0.05
#: End-to-end metrics printed with the result but not in BENCHMARK.json.
#: On ``service`` each is a median or tail over a few dozen sessions or
#: requests of very different sizes, whose latency also depends on what
#: the other client runs meanwhile: between runs on a shared machine they
#: spread wider than any bound worth gating on.
REPORTED_ONLY = {
    "first_lattice_s": "s",
    "update_p50_s": "s",
    "session_p50_s": "s",
    "request_p90_ms": "ms",
}


@dataclass
class PassRecord:
    index: int
    traced: bool
    wall: float
    samples: Any
    recording: Any


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("catalog", "corpus", "service"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or None


def load_metric_specs() -> tuple[list[dict], list[dict], dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    return spec["end_to_end"], spec["per_layer"], layers


def measure(workload, seconds: float, trace: bool) -> tuple[list[float], list[PassRecord], int, list[str]]:
    """Set up, run passes, check them; returns the raw material."""
    from common import run_pass

    least, least_seconds, most = SETUP_REPEATS
    setup_times: list[float] = []
    while len(setup_times) < least or (
        sum(setup_times) < least_seconds and len(setup_times) < most
    ):
        workload.teardown()
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)

    passes: list[PassRecord] = []
    attempted = 0
    failures: list[str] = []
    started = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        try:
            samples, wall, result, recording = run_pass(workload.body, traced)
        except Exception as exc:  # noqa: BLE001 - a failed pass is a result
            traceback.print_exc()
            attempted += 1
            failures.append(f"pass {len(passes)} raised {type(exc).__name__}: {exc}")
            break
        passes.append(PassRecord(len(passes), traced, wall, samples, recording))
        # The workload keeps what it needs of the result; dropping the
        # rest keeps every pass's heap, and so its GC work, the same.
        n, failed = workload.check_pass(result)
        del result
        attempted += n
        failures.extend(failed)
        elapsed = time.perf_counter() - started
        have_both = not trace or any(p.traced for p in passes)
        if have_both and (elapsed >= seconds or elapsed + wall > WALL_LIMIT):
            break
    if passes:
        n, failed = workload.final_checks()
        attempted += n
        failures.extend(failed)
    return setup_times, passes, attempted, failures


def glue_fraction(passes: list[PassRecord]) -> float:
    """The share of traced pass time outside every layer span: the self
    time of the pass and session spans (the benchmark's own glue, such
    as oracle labeling) over the pass duration."""
    from common import GLUE_SPANS, PASS_SPAN, median

    fractions = []
    for p in passes:
        glue = sum(p.recording.self_wall(name) for name in GLUE_SPANS)
        fractions.append(glue / p.recording.wall(PASS_SPAN))
    return median(fractions)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    (tmp / "relcache").mkdir()
    os.environ["REPRO_RELATION_CACHE_DIR"] = str(tmp / "relcache")
    os.environ.pop("REPRO_OBS", None)
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from catalog import Catalog
    from common import median
    from corpus import Corpus
    from service import Service

    end_to_end_specs, per_layer_specs, layers = load_metric_specs()
    workload = {"catalog": Catalog, "corpus": Corpus, "service": Service}[args.workload](
        args.seed, tmp
    )
    try:
        setup_times, passes, attempted, failures = measure(workload, args.seconds, bool(args.trace))
        if not passes:
            for failure in failures:
                print(f"FAILED: {failure}", file=sys.stderr)
            return 1
        plain = [p for p in passes if not p.traced]
        traced = [p for p in passes if p.traced]
        values: dict[str, tuple[float, int]] = {
            "setup_s": (median(setup_times), len(setup_times)),
            "pass_s": (median(p.wall for p in plain), len(plain)),
            "peak_rss_mb": (workload.peak_rss_mb, 1),
        }
        values.update(workload.end_to_end(plain))
        notes: dict[str, Any] = {}
        if traced:
            layer_values, notes = workload.per_layer(traced)
            overhead = median(p.wall for p in traced) / values["pass_s"][0] - 1.0
            values.update(layer_values)
            values["trace_overhead_frac"] = (overhead, len(traced))
            # Service layers run in the server process, outside this
            # recording, so only the in-process workloads are accounted.
            if args.workload != "service":
                glue = glue_fraction(traced)
                notes["unaccounted_frac"] = glue
                notes["self_seconds"] = dict(
                    sorted(traced[0].recording.self_by_name().items(), key=lambda kv: -kv[1])[:12]
                )
                attempted += 1
                if glue > max(GLUE_TOLERANCE, overhead):
                    failures.append(
                        f"layer self times leave {glue:.1%} of the traced pass unaccounted"
                    )
    finally:
        workload.teardown()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    wanted = per_layer_specs if args.trace else end_to_end_specs
    metrics = {}
    report = []
    for spec in wanted:
        name = spec["name"]
        applies = args.trace == 0 or args.workload in layers[name]["workloads"]
        value, count = values.get(name, (0.0, 0)) if applies else (0.0, 0)
        if applies and name not in values:
            failures.append(f"metric {name} was not measured")
        metrics[name] = {"value": float(value), "unit": spec["unit"]}
        moves = "" if args.trace == 0 else f"  -> {layers[name]['moves']}"
        shown = f"{value:.6g}" if applies else "n/a"
        report.append(f"  {name:<40} {shown:>12} {spec['unit']:<6} n={count}{moves}")
    if args.trace == 0:
        for name, unit in REPORTED_ONLY.items():
            value, count = values[name]
            report.append(f"  {name:<40} {value:>12.6g} {unit:<6} n={count}  (reported, not gated)")

    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    rate = len(failures) / attempted if attempted else 1.0
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "pass_walls": [round(p.wall, 4) for p in passes],
    }
    print("perfbench " + json.dumps(env))
    print("\n".join(report))
    print(f"  {'error_rate':<40} {rate:>12.6g} ratio  ({len(failures)} failed of {attempted} attempted)")
    if notes:
        print("notes " + json.dumps(notes, default=str))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
