"""Time to certificate of ``qglab verify`` jobs, run in process.

Run from the repository root::

    python3 perfbench/run.py --workload catalog-order8 --seed 1 --seconds 42 --trace 0

One closed-loop client runs the workload's jobs one after another through
``qglab.cli.main(["verify", ..., "--out", path])``, each with ``--seed`` set to
the benchmark seed, in whole passes over the job list until the next pass
would end after ``--seconds``; at least one pass runs.  qglab is imported from
``src/`` of this checkout; nothing under ``src/`` is modified.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes the same
untraced passes, then one more pass with every public function of the
package wrapped by ``tracing.Tracer``, and reports the per-layer metrics.

A job fails when it raises, exits non-zero, writes a certificate with a record
whose ``"pass"`` is not true, or writes bytes that differ from another run of
the same job and seed with the same qglab sources: an earlier pass, the traced
pass, or an earlier run in this checkout (kept under ``perfbench/out/store``).
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# One BLAS thread keeps timings steady on a small shared machine and never
# exceeds its core count.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 11
CONSTRUCTIONS = ("function-algebra", "group-algebra")
# Counts that depend only on operand shapes and the job list; two traced runs
# of the same sources and workload must agree on them exactly.
WORK_COUNTS = (
    "tensorlin.apply_leg.gflop",
    "tensorlin.operator_norm.entries",
    "qgcore.dual.calls",
    "funalg.block_decompose.calls",
)


@dataclass(frozen=True)
class Job:
    group: str  # builtin name or path of a generated table
    construction: str
    suites: str | None = None  # csv; None runs qglab's default, all nine

    @property
    def id(self) -> str:
        return f"{Path(self.group).stem}/{self.construction}"

    def argv(self, seed: int, out: Path) -> list[str]:
        argv = ["verify", "--group", self.group, "--construction", self.construction]
        argv += ["--seed", str(seed), "--out", str(out)]
        return argv + (["--suites", self.suites] if self.suites is not None else [])


def permutation_group(name: str, generators: list[tuple[int, ...]]) -> dict:
    """Cayley table, in qglab's JSON form, of the group the permutations generate.

    Elements are listed in breadth-first order from the identity, so the
    identity is at index 0; ``table[i][j]`` is the index of ``p_i o p_j``.
    """
    identity = tuple(range(len(generators[0])))
    elems, index = [identity], {identity: 0}
    for p in elems:  # elems grows while it is walked
        for g in generators:
            h = tuple(g[k] for k in p)
            if h not in index:
                index[h] = len(elems)
                elems.append(h)
    table = [[index[tuple(a[k] for k in b)] for b in elems] for a in elems]
    return {"name": name, "order": len(elems), "table": table}


def _exchange_order12(inputs: Path) -> list[Job]:
    path = inputs / "A4.json"
    path.write_text(json.dumps(permutation_group("A4", [(1, 2, 0, 3), (1, 0, 3, 2)])))
    return [Job(str(path), c, "structure,lemma32,lemma42,lemma43") for c in CONSTRUCTIONS]


def _builtins(*groups: str):
    return lambda inputs: [Job(g, c) for g in groups for c in CONSTRUCTIONS]


# Why each workload was chosen is recorded in BENCHMARK.json; "smoke" is the
# tiny configuration perfbench/smoke.py runs.
WORKLOADS = {
    "catalog-order8": _builtins("D4", "Z8"),
    "sweep-small": _builtins("Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "S3"),
    "exchange-order12": _exchange_order12,
    "smoke": _builtins("Z2"),
}


def setup(workload: str):
    """Import qglab from this checkout, generate the workload's inputs and
    parse each group with ``load_group``."""
    src = ROOT / "src"
    if not (src / "qglab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: qglab sources not found under {src}")
    sys.path.insert(0, str(src))
    import qglab
    from qglab import cli, groups

    if Path(qglab.__file__).resolve().parent != src / "qglab":
        raise SystemExit(f"perfbench: imported qglab from {qglab.__file__}, not from {src}")
    inputs = OUT / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    jobs = WORKLOADS[workload](inputs)
    orders = {job.group: groups.load_group(job.group).order for job in jobs}
    return cli, jobs, orders


def measure_setup(workload: str) -> float:
    """Median over fresh processes of the time from spawn until ``setup`` returns."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up probe failed with exit code {code}")
        times.append(t1 - t0)
    return statistics.median(times)


@dataclass
class Outcome:
    job: Job
    seconds: float
    sha256: str
    error: str  # empty when the job passed


def run_job(cli, job: Job, seed: int, out: Path) -> Outcome:
    with contextlib.suppress(FileNotFoundError):
        out.unlink()
    log = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(log):
            code = cli.main(job.argv(seed, out))
    except Exception as exc:  # a raising job is a failed job, not a crashed benchmark
        code = f"raised {exc!r}"
    seconds = time.perf_counter() - t0
    if code != 0:
        return Outcome(job, seconds, "", f"exit {code}: {log.getvalue().strip()}")
    data = out.read_bytes()
    try:
        failing = [r["check"] for r in json.loads(data)["records"] if r["pass"] is not True]
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(job, seconds, "", f"malformed certificate: {exc!r}")
    error = f"records not passing: {failing}" if failing else ""
    return Outcome(job, seconds, hashlib.sha256(data).hexdigest(), error)


def run_pass(cli, jobs, seed, workload, orders, tracer=None) -> tuple[float, list[Outcome]]:
    certs = OUT / "certs" / workload
    certs.mkdir(parents=True, exist_ok=True)
    gc.collect()
    outcomes = []
    t0 = time.perf_counter()
    for job in jobs:
        out = certs / (job.id.replace("/", "-") + ".json")
        if tracer is None:
            outcomes.append(run_job(cli, job, seed, out))
        else:
            with tracer.job_span(job.id, orders[job.group]):
                outcomes.append(run_job(cli, job, seed, out))
    return time.perf_counter() - t0, outcomes


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qglab").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Store:
    """Certificate hashes and work counts of earlier runs of the same sources."""

    def __init__(self) -> None:
        self.path = OUT / "store" / f"{source_digest()}.json"
        self.data = json.loads(self.path.read_text()) if self.path.is_file() else {}

    def remember(self, key: str, value: dict) -> dict:
        """Return the value stored under ``key``, storing ``value`` if there is none."""
        if key not in self.data:
            self.data[key] = value
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
            tmp.replace(self.path)
        return self.data[key]


def gate(outcomes: list[Outcome], store: Store, key: str) -> list[Outcome]:
    """Mark jobs whose bytes differ across passes or from an earlier run; return
    the failing outcomes."""
    first: dict[str, str] = {}
    for o in outcomes:
        if not o.error:
            first.setdefault(o.job.id, o.sha256)
    expected = store.remember(key, first)
    for o in outcomes:
        want = expected.get(o.job.id, first.get(o.job.id))
        if not o.error and o.sha256 != want:
            o.error = f"certificate sha256 {o.sha256} differs from {want}"
    return [o for o in outcomes if o.error]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # before numpy is imported, here and in the set-up probes, which inherit it
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})

    if args.probe:
        setup(args.workload)
        print("ready", flush=True)
        return 0
    setup_s = None if args.trace else measure_setup(args.workload)
    cli, jobs, orders = setup(args.workload)
    print(
        f"perfbench: workload={args.workload} seed={args.seed} jobs={len(jobs)} "
        f"blas_threads={BLAS_THREADS} nproc={len(os.sched_getaffinity(0))}"
    )

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, jobs, args.seed, args.workload, orders))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1][0] > args.seconds:
            break
    wall_s = statistics.median(wall for wall, _ in passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    untraced = [o for _, pass_outcomes in passes for o in pass_outcomes]

    tracer, traced = Tracer(), []
    if args.trace:
        with tracer.installed():
            traced_wall, traced = run_pass(cli, jobs, args.seed, args.workload, orders, tracer)
    outcomes = untraced + traced

    store = Store()
    failed = gate(outcomes, store, f"certs/{args.workload}/{args.seed}")
    shown = [("untraced", o) for o in passes[0][1]] + [("traced", o) for o in traced]
    for mode, o in shown:
        print(f"cert {o.job.id} {mode} sha256={o.sha256 or '-'} {o.seconds:.3f}s")
    for o in failed:
        print(f"FAILED {o.job.id}: {o.error}")
    print(
        f"passes {len(passes)}; fail_ratio {len(failed) / len(outcomes):g} "
        f"({len(failed)} failed / {len(outcomes)} attempted)"
    )
    correct = not failed

    if args.trace:
        layer = tracer.layer_metrics()
        layer["trace.overhead_s"] = (traced_wall - wall_s, "s")
        work = {name: layer[name][0] for name in WORK_COUNTS}
        print("computed from operand shapes: " + ", ".join(f"{k}={v:.6g}" for k, v in work.items()))
        earlier = store.remember(f"work/{args.workload}", work)
        if earlier != work:
            print(f"FAILED work counts differ from an earlier traced run: {earlier}")
            correct = False
        tracer.dump(OUT / f"spans-{args.workload}.json")
        metrics = layer
    else:
        job_s_p50 = statistics.median(o.seconds for o in untraced)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "job_s_p50": (job_s_p50, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
