"""Smoke test of the benchmark on its tiny configuration: Z2, both
constructions, all suites, one pass.

Run from anywhere::

    python3 perfbench/smoke.py

It runs ``run.py`` untraced and traced with the same seed and checks that each
prints every metric BENCHMARK.json names, with its unit, that no job failed,
and that the traced pass wrote the same certificate bytes as the untraced
passes of both runs.  Exit code 0 means all checks held.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(trace: int) -> tuple[dict, dict[tuple[str, str], str]]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "smoke"]
    cmd += ["--seed", "5", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"smoke: {cmd} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    certs = {}
    for line in lines:
        if line.startswith("cert "):
            _, job, mode, sha, _ = line.split()
            certs[(job, mode)] = sha.removeprefix("sha256=")
    return json.loads(lines[-1]), certs


def check(result: dict, specs: list[dict], label: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"smoke: {label} result has keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        counts = {k: result[k] for k in ("correct", "attempted", "failed")}
        raise SystemExit(f"smoke: {label} run not correct: {counts}")
    want = {s["name"]: s["unit"] for s in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        diff = sorted(set(want.items()) ^ set(got.items()))
        raise SystemExit(f"smoke: {label} metrics differ from BENCHMARK.json: {diff}")
    bad = [n for n, m in result["metrics"].items() if not isinstance(m["value"], (int, float))]
    if bad:
        raise SystemExit(f"smoke: {label} metrics without a numeric value: {bad}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced, certs0 = run(0)
    check(untraced, spec["end_to_end"], "untraced")
    traced, certs1 = run(1)
    check(traced, spec["per_layer"], "traced")
    jobs = sorted({job for job, _ in certs0})
    if not jobs or sorted({job for job, _ in certs1}) != jobs:
        raise SystemExit(f"smoke: job lists differ: {sorted(certs0)} vs {sorted(certs1)}")
    for job in jobs:
        shas = {certs0[job, "untraced"], certs1[job, "untraced"], certs1[job, "traced"]}
        if len(shas) != 1 or "-" in shas:
            raise SystemExit(f"smoke: certificate bytes of {job} differ: {shas}")
    print(f"smoke: ok, {len(jobs)} jobs, {len(untraced['metrics'])} end-to-end and "
          f"{len(traced['metrics'])} per-layer metrics, traced bytes unchanged")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
