"""The benchmark's own smoke test, at smoke size (about a minute).

Run from the root of a checkout::

    python3 perfbench/smoke.py

For every workload it checks that

* an untraced and a traced run through ``run.py`` pass their golden
  digest check, with zero failed operations;
* each prints exactly the metrics ``BENCHMARK.json`` declares, with
  their units, and every end-to-end value is positive;
* the traced run's digest equals the untraced legs' digests around it
  (the wrappers change no behaviour), and its layer self times cover
  at least 90% of the traced wall time;

then that the held-out seed matches its golden digest, and that
``run.py`` fails without printing a result when the program's source
is not there.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import pool_seeds

HERE = Path(__file__).resolve().parent


def _last_json(cmd: list[str], cwd: str = ".") -> dict:
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=cwd, check=False, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run(workload: str, trace: int, *extra: str) -> dict:
    return _last_json([sys.executable, str(HERE / "run.py"), "--workload",
                       workload, "--seed", "0", "--seconds", "1",
                       "--trace", str(trace), "--smoke", *extra])


def check_workload(workload: str, declared: dict, golden: dict) -> None:
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in declared[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, f"{workload}: metrics {got} != {want}"
        if trace == 0:
            bad = {k: v for k, v in result["metrics"].items()
                   if not v["value"] > 0}
            assert not bad, f"{workload}: non-positive metrics {bad}"
        else:
            coverage = result["metrics"]["trace.coverage"]["value"]
            assert coverage >= 0.9, f"{workload}: coverage {coverage}"

    traced = _last_json([
        sys.executable, str(HERE / "child.py"), "trace", "--workload",
        workload, "--seed", "0", "--seconds", "1", "--src", "src",
        "--smoke"])
    digests = set(traced["digests"])
    assert len(traced["digests"]) == 3 and len(digests) == 1, traced
    assert digests == {golden[workload]["smoke"][str(pool_seeds()[0])]}, \
        digests


def check_without_source() -> None:
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload",
             "busy_pbe", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=False, timeout=60)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main() -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in declared["workloads"]):
        check_workload(workload, declared, golden)
        print(f"ok {workload}", flush=True)
    held_out = _run("busy_pbe", 0, "--held-out")
    assert held_out["correct"] and held_out["failed"] == 0, held_out
    print("ok held-out seed", flush=True)
    check_without_source()
    print("ok fails without source", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
