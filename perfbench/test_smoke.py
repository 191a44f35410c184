"""Smoke test for the benchmark: a shortened run of every workload.

Run from the repository root::

    python -m pytest perfbench/test_smoke.py -q

Every workload, untraced and traced, must exit 0 and print as the last
line of stdout a correct result holding exactly the end-to-end
(untraced) or per-layer (traced) metrics of ``BENCHMARK.json``, each in
its declared unit; no process of its session may outlive it.  The
per-layer metrics ``perfbench/workloads.json`` names for a workload as
``zero_per_layer`` read 0.  In a directory holding only
``BENCHMARK.json`` and ``perfbench/``, the command must fail without
printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
with open(os.path.join(HERE, "workloads.json")) as _fh:
    RECORD = json.load(_fh)["workloads"]
UNITS = {"0": {m["name"]: m["unit"] for m in BENCH["end_to_end"]},
         "1": {m["name"]: m["unit"] for m in BENCH["per_layer"]}}
SECONDS = "4"


def session_processes(sid: int):
    """Pids still alive in session ``sid``."""
    alive = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:  # field 6 of stat: the session id
            alive.append(int(pid))
    return alive


def run_bench(cwd: str, *args: str, timeout: float = 300):
    proc = subprocess.Popen(BENCH["command"] + list(args), cwd=cwd,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out, err, session_processes(proc.pid)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_shortened_run(workload: str, trace: str) -> None:
    code, out, err, left = run_bench(
        ROOT, "--workload", workload, "--seed", "11", "--seconds", SECONDS,
        "--trace", trace)
    assert code == 0, err[-4000:]
    assert not left, f"processes left behind: {left}"
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(UNITS[trace])
    zero = tuple(RECORD[workload]["zero_per_layer"])
    for name, metric in result["metrics"].items():
        assert metric["unit"] == UNITS[trace][name], name
        assert isinstance(metric["value"], (int, float)), name
        if trace == "0":
            assert metric["value"] > 0, name
        elif name.startswith(zero):
            assert metric["value"] == 0, name


def test_zero_per_layer_names_per_layer_metrics() -> None:
    assert set(RECORD) == {w["name"] for w in BENCH["workloads"]}
    for record in RECORD.values():
        for prefix in record["zero_per_layer"]:
            assert any(n.startswith(prefix) for n in UNITS["1"]), prefix
            assert not any(n.startswith(prefix) for n in UNITS["0"]), prefix


def test_fails_without_the_program(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, out, _err, left = run_bench(
        str(tmp_path), "--workload", BENCH["workloads"][0]["name"],
        "--seed", "1", "--seconds", SECONDS, "--trace", "0", timeout=180)
    assert code != 0
    assert not out.strip()
    assert not left
