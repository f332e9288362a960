"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py

Runs every workload untraced and traced on shrunken inputs and checks the
result format against BENCHMARK.json, the nesting of the spans, the output
checks and that a run leaves the repository's files as it found them.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY = {
    "adding-oplu-T30": {"epochs": 2, "train_n": 2000, "valid_n": 200, "test_n": 500},
    "image-oplu-784": {},
    "image-relu-784": {},
    "grad-diag-oplu-h100": {"repeats": 5},
}


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    for name, changes in TINY.items():
        command, overrides = run.WORKLOADS[name]
        monkeypatch.setitem(run.WORKLOADS, name, (command, dict(overrides, **changes)))
    monkeypatch.setattr(run, "IMAGE_TRAIN_N", 6000)
    monkeypatch.setattr(run, "IMAGE_TEST_N", 500)
    if run.SRC not in sys.path:
        monkeypatch.syspath_prepend(run.SRC)


def git_status():
    try:
        out = subprocess.run(["git", "status", "--porcelain"], cwd=run.ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout if out.returncode == 0 else None


def result_of(capsys, *args):
    assert run.main(list(args)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace, capsys):
    before = git_status()
    lines, result = result_of(capsys, "--workload", workload, "--seed", "3",
                              "--seconds", "0", "--trace", trace)
    assert result["correct"] is True, "\n".join(lines[-20:])
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    section = "per_layer" if trace == "1" else "end_to_end"
    declared = run.declared_units(section)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in {**declared, **run.REPORTED_UNITS}.items():
        assert any(line.startswith(f"  {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert git_status() == before


@pytest.mark.parametrize("workload", sorted(TINY))
def test_spans_nest(workload, tmp_path):
    os.makedirs(run.WORK_DIR, exist_ok=True)
    command, _ = run.WORKLOADS[workload]
    data_dir = run.image_data_dir(5) if command == "mnist" else None
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rec = run.run_child(run.cli_args(workload, 5, str(out_dir), data_dir), True, str(tmp_path))
    assert rec["returncode"] == 0, rec["stdout"]
    trace = rec["trace"]
    for name, f in trace["functions"].items():
        assert 0.0 <= f["self_s"] <= f["total_s"] + 1e-9, name
    layer_self = sum(layer["self_s"] for layer in trace["layers"].values())
    assert layer_self == pytest.approx(trace["root_s"], rel=1e-9)
    assert trace["root_s"] <= rec["t_end"] - rec["t_imported"]
    assert trace["layers"]["cli"]["calls"] == 1


@pytest.mark.parametrize("workload", sorted(TINY))
def test_outputs_are_identical_across_runs(workload):
    first = run.bench(workload, 7, 0, False)
    second = run.bench(workload, 7, 0, False)
    assert first["correct"] and second["correct"]
    assert first["outputs_sha256"] == second["outputs_sha256"] is not None


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "adding-oplu-T30",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
