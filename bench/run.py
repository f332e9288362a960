"""The oplu-net benchmark: desk-scale runs of the paper's three experiments.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs ``oplu-net`` (``oplu_net.cli`` from ``src/``) as fresh
processes, one after another, until S seconds have passed, so interpreter
start, the package import and BLAS warm-up count as they do for a user.
Every run is checked (see ``check_outputs``) and each metric is the median
over the runs. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` traced runs (spans.py) alternate with untraced ones and
the metrics are the per-layer ones, including the tracing overhead.

Exit codes: 0 with a result, 2 for bad arguments or a missing program.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, "_work")
CHILD_TIMEOUT_S = 120
IMAGE_CACHE_KEEP = 3

# Image workloads: 12000 training and 10000 test images written as IDX
# files, so the test pass is long enough to time.
IMAGE_TRAIN_N = 12000
IMAGE_TEST_N = 10000
# Lowest final test accuracy accepted on the synthetic image set; runs at
# this size reached 0.965 to 0.999 on seeds 101..110.
IMAGE_ACCURACY_FLOOR = 0.90
# Acceptance criterion 2: the oplu trace stays flat to within this ratio.
GRAD_DIAG_MAX_RATIO = 1.0 + 1e-8

ADDING = {"activation": "oplu", "seq_len": 30, "hidden": 100, "batch_size": 20,
          "iterations_per_epoch": 50, "init": "auto",
          "train_n": 20000, "valid_n": 1000, "test_n": 10000, "epochs": 6}
IMAGE = {"hidden": 300, "batch_size": 64, "init": "orthogonal", "epochs": 2}
GRAD_DIAG = {"activation": "oplu", "hidden": 100, "horizon": 100, "input_dim": 2,
             "repeats": 100}

# name -> (oplu-net command, config overrides)
WORKLOADS = {
    "adding-oplu-T30": ("adding", ADDING),
    "image-oplu-784": ("mnist", dict(IMAGE, activation="oplu")),
    "image-relu-784": ("mnist", dict(IMAGE, activation="relu")),
    "grad-diag-oplu-h100": ("grad-diag", GRAD_DIAG),
}

# Printed with the end-to-end metrics but not in BENCHMARK.json: both are
# zero or vary with the seed more than any bound allows (see README.md).
REPORTED_UNITS = {"final_error": "1", "failed_frac": "fraction"}

LAYERS = ("linalg", "rng", "activations", "network", "recurrent", "datasets",
          "diagnostics", "checkpoint", "config", "cli")

# Per-layer metric groups: name -> span names (see spans.WORK) whose self
# times are summed. A name the program no longer has contributes nothing.
SELF_TIME_GROUPS = {
    "activations.oplu_forward.self_s": ["activations.oplu_forward"],
    "activations.oplu_backward.self_s": ["activations.oplu_backward"],
    "activations.scalar.self_s": ["activations.scalar_forward", "activations.scalar_derivative"],
    "recurrent.train_batch.self_s": ["recurrent._bptt_batch"],
    "recurrent.evaluate.self_s": ["recurrent.evaluate_adding"],
    "recurrent.per_sample.self_s": ["recurrent.srn_forward", "recurrent.bptt"],
    "network.forward.self_s": ["network._forward_batch"],
    "network.backprop.self_s": ["network._backprop_batch"],
    "network.sgd_step.self_s": ["network.sgd_step"],
    "network.evaluate.self_s": ["network.evaluate"],
    "rng.shuffle.self_s": ["rng.Rng.shuffle"],
    "linalg.expm.self_s": ["linalg.expm"],
    "linalg.l2_norm.self_s": ["linalg.l2_norm"],
    "datasets.gen_adding.self_s": ["datasets.gen_adding"],
    "datasets.split.self_s": ["datasets.split"],
    "diagnostics.trace_delta_norms.self_s": ["diagnostics.trace_delta_norms"],
}
OPLU_SPANS = ["activations.oplu_forward", "activations.oplu_backward"]
RECURRENT_GEMM_SPANS = ["recurrent._bptt_batch", "recurrent.evaluate_adding",
                        "recurrent.srn_forward", "recurrent.bptt"]
NETWORK_GEMM_SPANS = ["network._forward_batch", "network._backprop_batch"]
TRAIN_ROW_SPANS = ["recurrent._bptt_batch", "network._backprop_batch"]


def declared_units(section: str) -> dict:
    """Metric name -> unit of one metric list of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def image_data_dir(seed: int) -> str:
    """IDX files of the synthetic image set for ``seed``, cached per seed."""
    path = os.path.join(WORK_DIR, f"images-{seed}-{IMAGE_TRAIN_N}-{IMAGE_TEST_N}")
    if os.path.exists(os.path.join(path, "done")):
        os.utime(path)
        return path
    import numpy as np
    from oplu_net import Rng, gen_image_classes, write_idx_images, write_idx_labels

    tmp = tempfile.mkdtemp(prefix="tmp-images-", dir=WORK_DIR)
    ds = gen_image_classes(IMAGE_TRAIN_N + IMAGE_TEST_N, Rng(seed))
    pixels = np.round(ds.images * 255.0).astype(np.uint8)
    labels = ds.labels.astype(np.uint8)
    n = IMAGE_TRAIN_N
    write_idx_images(os.path.join(tmp, "train-images-idx3-ubyte"), pixels[:n])
    write_idx_labels(os.path.join(tmp, "train-labels-idx1-ubyte"), labels[:n])
    write_idx_images(os.path.join(tmp, "t10k-images-idx3-ubyte"), pixels[n:])
    write_idx_labels(os.path.join(tmp, "t10k-labels-idx1-ubyte"), labels[n:])
    open(os.path.join(tmp, "done"), "w").close()
    shutil.rmtree(path, ignore_errors=True)
    os.rename(tmp, path)
    cached = sorted((os.path.getmtime(os.path.join(WORK_DIR, d)), d)
                    for d in os.listdir(WORK_DIR) if d.startswith("images-")
                    and os.path.exists(os.path.join(WORK_DIR, d, "done")))
    for _, old in cached[:-IMAGE_CACHE_KEEP]:
        shutil.rmtree(os.path.join(WORK_DIR, old), ignore_errors=True)
    return path


def cli_args(workload: str, seed: int, out_dir: str, data_dir) -> list:
    command, overrides = WORKLOADS[workload]
    args = [command, "--seed", str(seed), "--out_dir", out_dir]
    if data_dir is not None:
        args += ["--data_dir", data_dir]
    for key, value in overrides.items():
        args += [f"--{key}", str(value)]
    return args


# ---------------------------------------------------------------------------
# one run of the program
# ---------------------------------------------------------------------------


def run_child(args: list, traced: bool, run_dir: str) -> dict:
    """Start child.py in a fresh interpreter and wait for it.

    Returns its timings, exit code, wall time and resource usage. The
    child is killed if it outlives CHILD_TIMEOUT_S.
    """
    timings = os.path.join(run_dir, "timings.json")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    with open(os.path.join(run_dir, "stdout.txt"), "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "child.py"), timings,
             "1" if traced else "0"] + args,
            stdout=out, stderr=subprocess.STDOUT, env=env, cwd=run_dir)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(os.path.join(run_dir, "stdout.txt")) as f:
        stdout = f.read()
    record = {}
    if os.path.exists(timings):
        with open(timings) as f:
            record = json.load(f)
    record.update(launch=start, reaped=end, returncode=proc.returncode, stdout=stdout,
                  cpu_s=usage.ru_utime + usage.ru_stime)
    return record


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def read_csv_rows(path: str) -> list:
    with open(path) as f:
        lines = [line.strip() for line in f if line.strip() and not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def outputs_sha256(out_dir: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        digest.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def checkpoint_roundtrips(path: str, tmp_dir: str) -> bool:
    from oplu_net import load_checkpoint, save_checkpoint

    again = os.path.join(tmp_dir, "resaved.ckpt")
    save_checkpoint(again, load_checkpoint(path))
    with open(path, "rb") as a, open(again, "rb") as b:
        same = a.read() == b.read()
    os.remove(again)
    return same


def check_outputs(command: str, overrides: dict, out_dir: str, tmp_dir: str) -> dict:
    """Verify one run's files; returns final_error, problems and diverged epochs."""
    try:
        return _check_outputs(command, overrides, out_dir, tmp_dir)
    except (OSError, ValueError, IndexError) as exc:
        return {"final_error": math.nan, "problems": [f"unreadable outputs: {exc}"], "diverged": 0}


def _check_outputs(command, overrides, out_dir, tmp_dir):
    problems = []
    names = sorted(os.listdir(out_dir))
    csvs = [n for n in names if n.endswith(".csv")]
    final_error = math.nan
    diverged = 0
    if command == "adding":
        tag = f"adding_{overrides['activation']}_T{overrides['seq_len']}"
        rows = read_csv_rows(os.path.join(out_dir, tag + ".csv"))
        values = [float(v) for row in rows for v in row[1:]]
        diverged = overrides["epochs"] - len(rows)
        if diverged:
            problems.append(f"{len(rows)} CSV rows for {overrides['epochs']} epochs")
        if not all(math.isfinite(v) for v in values):
            problems.append("non-finite value in the CSV")
        if rows:
            final_error = float(rows[-1][2])
    elif command == "mnist":
        rows = read_csv_rows(os.path.join(out_dir, f"mnist_{overrides['activation']}.csv"))
        if len(rows) != overrides["epochs"]:
            problems.append(f"{len(rows)} CSV rows for {overrides['epochs']} epochs")
        accuracy = float(rows[-1][4]) if rows else 0.0
        if not accuracy >= IMAGE_ACCURACY_FLOOR:
            problems.append(f"test accuracy {accuracy} below {IMAGE_ACCURACY_FLOOR}")
        final_error = 1.0 - accuracy
    else:
        rows = read_csv_rows(os.path.join(out_dir, csvs[0])) if len(csvs) == 1 else []
        norms = [float(row[1]) for row in rows]
        if len(norms) != overrides["horizon"] or not min(norms, default=0.0) > 0.0:
            problems.append(f"{len(norms)} positive trace rows for horizon {overrides['horizon']}")
        else:
            final_error = max(norms) / min(norms)
            if not final_error <= GRAD_DIAG_MAX_RATIO:
                problems.append(f"trace max/min {final_error!r} above {GRAD_DIAG_MAX_RATIO!r}")
    for name in names:
        if name.endswith(".ckpt") and not checkpoint_roundtrips(os.path.join(out_dir, name), tmp_dir):
            problems.append(f"{name} does not re-save byte-identically")
    return {"final_error": final_error, "problems": problems, "diverged": max(diverged, 0)}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def operations(command: str, o: dict) -> int:
    """Training steps of a run (traced sequences for grad-diag)."""
    if command == "adding":
        return o["epochs"] * o["iterations_per_epoch"]
    if command == "mnist":
        return o["epochs"] * math.ceil(IMAGE_TRAIN_N / o["batch_size"])
    return o["repeats"]


def end_to_end(command: str, o: dict, rec: dict, final_error: float) -> dict:
    t0 = rec["launch"]
    first = rec["first_step"]
    timed = rec["timed"]
    eval_s = sum(end - start for start, end in timed)
    if command == "grad-diag":
        (start, end), = timed
        train_s = end - start
        train_samples = eval_samples = o["repeats"]
        setup_s = first - t0
    else:
        # evaluation before the first update (mnist's initial test pass) is
        # not set-up; the window closes when the last evaluation starts
        setup_s = first - t0 - sum(e - s for s, e in timed if e <= first)
        close = timed[-1][0]
        train_s = close - first - sum(e - s for s, e in timed if first <= s < close)
        if command == "adding":
            train_samples = (o["epochs"] * o["iterations_per_epoch"] - 1) * o["batch_size"]
            eval_samples = o["epochs"] * o["valid_n"] + o["test_n"]
        else:
            train_samples = o["epochs"] * IMAGE_TRAIN_N - o["batch_size"]
            eval_samples = (o["epochs"] + 1) * IMAGE_TEST_N
    return {
        "setup_s": setup_s,
        "samples_per_s": train_samples / train_s,
        "eval_samples_per_s": eval_samples / eval_s,
        "total_s": rec["reaped"] - t0,
        "peak_rss_mib": rec["peak_rss_kib"] / 1024.0,
        "final_error": final_error,
    }


def _sum(functions: dict, names: list, key: str) -> float:
    return sum(functions[n][key] for n in names if n in functions)


def _work(functions: dict, names: list, key: str) -> float:
    return sum(functions[n]["work"].get(key, 0) for n in names if n in functions)


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def per_layer(rec: dict, untraced_total_s: float, diverged: int) -> dict:
    trace = rec["trace"]
    functions, layers, wall = trace["functions"], trace["layers"], trace["root_s"]
    m = {}
    for layer in LAYERS:
        stats = layers.get(layer, {"calls": 0, "self_s": 0.0})
        m[f"{layer}.calls"] = stats["calls"]
        m[f"{layer}.self_s"] = stats["self_s"]
        m[f"{layer}.share"] = _rate(stats["self_s"], wall)
    for name, spans in SELF_TIME_GROUPS.items():
        m[name] = _sum(functions, spans, "self_s")

    def errors(layer):
        return sum(f["errors"].get("NumericError", 0) for name, f in functions.items()
                   if name.startswith(layer + "."))

    shuffle = functions.get("rng.Rng.shuffle", {"caller_work": {}})
    shuffled = sum(w.get("items", 0) for caller, w in shuffle["caller_work"].items()
                   if caller != "datasets")
    save = "checkpoint.save_checkpoint"
    load = "datasets.load_mnist_idx"
    m.update({
        "activations.oplu.pairs_per_s": _rate(_work(functions, OPLU_SPANS, "pairs"),
                                              _sum(functions, OPLU_SPANS, "self_s")),
        "recurrent.gflop_per_s": _rate(_work(functions, RECURRENT_GEMM_SPANS, "flop") / 1e9,
                                       _sum(functions, RECURRENT_GEMM_SPANS, "self_s")),
        "recurrent.numeric_errors": errors("recurrent"),
        "network.sgd_step.gb_per_s": _rate(_work(functions, ["network.sgd_step"], "bytes") / 1e9,
                                           m["network.sgd_step.self_s"]),
        "network.gflop_per_s": _rate(_work(functions, NETWORK_GEMM_SPANS, "flop") / 1e9,
                                     _sum(functions, NETWORK_GEMM_SPANS, "self_s")),
        "network.numeric_errors": errors("network"),
        "rng.shuffle.items": _work(functions, ["rng.Rng.shuffle"], "items"),
        # training shuffles only: a split uses every index it shuffles
        "rng.shuffle.used_frac": min(1.0, _rate(_work(functions, TRAIN_ROW_SPANS, "rows"),
                                                shuffled)),
        "rng.block_draws": _work(functions, ["rng.Rng._u64_block"], "draws"),
        "linalg.expm.calls": _sum(functions, ["linalg.expm"], "calls"),
        "linalg.l2_norm.calls": _sum(functions, ["linalg.l2_norm"], "calls"),
        "datasets.load_mnist_idx.mb_per_s": _rate(_work(functions, [load], "bytes") / 1e6,
                                                  _sum(functions, [load], "total_s")),
        "checkpoint.save.mb_per_s": _rate(_work(functions, [save], "bytes") / 1e6,
                                          _sum(functions, [save], "total_s")),
        "cli.diverged_epochs": diverged,
        "process.import_s": rec["t_imported"] - rec["t_start"],
        "process.peak_gflop_per_s": rec["peak_gflop_per_s"],
        "trace.overhead_frac": (rec["t_end"] - rec["launch"]) / untraced_total_s - 1.0,
        "trace.spans": trace["spans"],
    })
    return m


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def manifest() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 only prints its config
        blas = {}
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": commit,
    }


# ---------------------------------------------------------------------------
# main loop
# ---------------------------------------------------------------------------


def median_metrics(samples: list, median=statistics.median) -> dict:
    return {k: median(s[k] for s in samples) for k in samples[0]}


def bench(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    command, overrides = WORKLOADS[workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    data_dir = image_data_dir(seed) if command == "mnist" else None
    base = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    runs = []
    try:
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < seconds or (traced and len(runs) < 2):
            run_dir = os.path.join(base, str(len(runs)))
            out_dir = os.path.join(run_dir, "out")
            os.makedirs(out_dir)
            # traced runs alternate with the untraced ones they are compared to
            trace_this = traced and len(runs) % 2 == 0
            rec = run_child(cli_args(workload, seed, out_dir, data_dir), trace_this, run_dir)
            rec["traced"] = trace_this
            if rec["returncode"] != 0 or rec.get("first_step") is None:
                problem = f"exit code {rec['returncode']}" if rec["returncode"] else "no training step"
                rec["check"] = {"problems": [problem], "diverged": 0, "final_error": math.nan}
                rec["sha256"] = None
            else:
                rec["check"] = check_outputs(command, overrides, out_dir, run_dir)
                rec["sha256"] = outputs_sha256(out_dir)
            runs.append(rec)
            shutil.rmtree(run_dir)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    ops = operations(command, overrides)
    digests = {r["sha256"] for r in runs}
    attempted = ops * len(runs)
    failed = ops * sum(1 for r in runs if r["check"]["problems"] or len(digests) != 1)
    for r in runs:
        for problem in r["check"]["problems"]:
            print(f"check failed: {problem}")
        if r["returncode"] != 0:
            print(r["stdout"][-2000:])
    if len(digests) != 1:
        print(f"check failed: outputs differ between runs of one seed: {sorted(map(str, digests))}")
    correct = failed == 0

    plain = [r for r in runs if not r["traced"]]
    e2e = [end_to_end(command, overrides, r, r["check"]["final_error"]) for r in plain] if correct else []
    values = {}
    if correct and not traced:
        values = median_metrics(e2e)
    elif correct:
        untraced_total = statistics.median(r["t_end"] - r["launch"] for r in plain)
        # median_low keeps counts whole when the number of runs is even
        values = median_metrics([per_layer(r, untraced_total, r["check"]["diverged"])
                                 for r in runs if r["traced"]], statistics.median_low)
        values["process.cpu_per_wall"] = statistics.median(
            r["cpu_s"] / (r["reaped"] - r["launch"]) for r in plain)
        values["final_error"] = statistics.median(m["final_error"] for m in e2e)
    values["failed_frac"] = failed / attempted
    return {
        "runs": len(runs),
        "outputs_sha256": next(iter(digests)) if len(digests) == 1 else None,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "samples": e2e,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "oplu_net", "cli.py")):
        print(f"bench: no oplu_net package under {SRC}", file=sys.stderr)
        return 2
    units = declared_units("per_layer" if args.trace else "end_to_end")
    sys.path.insert(0, SRC)
    print("manifest: " + json.dumps(manifest()))
    result = bench(args.workload, args.seed, args.seconds, args.trace == 1)
    print(f"workload {args.workload} seed {args.seed}: {result['runs']} runs, "
          f"outputs_sha256 {result['outputs_sha256']}")
    for sample in result["samples"]:
        print("run: " + json.dumps(sample))
    values = result["values"]
    for name, unit in {**units, **REPORTED_UNITS}.items():
        if name in values:
            print(f"  {name} = {values[name]!r} {unit}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
