"""Run one oplu-net experiment in this process and record its timings.

    python3 bench/child.py TIMINGS_JSON TRACE COMMAND [--key value ...]

Everything after TRACE goes to ``oplu_net.cli.main`` unchanged, so the
process does what ``oplu-net COMMAND ...`` does. With TRACE 0 the only
timestamps are taken at the first optimizer update and around each
evaluation call (around the trace itself for grad-diag). With TRACE 1 the
package is also wrapped in spans (see spans.py) and a 784^3 dgemm is
timed after the run as the machine's reference rate.

Timestamps are ``time.perf_counter`` readings; on Linux that is the
system-wide monotonic clock, so the parent compares them with its own.
"""

import time

T_START = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

# The first optimizer update marks the end of set-up, and the calls timed
# around each invocation are the evaluation passes (for grad-diag, the
# trace is the whole measured phase).
MARKS = {
    "adding": ("sgd_step", "evaluate_adding"),
    "mnist": ("sgd_step", "evaluate"),
    "grad-diag": ("trace_delta_norms", "trace_delta_norms"),
}


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "oplu_net" or name.startswith("oplu_net.")]


def replace_everywhere(modules, fn, wrapper):
    for mod in modules:
        for key, obj in list(vars(mod).items()):
            if obj is fn:
                setattr(mod, key, wrapper)


def find_function(modules, name):
    """The package function called ``name``, wherever it is referenced."""
    for mod in modules:
        obj = getattr(mod, name, None)
        if isinstance(obj, types.FunctionType):
            return obj
    raise LookupError(f"oplu_net has no function named {name!r}")


def install_marks(modules, command, events):
    first_name, timed_name = MARKS[command]
    first = find_function(modules, first_name)
    timed = find_function(modules, timed_name)
    clock = time.perf_counter

    def timed_call(*args, **kwargs):
        start = clock()
        try:
            return timed(*args, **kwargs)
        finally:
            events["timed"].append([start, clock()])

    replace_everywhere(modules, timed, timed_call)
    target = timed_call if first is timed else first

    def first_call(*args, **kwargs):
        events["first_step"] = clock()
        replace_everywhere(modules, first_call, target)
        return target(*args, **kwargs)

    replace_everywhere(modules, target, first_call)


def peak_rss_kib():
    """High-water resident set size of this program since its exec.

    ``ru_maxrss`` would also carry the parent's high-water mark when the
    child was started with vfork, so read the kernel's VmHWM instead.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise LookupError("no VmHWM line in /proc/self/status")


def peak_gflop_per_s(np, n=784, repeats=5):
    a = np.random.default_rng(0).random((n, n))
    times = []
    for _ in range(repeats + 1):
        start = time.perf_counter()
        a @ a
        times.append(time.perf_counter() - start)
    times = sorted(times[1:])
    return 2.0 * n ** 3 / times[len(times) // 2] / 1e9


def main(argv):
    out_path, traced, cli_args = argv[0], argv[1] == "1", argv[2:]
    cli = importlib.import_module("oplu_net.cli")
    record = {"t_start": T_START, "t_imported": time.perf_counter(),
              "timed": [], "first_step": None}
    modules = package_modules()
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(modules)
    # after the tracer, so the marks wrap the names the tracer put in place
    install_marks(modules, cli_args[0], record)
    try:
        record["exit"] = cli.main(cli_args)
    finally:
        record["t_end"] = time.perf_counter()
        record["peak_rss_kib"] = peak_rss_kib()
        if tracer is not None:
            record["trace"] = tracer.summary()
            import numpy as np

            record["peak_gflop_per_s"] = peak_gflop_per_s(np)
        with open(out_path, "w") as f:
            json.dump(record, f)
    return record["exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
