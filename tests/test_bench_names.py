"""The package names that the benchmark harness under bench/ looks up.

bench/spans.py keys its per-layer spans on "<module>.<qualname>" and
bench/child.py marks set-up and evaluation by function name. A rename in
the package that they do not follow makes a span silently read 0 or stops
every benchmark run with a LookupError, so the names are pinned here, with
the arguments and attributes its work counts read. The harness files are
imported as they are, and not changed.
"""

import importlib
import importlib.util
import inspect
import pkgutil
import types
from pathlib import Path

import pytest

import oplu_net
from oplu_net import Rng, gen_adding, init_srn, split

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
child = _load("child")


def _package_modules():
    for info in pkgutil.iter_modules(oplu_net.__path__):
        importlib.import_module(f"oplu_net.{info.name}")
    return child.package_modules()


@pytest.mark.parametrize("key", sorted(spans.WORK))
def test_span_key_names_a_package_function(key):
    layer, qualname = key.split(".", 1)
    obj = importlib.import_module(f"{spans.PACKAGE}.{layer}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert isinstance(obj, types.FunctionType)
    assert (obj.__module__, obj.__qualname__) == (f"{spans.PACKAGE}.{layer}", qualname)


@pytest.mark.parametrize("command", sorted(child.MARKS))
def test_marked_functions_are_found(command):
    modules = _package_modules()
    for name in child.MARKS[command]:
        assert child.find_function(modules, name).__name__ == name


def test_adding_part_inputs_are_rows_by_steps_by_two():
    # the evaluate_adding span reads the shape of its dataset's inputs
    train, _, _ = split(gen_adding(7, 30, Rng(1)), 10, 5, 5, Rng(2))
    assert train.inputs.shape == (10, 7, 2)
    net = init_srn(2, 4, 1, "oplu", "orthogonal", Rng(3))
    work = spans.WORK["recurrent.evaluate_adding"]((net, train), {}, None)
    assert work["rows"] == 10


def test_u64_block_takes_its_draw_count_first():
    # the _u64_block span counts args[1] draws per call
    assert list(inspect.signature(Rng._u64_block).parameters)[:2] == ["self", "n"]
    rng = Rng(4)
    assert spans.WORK["rng.Rng._u64_block"]((rng, 5), {}, rng._u64_block(5)) == {"draws": 5}
