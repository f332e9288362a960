"""Span tracing of the oplu_net package from outside it.

The tracer walks the namespace of every loaded ``oplu_net`` module and
wraps each function and method it finds, so it picks up whatever names the
program has at run time. A renamed function simply stops matching the
entries of ``WORK`` and the groups in ``run.py``; nothing here depends on
a particular name being present.

A layer is one package module. A span is recorded for every call to a
module-level function that enters its layer from outside it, and for every
call to a function or method named in ``WORK``. Calls that stay inside one
layer run through the wrapper without a span, and other methods are not
wrapped, so their time counts as the caller's self time.
"""

import os
import time
import types

PACKAGE = "oplu_net"


def _srn_sizes(net):
    return net.input_dim, net.hidden_dim, net.output_dim


def _bptt_batch_work(args, kwargs, result):
    net, inputs = args[0], args[1]
    horizon = args[3] if len(args) > 3 else kwargs["horizon"]
    b, t = inputs.shape[0], inputs.shape[1]
    i, h, o = _srn_sizes(net)
    unroll = min(t, horizon)
    forward = 2 * b * t * (i * h + h * h) + 2 * b * h * o
    backward = 4 * b * h * o + unroll * 2 * b * (i * h + 2 * h * h)
    return {"flop": forward + backward, "rows": b}


def _evaluate_adding_work(args, kwargs, result):
    net, inputs = args[0], args[1].inputs
    n, t = inputs.shape[0], inputs.shape[1]
    i, h, o = _srn_sizes(net)
    return {"flop": 2 * n * t * (i * h + h * h) + 2 * n * h * o, "rows": n}


def _srn_forward_work(args, kwargs, result):
    net, inputs = args[0], args[1]
    t = inputs.shape[0]
    i, h, o = _srn_sizes(net)
    return {"flop": 2 * t * (i * h + h * h) + 2 * h * o}


def _bptt_work(args, kwargs, result):
    net, sample, cfg = args[0], args[1], args[2]
    t = sample.inputs.shape[0]
    i, h, o = _srn_sizes(net)
    # the forward half is counted by the nested srn_forward span
    return {"flop": 4 * h * o + min(t, cfg.horizon) * 2 * (i * h + 2 * h * h)}


def _dense_macs(net):
    return sum(layer.w.shape[0] * layer.w.shape[1] for layer in net.layers)


def _forward_batch_work(args, kwargs, result):
    net, x = args[0], args[1]
    return {"flop": 2 * x.shape[0] * _dense_macs(net), "rows": x.shape[0]}


def _backprop_batch_work(args, kwargs, result):
    net, delta = args[0], args[2]
    return {"flop": 4 * delta.shape[0] * _dense_macs(net), "rows": delta.shape[0]}


def _pairs_work(args, kwargs, result):
    return {"pairs": args[0].size // 2}


def _sgd_step_work(args, kwargs, result):
    # minimum traffic of a momentum step: p, g and v read, p and v written
    return {"bytes": 5 * sum(p.nbytes for p in args[1])}


def _files_work(*positions):
    def work(args, kwargs, result):
        return {"bytes": sum(os.path.getsize(args[k]) for k in positions)}
    return work


def _items_work(args, kwargs, result):
    return {"items": len(args[1])}


def _draws_work(args, kwargs, result):
    return {"draws": args[1]}


def _no_work(args, kwargs, result):
    return None


# Functions that always get their own span, keyed by "<layer>.<qualname>",
# with the work each call does, computed from its arguments.
WORK = {
    "activations.oplu_forward": _pairs_work,
    "activations.oplu_backward": _pairs_work,
    "activations.scalar_forward": _no_work,
    "activations.scalar_derivative": _no_work,
    "recurrent._bptt_batch": _bptt_batch_work,
    "recurrent.evaluate_adding": _evaluate_adding_work,
    "recurrent.srn_forward": _srn_forward_work,
    "recurrent.bptt": _bptt_work,
    "network._forward_batch": _forward_batch_work,
    "network._backprop_batch": _backprop_batch_work,
    "network.sgd_step": _sgd_step_work,
    "network.evaluate": _no_work,
    "rng.Rng.shuffle": _items_work,
    "rng.Rng._u64_block": _draws_work,
    "linalg.expm": _no_work,
    "linalg.l2_norm": _no_work,
    "datasets.load_mnist_idx": _files_work(0, 1),
    "datasets.gen_adding": _no_work,
    "datasets.split": _no_work,
    "checkpoint.save_checkpoint": _files_work(0),
    "diagnostics.trace_delta_norms": _no_work,
    "cli.main": _no_work,
}


class Tracer:
    """Wraps the package's functions and records spans in memory.

    Each span is a list [name, layer, parent, start, end, error, work],
    where parent is the index of the enclosing span or -1.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def install(self, modules):
        """Wrap the functions defined in ``modules`` and the methods in WORK."""
        wrapped = {}
        for mod in modules:
            if not mod.__name__.startswith(PACKAGE + "."):
                continue
            layer = mod.__name__.rsplit(".", 1)[1]
            for obj in list(vars(mod).values()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapped[id(obj)] = (obj, layer, self._wrap(obj, layer))
                elif isinstance(obj, type):
                    self._wrap_methods(obj, layer)
        for mod in modules:
            for key, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is None or entry[0] is not obj:
                    continue
                fn, layer, wrapper = entry
                own = mod.__name__ == fn.__module__
                # calls inside the defining module need a span only when forced
                if not own or f"{layer}.{fn.__qualname__}" in WORK:
                    setattr(mod, key, wrapper)

    def _wrap_methods(self, cls, layer):
        # Only methods named in WORK: wrapping the others would put a call
        # through the wrapper on every item of Rng.shuffle.
        for key, val in list(vars(cls).items()):
            if isinstance(val, types.FunctionType) and f"{layer}.{val.__qualname__}" in WORK:
                setattr(cls, key, self._wrap(val, layer))

    def _wrap(self, fn, layer):
        name = f"{layer}.{fn.__qualname__}"
        work = WORK.get(name)
        forced = work is not None
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not forced and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            span = [name, layer, stack[-1][0] if stack else -1, 0.0, 0.0, None, None]
            stack.append((len(spans), layer))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = clock()
                span[5] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[4] = clock()
            if forced:
                span[6] = work(args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per-function and per-layer totals, self times, counts and work."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[2] >= 0:
                child[s[2]] += s[4] - s[3]
        functions = {}
        layers = {}
        root_s = 0.0
        for k, s in enumerate(spans):
            name, layer, parent, start, end, error, work = s
            total = end - start
            own = total - child[k]
            if parent < 0:
                root_s += total
            f = functions.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                            "errors": {}, "work": {}, "caller_work": {}})
            f["calls"] += 1
            f["total_s"] += total
            f["self_s"] += own
            if error is not None:
                f["errors"][error] = f["errors"].get(error, 0) + 1
            if work:
                caller = spans[parent][1] if parent >= 0 else ""
                by_caller = f["caller_work"].setdefault(caller, {})
                for key, value in work.items():
                    f["work"][key] = f["work"].get(key, 0) + value
                    by_caller[key] = by_caller.get(key, 0) + value
            lay = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
            lay["calls"] += 1
            lay["self_s"] += own
        return {"spans": len(spans), "root_s": root_s, "functions": functions, "layers": layers}
