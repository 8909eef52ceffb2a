"""Traced child: run one g2mu CLI op in-process with timing spans per layer.

    python3 perfbench/tracer.py TRACE_OUT.json <g2mu argv...>

The wrappers are installed from here, not from the program: every public
function of each layer module (and every public method of the classes it
defines) is replaced by a timing wrapper, on the defining module and on every
g2mu module or module-level dict that holds a reference to it (for example
`oracle.typed_contraction_kernel`, `cli.COMMANDS`).  A few private helpers
are wrapped as well because the counters below are measured at them.

Spans nest: a span's self time is its duration minus the time of the spans
it caused.  Spans stay in memory and are summarised into TRACE_OUT.json when
the op ends, together with the counters.  The CLI's report still goes to
stdout and its exit code is the process exit code, exactly as with
`python -m g2mu.cli`.
"""

import importlib
import json
import sys
import time
import types

LAYERS = ("cli", "orbifold", "g2", "exterior", "linalg", "invariants", "fourier",
          "oracle", "epstein")

# private helpers whose calls carry a counter of their own
PRIVATE = {"oracle._fixed_vectors", "oracle._restricted_trace"}

# constructors worth a span of their own
INITS = {"g2.G2Structure"}


class Tracer:
    def __init__(self):
        self.stack = []                 # [name, start, child seconds]
        self.self_s = {}
        self.calls = {}
        self.top_s = 0.0                # time inside outermost spans
        self.depth = {}
        self.counters = {}
        self.hooks = {}
        self.kernel_keys = set()

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name, fn):
        stack, self_s, calls, depth, hooks = (self.stack, self.self_s, self.calls,
                                              self.depth, self.hooks)
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - frame[1]
                self_s[name] = self_s.get(name, 0.0) + dur - frame[2]
                calls[name] = calls.get(name, 0) + 1
                if stack:
                    stack[-1][2] += dur
                else:
                    tracer.top_s += dur
            hook = hooks.get(name)
            if hook is not None:
                hook(tracer, args, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        return span

    def summary(self):
        return {"self_s": self.self_s, "calls": self.calls, "top_s": self.top_s,
                "counters": self.counters}


# -- counters measured at layer boundaries ------------------------------------------


def _on_generate(tracer, args, group):
    tracer.count("orbifold.group_order", len(group))
    tracer.count("orbifold.generate.new_elements", len(group) - 1)


def _on_compose(tracer, args, result):
    if tracer.depth.get("orbifold.generate"):
        tracer.count("orbifold.generate.compositions")


def _on_enumerate_classes(tracer, args, classes):
    tracer.count("oracle.classes", len(classes))
    tracer.count("oracle.lattice_vectors", sum(len(c.vectors) for c in classes))


def _on_fixed_vectors(tracer, args, fixed):
    tracer.count("oracle.fixed_pairs", len(fixed))
    tracer.count("oracle.scanned_pairs", len(args[1].vectors))


def _on_restricted_trace(tracer, args, result):
    tracer.count("oracle.restricted_traces")


def _on_kernel(tracer, args, result):
    structure, l, grade, component = args[:4]
    l = tuple(int(x) for x in l)
    if next((x for x in l if x), 1) < 0:
        l = tuple(-x for x in l)         # l and -l share a kernel
    key = (id(structure), grade, component, l)
    if key not in tracer.kernel_keys:
        tracer.kernel_keys.add(key)
        tracer.count("fourier.typed_contraction_kernel.distinct")


HOOKS = {
    "orbifold.generate": _on_generate,
    "orbifold.compose": _on_compose,
    "oracle.enumerate_classes": _on_enumerate_classes,
    "oracle._fixed_vectors": _on_fixed_vectors,
    "oracle._restricted_trace": _on_restricted_trace,
    "fourier.typed_contraction_kernel": _on_kernel,
}


# -- installation -------------------------------------------------------------------


def _wrappable(obj, module_name):
    """Plain or lru_cache'd functions defined in the module itself."""
    return ((isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"))
            and getattr(obj, "__module__", None) == module_name)


def install(tracer):
    """Wrap every layer's public callables and rebind all references to them."""
    modules = {short: importlib.import_module(f"g2mu.{short}") for short in LAYERS}
    replaced = {}
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            qual = f"{short}.{attr}"
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                _wrap_class(tracer, short, obj)
            elif _wrappable(obj, mod.__name__) and (not attr.startswith("_") or qual in PRIVATE):
                wrapper = tracer.wrap(qual, obj)
                replaced[id(obj)] = (obj, wrapper)
                setattr(mod, attr, wrapper)
    tracer.hooks.update(HOOKS)
    for mod in [m for name, m in sys.modules.items() if name.startswith("g2mu")]:
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    hit = replaced.get(id(value))
                    if hit is not None and hit[0] is value:
                        obj[key] = hit[1]


def _wrap_class(tracer, short, cls):
    """Wrap public methods (and selected constructors) of a layer's class."""
    for attr, val in list(vars(cls).items()):
        if attr.startswith("_") and not (attr == "__init__"
                                         and f"{short}.{cls.__name__}" in INITS):
            continue
        qual = f"{short}.{cls.__name__}.{attr}"
        if isinstance(val, types.FunctionType):
            setattr(cls, attr, tracer.wrap(qual, val))
        elif isinstance(val, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(qual, val.__func__)))
        elif isinstance(val, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(qual, val.__func__)))


def main(argv):
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from g2mu import cli
    try:
        code = cli.run(cli_argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
