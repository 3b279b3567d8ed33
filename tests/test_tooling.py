"""The benchmark's traced run wraps ddefloquet functions by name from
outside the package; a rename must fail here, not silently in the trace."""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves():
    wrapped = _load_spans().WRAPPED
    assert wrapped
    for name, (modname, attr) in wrapped.items():
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            target = getattr(owner, cls_name).__dict__.get(meth)
        else:
            target = getattr(owner, attr, None)
        assert callable(target), f"{name}: {modname}.{attr} does not resolve"
