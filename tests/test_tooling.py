"""The benchmark's traced run wraps ddefloquet functions by name from
outside the package; a rename or a changed call shape must fail here, not
silently in the trace."""

import importlib
import importlib.util
import inspect
import os

from ddefloquet import floquet, rootfind
from ddefloquet.systems import constant_density

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


def test_special_wrappers_match_the_call_shapes():
    # the SPECIAL wrappers of the traced run take `f` as the first argument
    # of find_roots and _newton, unpack (root, ok) from _newton and count
    # len() of what find_exponents returns
    for fn in (rootfind.find_roots, rootfind._newton):
        assert next(iter(inspect.signature(fn).parameters)) == "f"
    out = rootfind._newton(lambda z: z - 0.5, 0.4 + 0.1j, 1e-12)
    assert isinstance(out, tuple) and len(out) == 2
    dens = constant_density(-1.0, 0.0, omega=1.0, tau=1.0)
    modes = floquet.find_exponents(dens, box=(-2, 0.5, -0.5, 0.5), n_win=4, depth=4)
    assert isinstance(modes, list) and len(modes) == 1
    # the benchmark passes these by keyword, and nothing else is settable
    assert list(inspect.signature(floquet.find_exponents).parameters) == [
        "density", "box", "n_win", "depth", "tol", "grid"
    ]
