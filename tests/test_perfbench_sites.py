"""Every name the repo benchmark's tracer wraps still resolves.

``perfbench/spans.py`` patches functions of ``src/`` by name for its
per-layer split.  A renamed or deleted name makes every traced benchmark
run raise, which otherwise only the traced CI smokes and the slow
benchmark self-tests would catch.  These checks resolve each wrap site
the way :func:`spans.traced` looks it up: ``vars()`` for a class (its
own attribute, not an inherited one), ``getattr`` for a module.
"""

import importlib.util
import pathlib

import pytest

SPANS_PATH = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(holder, name):
    if isinstance(holder, type):
        return vars(holder)[name]
    return getattr(holder, name)


def test_every_wrap_site_resolves(spans):
    sites = spans.wrap_sites()
    assert sites
    missing = []
    for holder, name, layer, _ in sites:
        assert layer in spans.LAYERS, (holder, name, layer)
        try:
            fn = _resolve(holder, name)
        except (KeyError, AttributeError):
            missing.append(f"{getattr(holder, '__name__', holder)}.{name}")
            continue
        assert callable(fn), (holder, name)
    assert missing == []


def test_every_kernel_name_is_wrapped(spans):
    from repro.geometry import kernels

    wrapped = {name for holder, name, _, _ in spans.wrap_sites()
               if holder is kernels}
    assert wrapped == set(spans.KERNELS)


def test_traced_installs_and_restores_every_site(spans):
    before = [(h, n, _resolve(h, n)) for h, n, _, _ in spans.wrap_sites()]
    with spans.traced(spans.Tracer()):
        for holder, name, fn in before:
            assert _resolve(holder, name).__wrapped__ is fn
    for holder, name, fn in before:
        assert _resolve(holder, name) is fn
