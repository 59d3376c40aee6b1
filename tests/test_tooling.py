"""The benchmark's tracer (perfbench/tracer.py) wraps package functions where
their callers look them up; a site renamed or deleted from the package breaks
every traced benchmark run, which only the slow benchmark self-test exercises."""

import inspect

from perfbench.tracer import patch_table


def test_every_tracer_patch_site_resolves():
    missing = []
    for name, sites in patch_table():
        for owner, attr in sites:
            try:
                inspect.getattr_static(owner, attr)
            except AttributeError:
                missing.append(f"{name}: {getattr(owner, '__name__', owner)}.{attr}")
    assert not missing
