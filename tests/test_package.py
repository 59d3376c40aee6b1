import inspect

import asyncofdm
from asyncofdm import analytics, link, simulation, sinr, timing

MODULES = (link, sinr, timing, analytics, simulation)


def test_the_package_exports_exactly_its_modules_all():
    exported = {name for name, value in vars(asyncofdm).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == set().union(*(m.__all__ for m in MODULES))
    for m in MODULES:
        assert all(getattr(asyncofdm, name) is getattr(m, name) for name in m.__all__), m
