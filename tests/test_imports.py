"""Every module in the package must import cleanly and export what its
``__all__`` promises — guards the corners no other test touches."""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro


def _all_modules():
    mods = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        mods.append(info.name)
    return mods


@pytest.mark.parametrize("name", _all_modules())
def test_module_imports(name):
    module = importlib.import_module(name)
    assert module is not None


@pytest.mark.parametrize("name", _all_modules())
def test_dunder_all_resolves(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol!r}"


def test_top_level_version():
    assert repro.__version__


def test_every_public_module_has_docstring():
    for name in _all_modules():
        module = importlib.import_module(name)
        if name.endswith("__main__"):
            continue
        assert module.__doc__, f"{name} lacks a module docstring"


def test_api_and_shard_pool_load_no_scipy():
    # scipy.ndimage alone brings ~315 modules; the field generators and
    # blob detection import it where they run, so a process that only
    # drives the API surface or shard workers never pays for it.
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    code = (
        "import sys, repro.api, repro.cluster.pool; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
