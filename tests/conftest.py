"""Shared fixtures: the compiled extension, built from source into a temp dir, and the backend selection."""

import importlib.util
import shutil
import sysconfig
from pathlib import Path

import pytest

from tsrkit.teds import distance

KERNEL_SOURCE = Path(__file__).resolve().parents[1] / "src" / "tsrkit" / "teds" / "_speedup.c"


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """``_speedup.c`` compiled into pytest's temp dir and loaded from there.

    Nothing is written under ``src/``, so the backend the rest of the suite
    imports is unchanged. Skips only when no C compiler is on the PATH.
    """
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"no C compiler ({compiler}) to build {KERNEL_SOURCE.name}")
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    out = tmp_path_factory.mktemp("speedup")
    dist = Distribution({"ext_modules": [Extension("_speedup", [str(KERNEL_SOURCE)])]})
    command = build_ext(dist)
    command.build_lib = str(out)
    command.build_temp = str(out / "obj")
    command.ensure_finalized()
    command.run()
    spec = importlib.util.spec_from_file_location("_speedup", command.get_ext_fullpath("_speedup"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["compiled", "python"])
def backend(request, monkeypatch):
    """Each backend in turn, for the TED kernel, the column packer and the canonical parser alike.

    The compiled one is ``compiled_kernel``, put in place as the module that
    ``distance.compiled()`` returns; the python one sets TSRKIT_PURE_PYTHON.
    """
    if request.param == "compiled":
        monkeypatch.delenv("TSRKIT_PURE_PYTHON", raising=False)
        monkeypatch.setattr(distance, "_speedup", request.getfixturevalue("compiled_kernel"))
    else:
        monkeypatch.setenv("TSRKIT_PURE_PYTHON", "1")
    assert distance.backend_name() == request.param
    return request.param
