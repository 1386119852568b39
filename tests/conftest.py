"""Shared fixtures: the compiled TED kernel, built from source into a temp dir."""

import importlib.util
import shutil
import sysconfig
from pathlib import Path

import pytest

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
