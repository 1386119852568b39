"""Build script for the optional compiled tree-edit-distance core.

The extension is a pure speedup: if no C compiler is available the install
still succeeds and tsrkit falls back to the pure-Python kernel.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "tsrkit.teds._speedup",
            sources=["src/tsrkit/teds/_speedup.c"],
            optional=True,
        )
    ]
)
