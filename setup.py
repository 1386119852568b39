"""Build script for the optional compiled core: the tree-edit-distance kernel,
the corpus loader's column packer and the canonical structure-HTML scanner.

The extension is a pure speedup: if no C compiler is available the install
still succeeds and tsrkit falls back to the pure-Python kernel, packer and
parser.
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
