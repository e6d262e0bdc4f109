"""Build script: compiles the optional record kernel ``pqc._bits_ext``.

The package is fully functional without the extension (its pure-Python
twin ``pqc._bits_py`` is selected at import when the compiled module is
absent), so any failure here downgrades to a warning instead of breaking
the install.
"""

import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler, broken toolchain, ...
            warnings.warn(f"skipping the compiled kernel ({exc}); using pure Python")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            warnings.warn(f"skipping {ext.name} ({exc}); using pure Python")


setup(
    ext_modules=[
        Extension("pqc._bits_ext", ["src/pqc/_bits_ext.c"], extra_compile_args=["-O3"])
    ],
    cmdclass={"build_ext": optional_build_ext},
)
