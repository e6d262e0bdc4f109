"""Build script: compiles the optional bit-kernel extensions.

The package is fully functional without the extensions (a pure-Python twin
of each kernel is selected at import when its compiled module is absent),
so any failure here downgrades to a warning instead of breaking the
install.
"""

import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler, broken toolchain, ...
            warnings.warn(f"skipping compiled kernels ({exc}); using pure Python")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            warnings.warn(f"skipping {ext.name} ({exc}); using pure Python")


# The version-2 record kernel is plain C and builds without Cython.
ext_modules = [
    Extension("pqc._bits_eg", ["src/pqc/_bits_eg.c"], extra_compile_args=["-O3"])
]
try:
    from Cython.Build import cythonize

    ext_modules += cythonize(
        [
            Extension(
                "pqc._bits_c",
                ["src/pqc/_bits_c.pyx"],
                extra_compile_args=["-O3"],
            )
        ],
        compiler_directives={"language_level": "3"},
    )
except ImportError:
    warnings.warn("Cython not available; building without the compiled _bits_c")

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
