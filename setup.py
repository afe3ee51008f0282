"""Build script.

The search kernel ships both as a Cython extension and as pure Python.
With Cython present the extension is built from ``_speedups.pyx``; without
it, from the committed ``_speedups.c``.  If no C compiler is available the
extension is skipped and the package falls back to the pure implementation
at import time.  Set ORIENT2_NO_EXTENSION=1 to skip the extension on
purpose.
"""

import os

from setuptools import Extension, setup

ext_modules = []
if os.environ.get("ORIENT2_NO_EXTENSION") != "1":
    try:
        from Cython.Build import cythonize

        ext_modules = cythonize(
            ["src/orient2/_speedups.pyx"],
            compiler_directives={
                "language_level": "3",
                "boundscheck": False,
                "wraparound": False,
                "cdivision": True,
            },
        )
    except ImportError:
        ext_modules = [Extension("orient2._speedups", ["src/orient2/_speedups.c"], optional=True)]

setup(ext_modules=ext_modules)
