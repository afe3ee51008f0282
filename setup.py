"""Build script.

The search kernel ships as the hand-written C extension ``_speedups.c``
and as pure Python.  If no C compiler is available the extension is
skipped and the package falls back to the pure kernel at import time.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("orient2._speedups", ["src/orient2/_speedups.c"], optional=True)])
