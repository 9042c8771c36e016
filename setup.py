"""Build script for the optional compiled kernels.

``ordlift._kernels`` is compiled from the shipped, Cython-generated
``src/ordlift/_kernels.c``; no Cython is needed.  The extension is optional:
without a working C compiler the build warns, skips it, and ordlift uses the
pure-Python kernels.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("ordlift._kernels", ["src/ordlift/_kernels.c"], optional=True)
    ]
)
