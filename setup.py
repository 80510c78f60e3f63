from setuptools import Extension, setup

# optional: without a C compiler the package installs on the pure-Python
# kernels, which ``_dispatch`` falls back to at import.
setup(
    ext_modules=[
        Extension("charrank._kernels_c", ["src/charrank/_kernels_c.c"], optional=True)
    ]
)
