"""Print the machine facts the benchmark's figures depend on.

Usage: python3 benchmark/machine.py
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np
import scipy


def blas_threads() -> str:
    """Thread count of the OpenBLAS that numpy's wheel bundles, if found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def main() -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"nproc          {os.cpu_count()}")
    print(f"cpu            {cpu_model()}")
    print(f"python         {platform.python_version()}")
    print(f"numpy          {np.__version__}")
    print(f"scipy          {scipy.__version__}")
    print(f"blas           {blas.get('name')} {blas.get('version')}")
    print(f"blas threads   {blas_threads()}")


if __name__ == "__main__":
    main()
