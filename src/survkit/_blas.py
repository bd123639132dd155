"""OpenBLAS's thread count, set for the length of a block.

Matrix products sum in another order at another thread count, so their
last bits depend on it. `blas_threads(n)` runs a block at n threads and
gives each library back its own count afterwards, also when the block
raises. The libraries are the OpenBLAS builds mapped into the process when
first asked (numpy's, whose products survkit makes), found as
`survbench/child.py` finds them; where none is found, or on a platform
without /proc, the block runs at whatever count the process has.
"""

from __future__ import annotations

import contextlib
import functools

# (get, set) symbol names: the builds numpy (64-bit ints) and scipy ship,
# then a plain OpenBLAS
_SYMBOLS = [(f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
            for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")]


@functools.cache
def _openblas():
    """(get, set) of the thread count of each OpenBLAS mapped now."""
    import ctypes  # loaded on first use, outside `import survkit`

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return ()
    found = []
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, put = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                put.argtypes = [ctypes.c_int]
                put.restype = None
                found.append((get, put))
                break
    return tuple(found)


@contextlib.contextmanager
def blas_threads(n):
    """Run the block with every OpenBLAS at `n` threads, and restore each
    one's count on exit. Yields the count the first library then reports,
    or None when no OpenBLAS is found."""
    libs = _openblas()
    before = [get() for get, _ in libs]
    try:
        for _, put in libs:
            put(n)
        yield libs[0][0]() if libs else None
    finally:
        for (_, put), count in zip(libs, before):
            put(count)
