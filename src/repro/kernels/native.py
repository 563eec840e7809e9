"""The compiled tile folds: one C call per stack of tiles.

The paper runs its tile kernels as native code inside each executor.
This module holds that code — one C source, four entry points — and
builds it on first use with the host's C compiler:

``minplus`` / ``maxplus``
    ``x[i,j] = x[i,j] ⊕ (u[i,k] + v[k,j])`` for ``k = 0 .. K-1``, ⊕ the
    NumPy ``minimum`` / ``maximum`` of the same two operands, cell by
    cell: ``(x < c || x != x) ? x : c`` keeps NumPy's choice on a ``±0``
    tie (the second operand) and propagates NaN, and the steps of one
    cell run in ``k`` order, so every chunking NumPy might use gives the
    same bits.  ``inf + (-inf)`` is left to the caller's NaN guard.
``orand``
    ``x = x | (u & v)`` over ``bool`` tiles (results are ``0`` / ``1``,
    as NumPy's logical ufuncs write them).
``ge``
    Gaussian elimination's ``x = x - ((u * v) / w[k,k])``: the multiply,
    divide and subtract of ``GaussianEliminationGep.apply_steps``, in
    that order, step by step.

Each folds a whole stack ``(M, rows, cols)`` with ``u`` ``(M, rows, K)``
and ``v`` ``(M, K, cols)`` (a 2-D tile is the stack of one) in one
``ctypes`` call, which releases the GIL.  Every operand has its own
strides; a stack stride of 0 is a pivot panel shared through
``np.broadcast_to``.  Step ``k`` copies every tile's ``u`` column and
``v`` row (and GE's pivot) to scratch before it writes ``x`` — NumPy's
order, whose step product is complete before ``x`` changes — so
operands that alias ``x`` (kernel cases A/B/C, the recursive kernel's
overlapping views) read exactly what they read there.

:func:`fold` returns ``False``, and the caller runs its NumPy fold,
for anything the C does not cover: another dtype, an ``x`` whose rows
are not contiguous or whose tiles could overlap, a negative or
unaligned stride, mismatched shapes — or no library.  The library is
built with ``$CC`` (default ``cc``) into ``${XDG_CACHE_HOME:-~/.cache}
/repro/``, keyed on the source, the compiler's version, the flags and
the CPU's ISA flags, so a library built for another CPU is never
loaded.  It is published with ``os.replace``, so processes racing a
cold cache each load one complete file.  A failed build or load is
recorded and :func:`status` reports it; NumPy runs from then on.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

__all__ = ["fold", "fold_of", "status"]

_SOURCE = r"""
#include <stddef.h>
#include <stdlib.h>

typedef ptrdiff_t idx;

enum { MINPLUS, MAXPLUS, GE };

/* K steps over a stack of M tiles.  Tile m's row i of x starts at
   x + m*xm + i*xr (contiguous columns); u[m][i][k] is at
   u + m*um + i*ur + k*uk and v[m][k][j] at v + m*vm + k*vk + j*vc;
   GE's pivot w[m][k][k] at w + m*wm + k*wd. */
static inline __attribute__((always_inline)) int fold_f64(
    int op, double *x, const double *u, const double *v, const double *w,
    idx M, idx rows, idx cols, idx K, idx xm, idx xr, idx um, idx ur,
    idx uk, idx vm, idx vk, idx vc, idx wm, idx wd)
{
    double *col = malloc(sizeof(double) * (size_t)(M * (rows + cols + 1) + 1));
    if (col == NULL)
        return -1;
    double *row = col + M * rows, *piv = row + M * cols;
    for (idx k = 0; k < K; k++) {
        for (idx m = 0; m < M; m++) {
            for (idx i = 0; i < rows; i++)
                col[m * rows + i] = u[m * um + i * ur + k * uk];
            for (idx j = 0; j < cols; j++)
                row[m * cols + j] = v[m * vm + k * vk + j * vc];
            if (op == GE)
                piv[m] = w[m * wm + k * wd];
        }
        for (idx m = 0; m < M; m++) {
            const double *restrict vr = row + m * cols;
            for (idx i = 0; i < rows; i++) {
                double *restrict xi = x + m * xm + i * xr;
                const double a = col[m * rows + i];
                if (op == GE) {
                    const double p = piv[m];
                    for (idx j = 0; j < cols; j++)
                        xi[j] = xi[j] - a * vr[j] / p;
                } else if (op == MINPLUS) {
                    for (idx j = 0; j < cols; j++) {
                        const double c = a + vr[j];
                        xi[j] = (xi[j] < c || xi[j] != xi[j]) ? xi[j] : c;
                    }
                } else {
                    for (idx j = 0; j < cols; j++) {
                        const double c = a + vr[j];
                        xi[j] = (xi[j] > c || xi[j] != xi[j]) ? xi[j] : c;
                    }
                }
            }
        }
    }
    free(col);
    return 0;
}

int minplus(double *x, const double *u, const double *v, idx M, idx rows,
            idx cols, idx K, idx xm, idx xr, idx um, idx ur, idx uk, idx vm,
            idx vk, idx vc)
{
    return fold_f64(MINPLUS, x, u, v, NULL, M, rows, cols, K, xm, xr, um, ur,
                    uk, vm, vk, vc, 0, 0);
}

int maxplus(double *x, const double *u, const double *v, idx M, idx rows,
            idx cols, idx K, idx xm, idx xr, idx um, idx ur, idx uk, idx vm,
            idx vk, idx vc)
{
    return fold_f64(MAXPLUS, x, u, v, NULL, M, rows, cols, K, xm, xr, um, ur,
                    uk, vm, vk, vc, 0, 0);
}

int ge(double *x, const double *u, const double *v, idx M, idx rows,
       idx cols, idx K, idx xm, idx xr, idx um, idx ur, idx uk, idx vm,
       idx vk, idx vc, const double *w, idx wm, idx wd)
{
    return fold_f64(GE, x, u, v, w, M, rows, cols, K, xm, xr, um, ur, uk,
                    vm, vk, vc, wm, wd);
}

int orand(unsigned char *x, const unsigned char *u, const unsigned char *v,
          idx M, idx rows, idx cols, idx K, idx xm, idx xr, idx um, idx ur,
          idx uk, idx vm, idx vk, idx vc)
{
    unsigned char *col = malloc((size_t)(M * (rows + cols) + 1));
    if (col == NULL)
        return -1;
    unsigned char *row = col + M * rows;
    /* NumPy's first or-step writes every cell as 0 / 1; so does this */
    for (idx m = 0; K > 0 && m < M; m++)
        for (idx i = 0; i < rows; i++)
            for (idx j = 0; j < cols; j++)
                x[m * xm + i * xr + j] = x[m * xm + i * xr + j] != 0;
    for (idx k = 0; k < K; k++) {
        for (idx m = 0; m < M; m++) {
            for (idx i = 0; i < rows; i++)
                col[m * rows + i] = u[m * um + i * ur + k * uk] != 0;
            for (idx j = 0; j < cols; j++)
                row[m * cols + j] = v[m * vm + k * vk + j * vc] != 0;
        }
        for (idx m = 0; m < M; m++) {
            const unsigned char *restrict vr = row + m * cols;
            for (idx i = 0; i < rows; i++) {
                unsigned char *restrict xi = x + m * xm + i * xr;
                if (col[m * rows + i])
                    for (idx j = 0; j < cols; j++)
                        xi[j] |= vr[j];
            }
        }
    }
    free(col);
    return 0;
}
"""

#: No ``-ffast-math``: it would let the compiler reorder, contract and
#: drop the NaN and signed-zero cases the folds must keep bit for bit.
_FLAGS = (
    "-O2",
    "-march=native",
    "-ftree-vectorize",
    "-fvect-cost-model=dynamic",
    "-ffp-contract=off",
    "-shared",
    "-fPIC",
)

#: the table dtype each entry point folds
_DTYPES = {
    "minplus": np.dtype(np.float64),
    "maxplus": np.dtype(np.float64),
    "orand": np.dtype(np.bool_),
    "ge": np.dtype(np.float64),
}

_lock = threading.Lock()
_lib: ctypes.CDLL | None = None
#: ``"native"``, ``"numpy: <why>"``, or ``None`` before the first load
_status: str | None = None


def status() -> str:
    """``"native"``, or ``"numpy: <reason>"`` when the library could not
    be built or loaded in this process.  Loads it on first use."""
    _library()
    return _status


def fold_of(spec) -> str:
    """:func:`status` for the fold ``spec``'s tile updates reach, or
    ``"numpy: ..."`` when no entry point covers it."""
    entry = getattr(spec, "native_fold", None)
    if entry is None or np.dtype(spec.dtype) != _DTYPES[entry]:
        return f"numpy: no compiled fold for {spec.name} ({np.dtype(spec.dtype)})"
    return status()


def fold(entry: str, x, u, v, w=None) -> bool:
    """Fold ``u``'s columns and ``v``'s rows into ``x`` in place with the
    compiled ``entry``; ``w`` is GE's pivot tile (one, or one per stacked
    tile).  Returns ``False``, with ``x`` untouched, when the layout or
    the library rules the C out and the caller's NumPy fold must run.

    ``x``, ``u``, ``v`` and ``w`` stay referenced by this frame for the
    whole call, so every pointer handed to C is live; the C allocates
    its own scratch.
    """
    lib = _library()
    if lib is None or (w is None) == (entry == "ge"):
        return False
    args = _layout(_DTYPES[entry], x, u, v, w)
    if args is None:
        return False
    if x.size and u.shape[-1]:
        return getattr(lib, entry)(*args) == 0
    return True


def _layout(dtype, x, u, v, w):
    """The C arguments for a fold of this layout, or ``None`` when the C
    does not cover it.  Strides go to C in elements."""
    nd = x.ndim
    if nd not in (2, 3) or u.ndim != nd or v.ndim != nd:
        return None
    rows, cols = x.shape[-2:]
    pivot = u.shape[-1]
    if u.shape != x.shape[:-1] + (pivot,) or v.shape != x.shape[:-2] + (pivot, cols):
        return None
    operands = (x, u, v) if w is None else (x, u, v, w)
    size = dtype.itemsize
    for a in operands:
        # ``aligned``: the data pointer and every stride C will step by
        # are multiples of the item size
        if a.dtype != dtype or not a.flags.aligned or min(a.strides) < 0:
            return None
    if w is not None and not (
        w.shape == (pivot, pivot) or nd == 3 and w.shape == (x.shape[0], pivot, pivot)
    ):
        return None
    if not x.flags.writeable or x.strides[-1] != size:
        return None
    xs, us, vs = ([s // size for s in a.strides] for a in (x, u, v))
    if nd == 2:
        xs, us, vs = [0, *xs], [0, *us], [0, *vs]
    M = x.shape[0] if nd == 3 else 1
    # x's rows and tiles must not overlap: C writes them independently
    if rows > 1 and xs[1] < cols or M > 1 and xs[0] < (rows - 1) * xs[1] + cols:
        return None
    args = [
        x.ctypes.data, u.ctypes.data, v.ctypes.data, M, rows, cols, pivot,
        xs[0], xs[1], *us, *vs,
    ]
    if w is not None:
        ws = [s // size for s in w.strides]
        args += [w.ctypes.data, ws[0] if w.ndim == 3 else 0, ws[-2] + ws[-1]]
    return args


def _library() -> ctypes.CDLL | None:
    global _lib, _status
    if _status is None:
        with _lock:
            if _status is None:
                try:
                    _lib = _load()
                    _status = "native"
                except (OSError, subprocess.SubprocessError) as exc:
                    _status = f"numpy: {exc}"
    return _lib


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME")
    if not base or not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro"


def _cpu_flags() -> str:
    """The CPU's ISA flags (``-march=native`` compiles for them)."""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    return line
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def _load() -> ctypes.CDLL:
    """Load the library for this source, compiler, flags and CPU,
    building it into the cache first if it is not there."""
    cc = shlex.split(os.environ.get("CC") or "cc")
    if not cc or shutil.which(cc[0]) is None:
        raise OSError(f"no C compiler: {cc[0] if cc else '$CC'!r} not found")
    version = subprocess.run(
        [*cc, "--version"], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    key = hashlib.blake2b(
        repr((_SOURCE, version, _FLAGS, _cpu_flags())).encode(), digest_size=12
    ).hexdigest()
    path = _cache_dir() / f"fold-{key}.so"
    if not path.exists():
        _build(cc, path)
    lib = ctypes.CDLL(str(path))
    p, n = ctypes.c_void_p, ctypes.c_ssize_t
    for entry in _DTYPES:
        fn = getattr(lib, entry)
        fn.argtypes = [p, p, p] + [n] * 12 + ([p, n, n] if entry == "ge" else [])
        fn.restype = ctypes.c_int
    return lib


def _build(cc: list[str], path: Path) -> None:
    """Compile into a private file next to ``path``, then publish it with
    one ``os.replace``: a reader sees no file or a complete one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        done = subprocess.run(
            [*cc, *_FLAGS, "-x", "c", "-", "-o", tmp],
            input=_SOURCE, capture_output=True, text=True, timeout=300,
        )
        if done.returncode != 0:
            tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
            raise OSError(f"{cc[0]} exited {done.returncode}: {tail[0]}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
