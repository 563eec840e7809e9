"""The compiled tile folds: one C call per stack of tiles.

The paper runs its tile kernels as native code inside each executor.
This module holds that code — one C source, four entry points — and
builds it on first use with the host's C compiler:

``minplus`` / ``maxplus``
    The semiring's guarded fold: ``x[i,j] = x[i,j] ⊕ c`` with ``c =
    u[i,k] + v[k,j]`` for ``k = 0 .. K-1``, where a NaN ``c`` (``inf +
    (-inf)``, or a NaN operand) is first the semiring zero (``+inf`` /
    ``-inf``) and ⊕ is the NumPy ``minimum`` / ``maximum`` of the same
    two operands, cell by cell: ``(x < c || x != x) ? x : c`` keeps
    NumPy's choice on a ``±0`` tie (the second operand) and keeps a NaN
    ``x``, and the steps of one cell run in ``k`` order.  So one call
    leaves exactly the bits of ``SemiringGep.apply_k`` step by step (the
    semiring's guarded ``mul``, then ``add_inplace``), NaN included, and
    no check or redo follows it.
``orand``
    ``x = x | (u & v)`` over ``bool`` tiles (results are ``0`` / ``1``,
    as NumPy's logical ufuncs write them).
``ge``
    Gaussian elimination's ``x = x - ((u * v) / w[k,k])``: the multiply,
    divide and subtract of ``GaussianEliminationGep.apply_k``, in that
    order, step by step.  It also takes Σ_G's *corner* ``(ri,
    cj)``: step ``k`` updates only rows ``i >= k + ri`` and columns
    ``j >= k + cj`` of every tile, so a masked tile or panel
    (``GaussianEliminationGep.apply_corner``) is one call too; it runs
    k-outer, below, each step over its corner.

Each folds a whole stack ``(M, rows, cols)`` with ``u`` ``(M, rows, K)``
and ``v`` ``(M, K, cols)`` (a 2-D tile is the stack of one) in one
``ctypes`` call, which releases the GIL.  Every operand has its own
strides; a stack stride of 0 is a pivot panel shared through
``np.broadcast_to``.  The float folds take one of two loop orders,
chosen in C from the operands' address ranges:

* **Apart** — ``u``, ``v`` (and GE's pivots) span no byte of ``x``, and
  ``v``'s rows are contiguous: kernel case D, ``run_stacks``' D stacks,
  the recursive kernel's sub-views of distinct tiles.  Each tile is
  register-blocked: a 4-row x 16-column block of ``x`` (GCC / Clang
  ``vector_size`` lanes) stays in registers across all ``K`` steps,
  reading one ``v`` row segment and four ``u`` values per step; narrower
  blocks (one row, eight columns) and a cell-by-cell tail cover the rest.
  Before any write, min-plus / max-plus scan ``x``, ``u`` and ``v``
  (eight lanes at a time) to pick the faster of two forms of the same
  step: with no NaN in any of them and no ``+inf`` in one of ``u`` /
  ``v`` meeting a ``-inf`` in the other, no step can see a NaN, and the
  plain compare ``x < c ? x : c`` gives the guarded step's bits, ``±0``
  ties included, so the blocks run it — on AVX-512 one ``vminpd`` /
  ``vmaxpd`` per eight lanes, ``x`` first, since MINPD / MAXPD return
  their second operand on a tie — and otherwise the same blocks run the
  guarded step.  The scan decides speed only.
* **k-outer** — an operand may share memory with ``x`` (kernel cases
  A/B/C, their panels, the recursive kernel's overlapping views),
  ``v``'s columns are strided, or GE's corner masks some step.  Step
  ``k`` copies what every tile reads of its ``u`` column and ``v`` row
  (and GE's pivot) to scratch before it writes ``x`` — NumPy's order,
  whose step product is complete before ``x`` changes — so they read
  exactly what they read there.

Both run each cell's steps in ``k`` order through one expression, so
the loop order changes no bit.

:func:`fold` returns ``False``, and ``GepSpec.apply_steps`` runs
``apply_k`` step by step, for anything the C does not cover: no entry
point (``None``), another dtype, an ``x`` whose rows are not contiguous
or whose tiles could overlap, a negative or unaligned stride,
mismatched shapes — or no library.  The library is
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
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#ifdef __AVX512F__
#include <immintrin.h>
#endif

typedef ptrdiff_t idx;

enum { MINPLUS, MAXPLUS, GE };

#define INLINE static inline __attribute__((always_inline))
/* the semiring zero a NaN a + b becomes: +inf for min-plus, -inf for max-plus */
#define ZERO(op) ((op) == MINPLUS ? __builtin_inf() : -__builtin_inf())

/* Eight doubles, the lane mask comparing two of them gives, and one
   double in every lane (an initializer, not arithmetic: 0.0 + -0.0
   would lose the sign). */
typedef double vd __attribute__((vector_size(64)));
typedef long long vmask __attribute__((vector_size(64)));
#define BCAST(s) ((vd){(s), (s), (s), (s), (s), (s), (s), (s)})

INLINE vd load(const double *p) { vd t; memcpy(&t, p, sizeof t); return t; }
INLINE void store(double *p, vd t) { memcpy(p, &t, sizeof t); }

/* One step of one cell: x ⊕ (a + b), or GE's x - a * b / p.  With keep
   it is the semiring's guarded step: a NaN a + b (inf + (-inf), or a
   NaN operand) becomes the semiring zero, then ⊕ is the NaN-keeping
   select NumPy's minimum / maximum make.  Without keep it is the plain
   compare, which agrees with that whenever neither x nor a + b can be
   NaN.  The vector form runs the same expression in every lane. */
INLINE double step1(int op, int keep, double x, double a, double b, double p)
{
    if (op == GE)
        return x - a * b / p;
    double c = a + b;
    if (keep && c != c)
        c = ZERO(op);
    const int take = op == MINPLUS ? x < c : x > c;
    return (take || (keep && x != x)) ? x : c;
}

INLINE vd stepv(int op, int keep, vd x, vd a, vd b, vd p)
{
    if (op == GE)
        return x - a * b / p;
    vd c = a + b;
#ifdef __AVX512F__
    /* MINPD / MAXPD give their second operand on a tie or a NaN, so with
       x first they are the plain compare in one instruction. */
    if (!keep)
        return op == MINPLUS ? (vd)_mm512_min_pd((__m512d)x, (__m512d)c)
                             : (vd)_mm512_max_pd((__m512d)x, (__m512d)c);
#endif
    if (keep) {
        const vmask bad = (vmask)(c != c);
        c = (vd)((bad & (vmask)BCAST(ZERO(op))) | (~bad & (vmask)c));
    }
    vmask take = (vmask)(op == MINPLUS ? x < c : x > c);
    if (keep)
        take |= (vmask)(x != x);
    return (vd)((take & (vmask)x) | (~take & (vmask)c));
}

/* R rows by 8*W columns of x held in registers over all K steps: per
   step one v row segment and R broadcast u values.  Each cell still
   takes its steps in k order. */
INLINE void block(int op, int keep, int R, int W, double *x, idx xr,
                  const double *u, idx ur, idx uk, const double *v, idx vk,
                  const double *w, idx wd, idx K)
{
    vd acc[4][2], b[2];
#pragma GCC unroll 4
    for (int r = 0; r < R; r++)
#pragma GCC unroll 2
        for (int c = 0; c < W; c++)
            acc[r][c] = load(x + r * xr + 8 * c);
    for (idx k = 0; k < K; k++) {
        const vd p = BCAST(op == GE ? w[k * wd] : 0.0);
#pragma GCC unroll 2
        for (int c = 0; c < W; c++)
            b[c] = load(v + k * vk + 8 * c);
#pragma GCC unroll 4
        for (int r = 0; r < R; r++) {
            const vd a = BCAST(u[r * ur + k * uk]);
#pragma GCC unroll 2
            for (int c = 0; c < W; c++)
                acc[r][c] = stepv(op, keep, acc[r][c], a, b[c], p);
        }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; r++)
#pragma GCC unroll 2
        for (int c = 0; c < W; c++)
            store(x + r * xr + 8 * c, acc[r][c]);
}

/* One column strip of W vectors down all rows: 4-row blocks, then
   single rows. */
INLINE void strip(int op, int keep, int W, double *x, idx xr, const double *u,
                  idx ur, idx uk, const double *v, idx vk, const double *w,
                  idx wd, idx rows, idx K)
{
    idx i = 0;
    for (; i + 4 <= rows; i += 4)
        block(op, keep, 4, W, x + i * xr, xr, u + i * ur, ur, uk, v, vk, w, wd, K);
    for (; i < rows; i++)
        block(op, keep, 1, W, x + i * xr, xr, u + i * ur, ur, uk, v, vk, w, wd, K);
}

/* One tile, all K steps, register-blocked: 16-column strips, an
   8-column strip, then the last columns cell by cell. */
INLINE void tile(int op, int keep, double *x, idx xr, const double *u, idx ur,
                 idx uk, const double *v, idx vk, const double *w, idx wd,
                 idx rows, idx cols, idx K)
{
    idx j = 0;
    for (; j + 16 <= cols; j += 16)
        strip(op, keep, 2, x + j, xr, u, ur, uk, v + j, vk, w, wd, rows, K);
    if (j + 8 <= cols) {
        strip(op, keep, 1, x + j, xr, u, ur, uk, v + j, vk, w, wd, rows, K);
        j += 8;
    }
    for (idx i = 0; i < rows; i++)
        for (idx jj = j; jj < cols; jj++) {
            double t = x[i * xr + jj];
            for (idx k = 0; k < K; k++)
                t = step1(op, keep, t, u[i * ur + k * uk], v[k * vk + jj],
                          op == GE ? w[k * wd] : 0.0);
            x[i * xr + jj] = t;
        }
}

enum { HAS_NAN = 1, HAS_PINF = 2, HAS_NINF = 4 };

/* Which of NaN, +inf and -inf the M x R x L elements at
   a + m*ms + r*rs + l*s hold.  Contiguous rows and tiles are scanned as
   one run, eight lanes at a time. */
static int scan(const double *a, idx M, idx ms, idx R, idx rs, idx L, idx s)
{
    if (s == 1 && rs == L) {
        L *= R;
        R = 1;
        if (ms == L) {
            L *= M;
            M = 1;
        }
    }
    const double inf = __builtin_inf();
    const vd vinf = BCAST(inf);
    vmask nan = {0}, pinf = {0}, ninf = {0};
    int f = 0;
    for (idx m = 0; m < M; m++)
        for (idx r = 0; r < R; r++) {
            const double *p = a + m * ms + r * rs;
            idx l = 0;
            if (s == 1)
                for (; l + 8 <= L; l += 8) {
                    const vd t = load(p + l);
                    nan |= (vmask)(t != t);
                    pinf |= (vmask)(t == vinf);
                    ninf |= (vmask)(t == -vinf);
                }
            for (; l < L; l++) {
                const double t = p[l * s];
                f |= (t != t ? HAS_NAN : 0) | (t == inf ? HAS_PINF : 0)
                     | (t == -inf ? HAS_NINF : 0);
            }
        }
    for (int l = 0; l < 8; l++)
        f |= (nan[l] ? HAS_NAN : 0) | (pinf[l] ? HAS_PINF : 0)
             | (ninf[l] ? HAS_NINF : 0);
    return f;
}

/* Whether the n elements spanned from a and the m spanned from b share
   no byte. */
static int apart(const double *a, idx n, const double *b, idx m)
{
    const uintptr_t a0 = (uintptr_t)a, b0 = (uintptr_t)b;
    return a0 + sizeof(double) * (size_t)n <= b0
           || b0 + sizeof(double) * (size_t)m <= a0;
}

/* The fold of operands that share no memory with x (kernel case D),
   v's rows contiguous: every tile register-blocked over all K steps.
   min-plus / max-plus first scan the operands: with no NaN anywhere and
   no +inf in u meeting a -inf in v (or the reverse) no step can see a
   NaN, and the plain compare gives the guarded step's bits. */
INLINE void fold_apart(int op, double *x, const double *u, const double *v,
                       const double *w, idx M, idx rows, idx cols, idx K,
                       idx xm, idx xr, idx um, idx ur, idx uk, idx vm, idx vk,
                       idx wm, idx wd)
{
    int keep = 1;
    if (op != GE) {
        const int fx = scan(x, M, xm, rows, xr, cols, 1);
        const int fu = scan(u, um ? M : 1, um, rows, ur, K, uk);
        const int fv = scan(v, vm ? M : 1, vm, K, vk, cols, 1);
        keep = ((fx | fu | fv) & HAS_NAN)
               || ((fu & HAS_PINF) && (fv & HAS_NINF))
               || ((fu & HAS_NINF) && (fv & HAS_PINF));
    }
    for (idx m = 0; m < M; m++) {
        double *xt = x + m * xm;
        const double *ut = u + m * um, *vt = v + m * vm;
        if (op == GE)
            tile(GE, 1, xt, xr, ut, ur, uk, vt, vk, w + m * wm, wd, rows, cols, K);
        else if (keep)
            tile(op, 1, xt, xr, ut, ur, uk, vt, vk, NULL, 0, rows, cols, K);
        else
            tile(op, 0, xt, xr, ut, ur, uk, vt, vk, NULL, 0, rows, cols, K);
    }
}

/* K steps over a stack of M tiles.  Tile m's row i of x starts at
   x + m*xm + i*xr (contiguous columns); u[m][i][k] is at
   u + m*um + i*ur + k*uk and v[m][k][j] at v + m*vm + k*vk + j*vc;
   GE's pivot w[m][k][k] at w + m*wm + k*wd.  Step k updates the corner
   of rows i >= k + ri and columns j >= k + cj of every tile (GE's Σ_G;
   ri = cj = -K is the whole tile at every step).  Whole-tile operands
   that share no memory with x take fold_apart (when v's rows are
   contiguous, as the kernels' tiles and stacks are); the rest step k by
   k below, each step's corner shrinking with k. */
INLINE int fold_f64(
    int op, double *x, const double *u, const double *v,
    const double *w, idx M, idx rows, idx cols, idx K, idx xm, idx xr,
    idx um, idx ur, idx uk, idx vm, idx vk, idx vc, idx wm, idx wd, idx ri,
    idx cj)
{
    const idx xn = (M - 1) * xm + (rows - 1) * xr + cols;
    if (K - 1 + ri <= 0 && K - 1 + cj <= 0 && vc == 1
        && apart(x, xn, u, (M - 1) * um + (rows - 1) * ur + (K - 1) * uk + 1)
        && apart(x, xn, v, (M - 1) * vm + (K - 1) * vk + cols)
        && (op != GE || apart(x, xn, w, (M - 1) * wm + (K - 1) * wd + 1))) {
        fold_apart(op, x, u, v, w, M, rows, cols, K, xm, xr, um, ur, uk, vm,
                   vk, wm, wd);
        return 0;
    }
    double *col = malloc(sizeof(double) * (size_t)(M * (rows + cols + 1) + 1));
    if (col == NULL)
        return -1;
    double *row = col + M * rows, *piv = row + M * cols;
    for (idx k = 0; k < K; k++) {
        const idx i0 = k + ri > 0 ? k + ri : 0, j0 = k + cj > 0 ? k + cj : 0;
        if (i0 >= rows || j0 >= cols)
            break; /* the corner only shrinks from here */
        for (idx m = 0; m < M; m++) {
            for (idx i = i0; i < rows; i++)
                col[m * rows + i] = u[m * um + i * ur + k * uk];
            for (idx j = j0; j < cols; j++)
                row[m * cols + j] = v[m * vm + k * vk + j * vc];
            if (op == GE)
                piv[m] = w[m * wm + k * wd];
        }
        for (idx m = 0; m < M; m++) {
            const double *restrict vr = row + m * cols;
            for (idx i = i0; i < rows; i++) {
                double *restrict xi = x + m * xm + i * xr;
                const double a = col[m * rows + i];
                const double p = op == GE ? piv[m] : 0.0;
                for (idx j = j0; j < cols; j++)
                    xi[j] = step1(op, 1, xi[j], a, vr[j], p);
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
                    uk, vm, vk, vc, 0, 0, -K, -K);
}

int maxplus(double *x, const double *u, const double *v, idx M, idx rows,
            idx cols, idx K, idx xm, idx xr, idx um, idx ur, idx uk, idx vm,
            idx vk, idx vc)
{
    return fold_f64(MAXPLUS, x, u, v, NULL, M, rows, cols, K, xm, xr, um, ur,
                    uk, vm, vk, vc, 0, 0, -K, -K);
}

int ge(double *x, const double *u, const double *v, idx M, idx rows,
       idx cols, idx K, idx xm, idx xr, idx um, idx ur, idx uk, idx vm,
       idx vk, idx vc, const double *w, idx wm, idx wd, idx ri, idx cj)
{
    return fold_f64(GE, x, u, v, w, M, rows, cols, K, xm, xr, um, ur, uk,
                    vm, vk, vc, wm, wd, ri, cj);
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


def fold(entry: str | None, x, u, v, w=None, *, corner=None) -> bool:
    """Fold ``u``'s columns and ``v``'s rows into ``x`` in place with the
    compiled ``entry``; ``w`` is GE's pivot tile (one, or one per stacked
    tile).  Returns ``False``, with ``x`` untouched, when there is no
    such entry (``None``: a semiring only NumPy folds) or the layout or
    the library rules the C out, and the caller's NumPy fold must run.
    ``True`` means ``x`` holds its final bits: min-plus / max-plus guard
    ``inf + (-inf)`` in C.

    ``corner`` (``ge`` only) is Σ_G's ``(ri, cj)``: step ``k`` updates
    rows ``i >= k + ri`` and columns ``j >= k + cj`` of every tile, so
    ``(-K, -K)``, the default, is the whole tile at every step.

    ``x``, ``u``, ``v`` and ``w`` stay referenced by this frame for the
    whole call, so every pointer handed to C is live; the C allocates
    its own scratch.
    """
    if entry not in _DTYPES or (w is None) == (entry == "ge"):
        return False
    lib = _library()
    if lib is None:
        return False
    args = _layout(_DTYPES[entry], x, u, v, w)
    if args is None:
        return False
    if entry == "ge":
        args += corner or (-u.shape[-1], -u.shape[-1])
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
        fn.argtypes = [p, p, p] + [n] * 12 + ([p, n, n, n, n] if entry == "ge" else [])
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
