"""The compiled tile folds — one C call per tile, or per task's batch —
and the shuffle map side, one C call per map task.

The paper runs its tile kernels as native code inside each executor,
handed a partition's blocks.  This module holds that code — one C
source, three entry points, written against the CPython API — and builds
it on first use with the host's C compiler.  Four folds share it:

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
    order, step by step.

Every fold also takes Σ_G's *corner* ``(ri, cj)``: step ``k`` updates
only rows ``i >= k + ri`` and columns ``j >= k + cj`` (``ri = cj = -K``
is the whole tile at every step), so a masked GE tile is one call too;
``orand`` takes whole tiles only.  The two fold entry points:

``fold_one(op, x, u, v, w, corner)`` — :func:`fold`
    One 2-D tile in place: what ``GepSpec.apply_steps`` /
    ``apply_corner`` reach for the tile kernels' per-tile path (the
    recursive kernel's sub-views included).
``fold_calls(op, calls, copies, alias_x, ends, ci, cj)`` — :func:`fold_calls`
    One task's whole call list, ``(case, tile, u, v, w, gi0, gj0, gk0,
    n_global)`` as ``_call_builders`` shapes it, folded into ``copies``
    (the caller's private copy of each tile).  An operand that is
    ``alias_x`` or the call's tile itself reads the copy (cases A / B /
    C).  A call's active steps are ``gk0 .. min(gk0 + K, ends[n_global])
    - 1`` (``ends``: the end of ``GepSpec.k_active``'s prefix, computed
    once per task in Python) and its corner comes from the offsets on
    the constrained axes (``ci`` / ``cj``).  It returns, per call, the
    cell updates made — or ``None`` for a call it declined, whose copy
    it left untouched.  Operands shared by several calls (a pivot tile
    fanned out to a row of D tiles) are read through one buffer.

Both read every operand through the buffer protocol and check its
layout in C: ``float64`` (``bool`` for ``orand``) items, two axes,
aligned, non-negative strides, ``x``'s rows contiguous and not
overlapping, shapes ``u (rows, K)``, ``v (K, cols)``, ``w (K, K)`` (GE
needs ``w``).  Anything else is declined — ``fold`` returns ``False``
and the caller's NumPy fold runs.  The arithmetic runs with the GIL
released.  Each fold takes one of three loop orders, chosen in C from
the operands' address ranges:

* **Apart** — ``u``, ``v`` (and GE's pivot) span no byte of ``x``, the
  corner is the whole tile and ``v``'s rows are contiguous: kernel case
  D, the recursive kernel's sub-views of distinct tiles.  The tile is
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
* **Two-phase** — a whole-tile min-plus / max-plus call whose ``v`` is
  ``x`` itself (kernel case B, ``K = rows``) or whose ``u`` is (case C,
  ``K = cols``), by memory, not by object — ``alias_x``, the tile
  passed as itself and the recursive kernel's ``v = x`` sub-views alike
  — the other operand apart from ``x``.  In case B each column evolves
  alone: per 16- or 8-column strip, phase 1 takes the 4-row blocks in
  order, applies steps ``0 .. r0-1`` from ``h`` (row ``k`` before step
  ``k``, which earlier blocks recorded), then for each of its own rows
  ``s`` records ``h[s]`` and applies step ``s``; phase 2 applies each
  block's remaining steps from ``h``.  So every step runs on a register
  block, each cell's steps in ``k`` order, each reading its row as NumPy
  does; the last columns step k-outer.  Case C is case B on ``x``'s
  transpose, the pivot read as ``vᵀ``.  The precheck scans ``x`` and
  the pivot; since ``x`` feeds the steps too, every value formed is a
  sum of at most ``K + 1`` inputs, so the plain compare runs only with
  no NaN, at most one sign of infinity, and — when one is present —
  ``(K + 1)`` times the largest finite magnitude below ``2^1023``, so
  no finite sum can overflow into the opposite infinity; otherwise the
  same blocks run the guarded step.
* **k-outer** — the rest: case A, GE's B / C, an operand overlapping
  ``x`` without being it (the recursive kernel's quarter views), ``v``'s
  columns strided outside case C, or the corner masking some step.  Step ``k`` copies
  the ``u`` column and ``v`` row it reads (and reads GE's pivot) before
  it writes ``x`` — NumPy's order, whose step product is complete before
  ``x`` changes — so they read exactly what they read there.

The scratch (the copies, ``h``, case C's transpose) is allocated once
per entry call: once per task batch.  All three run each cell's steps
in ``k`` order through one expression, so the loop order changes no
bit.

The third entry point is no fold.  In pySpark the map side of a
shuffle (placing, combining and sizing records) runs in the JVM; here
it is C too:

``bucket(records, placed, partition, reducers, combine)`` — :func:`bucket`
    One shuffle map task's record list by reducer, what the scheduler's
    Python loop (``scheduler._bucket_records``) does, with the GIL held.
    A record's reducer is the memo ``placed``'s answer for an exact
    ``(int, int)`` key it holds, else ``partition(key)`` (``placed`` is
    ``None`` for a partitioner with no memo; the key is looked up, or
    hashed, first, as ``placed.get`` does).  With ``combine`` it runs
    the role combine (``rdd.ROLE_AGGREGATOR``): one ``{role: tile}``
    dict per key, keys and roles in the order they came.  Every record
    is sized by arithmetic before anything is called — an exact array
    is its ``nbytes``, an exact ``(ASCII str, exact array)`` role tuple
    ``8 + len(role) + nbytes``, a combiner ``8 + Σ(len(role) +
    nbytes)``: ``sizeof_block``'s answers — and a value it cannot size
    so (or, under ``combine``, one that is no such tuple) declines the
    task, as do a role seen twice for one key and a reducer that is not
    an exact ``int`` in ``[0, reducers)``.  It returns ``(buckets,
    sizes)`` — per reducer its records or ``(key, combiner)`` pairs,
    and their value bytes — or ``None`` to decline; an exception a key's
    ``__hash__`` / ``__eq__`` or ``partition`` raises comes out as it
    is.  A private list holds every record alive across those calls.

The library is built with ``$CC`` (default ``cc``) and this
interpreter's include directory (``Python.h``) into
``${XDG_CACHE_HOME:-~/.cache}/repro/``, keyed on the source, the
compiler's version, the flags, the CPU's ISA flags and the
interpreter's ABI (``SOABI``), so a library built for another CPU or
another Python is never loaded; a warm cache needs no compiler run and
no headers.  It is loaded with ``ctypes.PyDLL`` (the entry points take
and return Python objects; the folds release the GIL themselves) and published
with ``os.replace``, so processes racing a cold cache each load one
complete file.  A failed build or load — no compiler, no ``Python.h``,
an unwritable cache — is recorded and :func:`status` reports it; NumPy
and the map side's Python loop run from then on.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path

import numpy as np

__all__ = ["bucket", "fold", "fold_calls", "fold_of", "status"]

_SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#ifdef __AVX512F__
#include <immintrin.h>
#endif

typedef Py_ssize_t idx;

/* the fold codes native.py passes: its _DTYPES order */
enum { MINPLUS, MAXPLUS, GE, ORAND };

#define INLINE static inline __attribute__((always_inline))
#define NOINLINE static __attribute__((noinline))
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

/* Which of NaN, +inf and -inf the R x L elements at a + r*rs + l*s
   hold, and with mag the largest finite magnitude among them raised
   into *mag, in the same pass.  Contiguous rows are scanned as one run,
   eight lanes at a time. */
INLINE int scan_body(const double *a, idx R, idx rs, idx L, idx s, int mag_too,
                     double *mag)
{
    if (s == 1 && rs == L) {
        L *= R;
        R = 1;
    }
    const double inf = __builtin_inf();
    const vd vinf = BCAST(inf);
    const vmask sign = (vmask)BCAST(-0.0);
    vmask nan = {0}, pinf = {0}, ninf = {0};
    vd big = BCAST(0.0);
    double m = 0.0;
    int f = 0;
    for (idx r = 0; r < R; r++) {
        const double *p = a + r * rs;
        idx l = 0;
        if (s == 1)
            for (; l + 8 <= L; l += 8) {
                const vd t = load(p + l);
                nan |= (vmask)(t != t);
                pinf |= (vmask)(t == vinf);
                ninf |= (vmask)(t == -vinf);
                if (mag_too) {
                    const vd abs = (vd)((vmask)t & ~sign);
                    const vd fin = (vd)((vmask)(abs < vinf) & (vmask)abs);
                    const vmask up = (vmask)(fin > big);
                    big = (vd)((up & (vmask)fin) | (~up & (vmask)big));
                }
            }
        for (; l < L; l++) {
            const double t = p[l * s];
            f |= (t != t ? HAS_NAN : 0) | (t == inf ? HAS_PINF : 0)
                 | (t == -inf ? HAS_NINF : 0);
            if (mag_too && __builtin_fabs(t) < inf && __builtin_fabs(t) > m)
                m = __builtin_fabs(t);
        }
    }
    for (int l = 0; l < 8; l++) {
        f |= (nan[l] ? HAS_NAN : 0) | (pinf[l] ? HAS_PINF : 0)
             | (ninf[l] ? HAS_NINF : 0);
        if (mag_too && big[l] > m)
            m = big[l];
    }
    if (mag_too && m > *mag)
        *mag = m;
    return f;
}

static int scan(const double *a, idx R, idx rs, idx L, idx s)
{
    return scan_body(a, R, rs, L, s, 0, NULL);
}

static int scan_mag(const double *a, idx R, idx rs, idx L, idx s, double *mag)
{
    return scan_body(a, R, rs, L, s, 1, mag);
}

/* Whether the n elements spanned from a and the m spanned from b share
   no byte. */
static int apart(const double *a, idx n, const double *b, idx m)
{
    const uintptr_t a0 = (uintptr_t)a, b0 = (uintptr_t)b;
    return a0 + sizeof(double) * (size_t)n <= b0
           || b0 + sizeof(double) * (size_t)m <= a0;
}

/* One call of a fold: x (rows x cols, row stride xr, contiguous
   columns) takes K steps from u[i][k] at u + i*ur + k*uk, v[k][j] at
   v + k*vk + j*vc and GE's pivot w[k][k] at w + k*wd; step k updates
   the corner of rows i >= k + ri and columns j >= k + cj.  Strides are
   in items. */
typedef struct {
    int op;
    char *x;
    const char *u, *v, *w;
    idx rows, cols, K, xr, ur, uk, vk, vc, wd, ri, cj;
} job;

/* The fold of whole-tile operands that share no memory with x (kernel
   case D), v's rows contiguous: register-blocked over all K steps.
   min-plus / max-plus first scan the operands: with no NaN anywhere and
   no +inf in u meeting a -inf in v (or the reverse) no step can see a
   NaN, and the plain compare gives the guarded step's bits. */
INLINE void fold_apart(int op, double *x, const double *u, const double *v,
                       const double *w, const job *j)
{
    const idx rows = j->rows, cols = j->cols, K = j->K;
    if (op == GE) {
        tile(GE, 1, x, j->xr, u, j->ur, j->uk, v, j->vk, w, j->wd, rows, cols, K);
        return;
    }
    const int fx = scan(x, rows, j->xr, cols, 1);
    const int fu = scan(u, rows, j->ur, K, j->uk);
    const int fv = scan(v, K, j->vk, cols, 1);
    const int keep = ((fx | fu | fv) & HAS_NAN)
                     || ((fu & HAS_PINF) && (fv & HAS_NINF))
                     || ((fu & HAS_NINF) && (fv & HAS_PINF));
    if (keep)
        tile(op, 1, x, j->xr, u, j->ur, j->uk, v, j->vk, NULL, 0, rows, cols, K);
    else
        tile(op, 0, x, j->xr, u, j->ur, j->uk, v, j->vk, NULL, 0, rows, cols, K);
}

/* Case B's phase 1 for the R-row block of a column strip at row r0:
   steps 0 .. r0-1 from h (earlier blocks recorded those rows), then for
   each of the block's own rows s < K, h[s] = row s as it stands (before
   step s) and step s over the block.  h's rows are 8*W items apart. */
INLINE void record(int op, int keep, int R, int W, double *x, idx xr,
                   const double *u, idx ur, idx uk, double *h, idx r0, idx K)
{
    const idx hk = 8 * W;
    vd acc[4][2], b[2];
#pragma GCC unroll 4
    for (int r = 0; r < R; r++)
#pragma GCC unroll 2
        for (int c = 0; c < W; c++)
            acc[r][c] = load(x + r * xr + 8 * c);
    const vd zero = BCAST(0.0);
    for (idx k = 0; k < r0 && k < K; k++) {
#pragma GCC unroll 2
        for (int c = 0; c < W; c++)
            b[c] = load(h + k * hk + 8 * c);
#pragma GCC unroll 4
        for (int r = 0; r < R; r++) {
            const vd a = BCAST(u[r * ur + k * uk]);
#pragma GCC unroll 2
            for (int c = 0; c < W; c++)
                acc[r][c] = stepv(op, keep, acc[r][c], a, b[c], zero);
        }
    }
#pragma GCC unroll 4
    for (int s = 0; s < R; s++) {
        const idx k = r0 + s;
        if (k >= K)
            break;
#pragma GCC unroll 2
        for (int c = 0; c < W; c++) {
            b[c] = acc[s][c];
            store(h + k * hk + 8 * c, b[c]);
        }
#pragma GCC unroll 4
        for (int r = 0; r < R; r++) {
            const vd a = BCAST(u[r * ur + k * uk]);
#pragma GCC unroll 2
            for (int c = 0; c < W; c++)
                acc[r][c] = stepv(op, keep, acc[r][c], a, b[c], zero);
        }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; r++)
#pragma GCC unroll 2
        for (int c = 0; c < W; c++)
            store(x + r * xr + 8 * c, acc[r][c]);
}

/* Case B over one column strip of W vectors: phase 1 takes the blocks
   in row order, so h holds every row's value before its own step;
   phase 2 takes each block's remaining steps r0+R .. K-1 from h. */
INLINE void panel_strip(int op, int keep, int W, double *x, idx xr, const double *u,
                        idx ur, idx uk, double *h, idx rows, idx K)
{
    const idx hk = 8 * W;
    idx i = 0;
    for (; i + 4 <= rows; i += 4)
        record(op, keep, 4, W, x + i * xr, xr, u + i * ur, ur, uk, h, i, K);
    for (; i < rows; i++)
        record(op, keep, 1, W, x + i * xr, xr, u + i * ur, ur, uk, h, i, K);
    for (i = 0; i + 4 <= rows; i += 4)
        if (i + 4 < K)
            block(op, keep, 4, W, x + i * xr, xr, u + i * ur + (i + 4) * uk, ur, uk,
                  h + (i + 4) * hk, hk, NULL, 0, K - i - 4);
    for (; i < rows; i++)
        if (i + 1 < K)
            block(op, keep, 1, W, x + i * xr, xr, u + i * ur + (i + 1) * uk, ur, uk,
                  h + (i + 1) * hk, hk, NULL, 0, K - i - 1);
}

/* Kernel case B, v being x's first K rows (K <= rows): x[i][j] ⊕= u[i][k]
   + x[k][j], row k read before step k.  Each column evolves alone, so
   16- and 8-column strips run the two phases of panel_strip through h
   (K x 16 items), and the last columns step k-outer, cell by cell. */
INLINE void panel_b(int op, int keep, double *x, idx xr, const double *u, idx ur,
                    idx uk, double *h, idx rows, idx cols, idx K)
{
    idx j = 0;
    for (; j + 16 <= cols; j += 16)
        panel_strip(op, keep, 2, x + j, xr, u, ur, uk, h, rows, K);
    if (j + 8 <= cols) {
        panel_strip(op, keep, 1, x + j, xr, u, ur, uk, h, rows, K);
        j += 8;
    }
    for (idx k = 0; j < cols && k < K; k++) {
        for (idx c = j; c < cols; c++)
            h[c - j] = x[k * xr + c];
        for (idx i = 0; i < rows; i++)
            for (idx c = j; c < cols; c++)
                x[i * xr + c] = step1(op, keep, x[i * xr + c], u[i * ur + k * uk],
                                      h[c - j], 0.0);
    }
}

enum { PANEL_B = 1, PANEL_C };

/* Whether the two-phase fold covers j: a whole-tile min-plus / max-plus
   call whose v is x's first K rows (PANEL_B) or whose u is x's first K
   columns (PANEL_C), the other operand sharing no byte with x; else 0.
   Inline: called out of line from fold_calls' loop over a batch's
   jobs, it cost GE's 8 x 8 batches ~25 %, which never take it. */
INLINE int panel(const job *j)
{
    if ((j->op != MINPLUS && j->op != MAXPLUS) || j->K - 1 + j->ri > 0
        || j->K - 1 + j->cj > 0)
        return 0;
    const idx xn = (j->rows - 1) * j->xr + j->cols;
    if (j->v == j->x && j->vk == j->xr && j->vc == 1 && j->K <= j->rows
        && apart((const double *)j->x, xn, (const double *)j->u,
                 (j->rows - 1) * j->ur + (j->K - 1) * j->uk + 1))
        return PANEL_B;
    if (j->u == j->x && j->ur == j->xr && j->uk == 1 && j->K <= j->cols
        && apart((const double *)j->x, xn, (const double *)j->v,
                 (j->K - 1) * j->vk + (j->cols - 1) * j->vc + 1))
        return PANEL_C;
    return 0;
}

/* The scratch items a job needs: the k-outer loop's u column and v row,
   or the two-phase fold's h (and case C's transposed x). */
static idx scratch_items(const job *j)
{
    const int p = panel(j);
    const idx need = p ? 16 * j->K + (p == PANEL_C ? j->rows * j->cols : 0) : 0;
    return need > j->rows + j->cols ? need : j->rows + j->cols;
}

/* panel_b specialised for each op and each form of the step. */
NOINLINE void panel_run(int op, int keep, double *x, idx xr, const double *u, idx ur,
                        idx uk, double *h, idx rows, idx cols, idx K)
{
    if (op == MINPLUS && keep)
        panel_b(MINPLUS, 1, x, xr, u, ur, uk, h, rows, cols, K);
    else if (op == MINPLUS)
        panel_b(MINPLUS, 0, x, xr, u, ur, uk, h, rows, cols, K);
    else if (keep)
        panel_b(MAXPLUS, 1, x, xr, u, ur, uk, h, rows, cols, K);
    else
        panel_b(MAXPLUS, 0, x, xr, u, ur, uk, h, rows, cols, K);
}

/* Cases B and C, two-phase (see panel_b).  Case C is case B on x's
   transpose, its pivot read as v's transpose: x[i][j] ⊕= x[i][k] +
   v[k][j] is xt[j][i] ⊕= v[k][j] + xt[k][i], and a sum's operand order
   changes no bit the step keeps.  The precheck: x also feeds the steps,
   so each value ever formed is a sum of at most K + 1 inputs; with no
   NaN and at most one sign of infinity present, an opposite infinity
   (and so a NaN step) can only come from finite sums overflowing, which
   (K + 1) * the largest finite magnitude < 2^1023 rules out.  Then the
   plain compare gives the guarded step's bits.  Out of line: inlined
   into fold_f64 it cost the apart fold's blocks ~15 %. */
NOINLINE void fold_panel(int op, int p, const job *j, double *scratch)
{
    double *x = (double *)j->x, *h = scratch;
    const double *u = (const double *)j->u, *v = (const double *)j->v;
    const idx rows = j->rows, cols = j->cols, K = j->K;
    double mag = 0.0;
    const int f = scan_mag(x, rows, j->xr, cols, 1, &mag)
                  | (p == PANEL_B ? scan_mag(u, rows, j->ur, K, j->uk, &mag)
                                  : scan_mag(v, K, j->vk, cols, j->vc, &mag));
    const int keep = (f & HAS_NAN) || ((f & HAS_PINF) && (f & HAS_NINF))
                     || ((f & (HAS_PINF | HAS_NINF)) && !((double)(K + 1) * mag < 0x1p1023));
    if (p == PANEL_B) {
        panel_run(op, keep, x, j->xr, u, j->ur, j->uk, h, rows, cols, K);
        return;
    }
    double *xt = scratch + 16 * K;
    for (idx i = 0; i < rows; i++)
        for (idx c = 0; c < cols; c++)
            xt[c * rows + i] = x[i * j->xr + c];
    panel_run(op, keep, xt, rows, v, j->vc, j->vk, h, cols, rows, K);
    for (idx i = 0; i < rows; i++)
        for (idx c = 0; c < cols; c++)
            x[i * j->xr + c] = xt[c * rows + i];
}

/* Whole-tile operands apart from x take fold_apart, cases B and C
   fold_panel; the rest step k by k, each step's corner shrinking with
   k, through scratch of rows + cols items. */
INLINE void fold_f64(int op, const job *j, double *scratch)
{
    double *x = (double *)j->x;
    const double *u = (const double *)j->u, *v = (const double *)j->v;
    const double *w = (const double *)j->w;
    const idx rows = j->rows, cols = j->cols, K = j->K;
    const idx xn = (rows - 1) * j->xr + cols;
    if (K - 1 + j->ri <= 0 && K - 1 + j->cj <= 0 && j->vc == 1
        && apart(x, xn, u, (rows - 1) * j->ur + (K - 1) * j->uk + 1)
        && apart(x, xn, v, (K - 1) * j->vk + cols)
        && (op != GE || apart(x, xn, w, (K - 1) * j->wd + 1))) {
        fold_apart(op, x, u, v, w, j);
        return;
    }
    const int p = op == GE ? 0 : panel(j);
    if (p) {
        fold_panel(op, p, j, scratch);
        return;
    }
    double *col = scratch, *row = scratch + rows;
    for (idx k = 0; k < K; k++) {
        const idx i0 = k + j->ri > 0 ? k + j->ri : 0;
        const idx j0 = k + j->cj > 0 ? k + j->cj : 0;
        if (i0 >= rows || j0 >= cols)
            break; /* the corner only shrinks from here */
        for (idx i = i0; i < rows; i++)
            col[i] = u[i * j->ur + k * j->uk];
        for (idx c = j0; c < cols; c++)
            row[c] = v[k * j->vk + c * j->vc];
        const double p = op == GE ? w[k * j->wd] : 0.0;
        for (idx i = i0; i < rows; i++) {
            double *restrict xi = x + i * j->xr;
            const double a = col[i];
            for (idx c = j0; c < cols; c++)
                xi[c] = step1(op, 1, xi[c], a, row[c], p);
        }
    }
}

/* x |= u & v, k-outer, whole tile; NumPy's first or-step writes every
   cell as 0 / 1, and so does this. */
static void fold_orand(const job *j, unsigned char *scratch)
{
    unsigned char *x = (unsigned char *)j->x;
    const unsigned char *u = (const unsigned char *)j->u;
    const unsigned char *v = (const unsigned char *)j->v;
    const idx rows = j->rows, cols = j->cols;
    unsigned char *col = scratch, *row = scratch + rows;
    for (idx i = 0; j->K > 0 && i < rows; i++)
        for (idx c = 0; c < cols; c++)
            x[i * j->xr + c] = x[i * j->xr + c] != 0;
    for (idx k = 0; k < j->K; k++) {
        for (idx i = 0; i < rows; i++)
            col[i] = u[i * j->ur + k * j->uk] != 0;
        for (idx c = 0; c < cols; c++)
            row[c] = v[k * j->vk + c * j->vc] != 0;
        for (idx i = 0; i < rows; i++) {
            unsigned char *restrict xi = x + i * j->xr;
            if (col[i])
                for (idx c = 0; c < cols; c++)
                    xi[c] |= row[c];
        }
    }
}

/* One job; each float fold specialised for its op. */
static void run(const job *j, double *scratch)
{
    if (j->rows == 0 || j->cols == 0 || j->K == 0)
        return;
    switch (j->op) {
    case MINPLUS:
        fold_f64(MINPLUS, j, scratch);
        break;
    case MAXPLUS:
        fold_f64(MAXPLUS, j, scratch);
        break;
    case GE:
        fold_f64(GE, j, scratch);
        break;
    default:
        fold_orand(j, (unsigned char *)scratch);
    }
}

/* Ask obj for a buffer of op's items (writable for x) and check what C
   relies on: two axes, the item type, an aligned start and
   non-negative strides that are whole items.  1 with the buffer held,
   or 0 with nothing held and no error set. */
static int operand(PyObject *obj, int op, int writable, Py_buffer *b)
{
    if (PyObject_GetBuffer(obj, b, writable ? PyBUF_RECORDS : PyBUF_RECORDS_RO)) {
        PyErr_Clear();
        return 0;
    }
    const idx size = op == ORAND ? 1 : (idx)sizeof(double);
    int ok = b->ndim == 2 && b->itemsize == size && b->format != NULL
             && strcmp(b->format, op == ORAND ? "?" : "d") == 0
             && (uintptr_t)b->buf % (uintptr_t)size == 0;
    for (int d = 0; ok && d < 2; d++)
        ok = b->strides[d] >= 0 && b->strides[d] % size == 0;
    if (!ok)
        PyBuffer_Release(b);
    return ok;
}

/* Fill j from the buffers of x, u, v and w (NULL: none): 1 when the
   shapes agree and x's rows are contiguous and apart, else 0. */
static int shape(int op, const Py_buffer *x, const Py_buffer *u,
                 const Py_buffer *v, const Py_buffer *w, job *j)
{
    const idx size = x->itemsize, rows = x->shape[0], cols = x->shape[1];
    const idx K = u->shape[1];
    if (u->shape[0] != rows || v->shape[0] != K || v->shape[1] != cols
        || (w != NULL && (w->shape[0] != K || w->shape[1] != K))
        || (op == GE && w == NULL) || x->strides[1] != size
        || (rows > 1 && x->strides[0] < cols * size))
        return 0;
    *j = (job){
        .op = op, .x = x->buf, .u = u->buf, .v = v->buf,
        .w = w != NULL ? w->buf : NULL, .rows = rows, .cols = cols, .K = K,
        .xr = x->strides[0] / size, .ur = u->strides[0] / size,
        .uk = u->strides[1] / size, .vk = v->strides[0] / size,
        .vc = v->strides[1] / size,
        .wd = w != NULL ? (w->strides[0] + w->strides[1]) / size : 0,
        .ri = -K, .cj = -K,
    };
    return 1;
}

/* Run jobs with the GIL released, through one scratch of `items`
   doubles; -1 (MemoryError set) when it cannot be had. */
static int run_all(const job *jobs, idx n, idx items)
{
    double *scratch = malloc(sizeof(double) * (size_t)(items + 1));
    if (scratch == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    Py_BEGIN_ALLOW_THREADS
    for (idx i = 0; i < n; i++)
        run(&jobs[i], scratch);
    Py_END_ALLOW_THREADS
    free(scratch);
    return 0;
}

/* One tile in place.  corner is None (the whole tile) or (ri, cj); an
   operand that is x itself reads x's buffer.  True when folded, False
   when declined with x untouched. */
PyObject *fold_one(int op, PyObject *x, PyObject *u, PyObject *v,
                   PyObject *w, PyObject *corner)
{
    idx ri = 0, cj = 0;
    if (corner != Py_None && !PyArg_ParseTuple(corner, "nn", &ri, &cj))
        return NULL;
    Py_buffer b[4];
    PyObject *objs[4] = {x, u, v, w};
    const Py_buffer *use[4] = {NULL, NULL, NULL, NULL};
    int held = 0, ok = 1;
    for (int i = 0; ok && i < 4; i++) {
        if (objs[i] == Py_None && i == 3)
            break;
        if (i > 0 && objs[i] == x) {
            use[i] = &b[0];
        } else if ((ok = operand(objs[i], op, i == 0, &b[held]))) {
            use[i] = &b[held++];
        }
    }
    job j;
    int done = ok && shape(op, use[0], use[1], use[2], use[3], &j);
    if (done && corner != Py_None) {
        j.ri = ri;
        j.cj = cj;
        done = op != ORAND || (j.K - 1 + ri <= 0 && j.K - 1 + cj <= 0);
    }
    int err = done ? run_all(&j, 1, scratch_items(&j)) : 0;
    for (int i = 0; i < held; i++)
        PyBuffer_Release(&b[i]);
    if (err)
        return NULL;
    return PyBool_FromLong(done);
}

/* The operands of one batch, each distinct object's buffer asked for
   once: an open-addressed table from object to slot. */
typedef struct {
    PyObject **keys;
    int *slots; /* index into views, -1 for an object declined */
    idx cap;
    Py_buffer *views;
    idx held;
} operands;

static const Py_buffer *lookup(operands *t, PyObject *obj, int op)
{
    idx h = (idx)(((uintptr_t)obj >> 4) & (uintptr_t)(t->cap - 1));
    while (t->keys[h] != NULL && t->keys[h] != obj)
        h = (h + 1) & (t->cap - 1);
    if (t->keys[h] == NULL) {
        t->keys[h] = obj;
        t->slots[h] = operand(obj, op, 0, &t->views[t->held]) ? (int)t->held++ : -1;
    }
    return t->slots[h] < 0 ? NULL : &t->views[t->slots[h]];
}

/* Index n of a call: an int (via __index__) in *out, or 0 with no
   error set. */
static int number(PyObject *obj, idx *out)
{
    *out = PyNumber_AsSsize_t(obj, NULL);
    if (*out == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        return 0;
    }
    return 1;
}

/* A task's call list into copies; see the module docstring.  Returns a
   list of the cell updates per call (updates[c], -1 while declined),
   None where declined. */
PyObject *fold_calls(int op, PyObject *calls, PyObject *copies,
                     PyObject *alias_x, PyObject *ends, int con_i, int con_j)
{
    if (!PyList_Check(calls) || !PyList_Check(copies) || !PyDict_Check(ends)
        || PyList_GET_SIZE(calls) != PyList_GET_SIZE(copies)) {
        PyErr_SetString(PyExc_TypeError,
                        "fold_calls takes two lists of one length and a dict");
        return NULL;
    }
    const idx n = PyList_GET_SIZE(calls);
    idx cap = 8;
    while (cap < 6 * n)
        cap *= 2;
    operands t = {NULL, NULL, cap, NULL, 0};
    job *jobs = malloc(sizeof(job) * (size_t)(n + 1));
    Py_buffer *xs = malloc(sizeof(Py_buffer) * (size_t)(n + 1));
    idx *updates = malloc(sizeof(idx) * (size_t)(n + 1));
    t.keys = calloc((size_t)cap, sizeof(PyObject *));
    t.slots = malloc(sizeof(int) * (size_t)cap);
    t.views = malloc(sizeof(Py_buffer) * (size_t)(3 * n + 1));
    PyObject *out = NULL;
    idx xs_held = 0, items = 0, failed = 0;
    if (!jobs || !xs || !updates || !t.keys || !t.slots || !t.views) {
        PyErr_NoMemory();
        goto done;
    }
    for (idx c = 0; c < n; c++) {
        PyObject *call = PyList_GET_ITEM(calls, c);
        updates[c] = -1;
        if (!PyTuple_Check(call) || PyTuple_GET_SIZE(call) != 9) {
            PyErr_Format(PyExc_TypeError, "call %zd is not a 9-tuple", c);
            failed = 1;
            goto release;
        }
        PyObject *tile = PyTuple_GET_ITEM(call, 1);
        Py_buffer *x = &xs[xs_held];
        if (!operand(PyList_GET_ITEM(copies, c), op, 1, x))
            continue;
        xs_held++;
        const Py_buffer *use[3];
        int ok = 1;
        for (int i = 0; ok && i < 3; i++) {
            PyObject *obj = PyTuple_GET_ITEM(call, 2 + i);
            if (obj == alias_x || obj == tile)
                use[i] = x;
            else if (i == 2 && obj == Py_None)
                use[i] = NULL;
            else
                ok = (use[i] = lookup(&t, obj, op)) != NULL;
        }
        idx gi0, gj0, gk0, hi;
        PyObject *end;
        job *j = &jobs[c];
        if (!ok || !shape(op, x, use[0], use[1], use[2], j)
            || !number(PyTuple_GET_ITEM(call, 5), &gi0)
            || !number(PyTuple_GET_ITEM(call, 6), &gj0)
            || !number(PyTuple_GET_ITEM(call, 7), &gk0)
            || (end = PyDict_GetItemWithError(ends, PyTuple_GET_ITEM(call, 8))) == NULL
            || !number(end, &hi)) {
            if (PyErr_Occurred()) {
                failed = 1;
                goto release;
            }
            continue;
        }
        /* the active steps: a prefix of the range, cut at hi */
        const idx steps = gk0 < 0 || gk0 >= hi ? 0 : (hi - gk0 < j->K ? hi - gk0 : j->K);
        j->K = steps;
        j->ri = con_i ? gk0 - gi0 + 1 : -steps;
        j->cj = con_j ? gk0 - gj0 + 1 : -steps;
        if (op == ORAND && (steps - 1 + j->ri > 0 || steps - 1 + j->cj > 0))
            continue;
        idx cells = 0;
        for (idx k = 0; k < steps; k++) {
            const idx i0 = k + j->ri > 0 ? k + j->ri : 0;
            const idx j0 = k + j->cj > 0 ? k + j->cj : 0;
            if (i0 < j->rows && j0 < j->cols)
                cells += (j->rows - i0) * (j->cols - j0);
        }
        updates[c] = cells;
        if (scratch_items(j) > items)
            items = scratch_items(j);
    }
    {
        /* the folded jobs, packed, then run in one GIL release */
        idx m = 0;
        for (idx c = 0; c < n; c++)
            if (updates[c] >= 0)
                jobs[m++] = jobs[c];
        if (run_all(jobs, m, items)) {
            failed = 1;
            goto release;
        }
    }
    out = PyList_New(n);
    for (idx c = 0; out != NULL && c < n; c++) {
        PyObject *item = updates[c] >= 0 ? PyLong_FromSsize_t(updates[c]) : Py_NewRef(Py_None);
        if (item == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, c, item);
    }
release:
    for (idx i = 0; i < xs_held; i++)
        PyBuffer_Release(&xs[i]);
    for (idx i = 0; i < t.held; i++)
        PyBuffer_Release(&t.views[i]);
    if (failed)
        Py_CLEAR(out);
done:
    free(jobs);
    free(xs);
    free(updates);
    free(t.keys);
    free(t.slots);
    free(t.views);
    return out;
}

/* ---- the map side of a shuffle: bucket ---- */

static PyObject *ndarray_type, *nbytes_name;

/* The bytes sizeof_block gives a value, by arithmetic: an exact array's
   nbytes, or 8 + len(role) + nbytes for an exact (ASCII str, exact
   array) pair — the only shape a role combine takes.  -1 declines,
   -2 is an error raised. */
static idx value_bytes(PyObject *v, int combine)
{
    idx head = 0;
    if (PyTuple_CheckExact(v) && PyTuple_GET_SIZE(v) == 2) {
        PyObject *role = PyTuple_GET_ITEM(v, 0);
        if (!PyUnicode_CheckExact(role))
            return -1;
#if PY_VERSION_HEX < 0x030C0000
        if (PyUnicode_READY(role))
            return -2;
#endif
        if (!PyUnicode_IS_ASCII(role))
            return -1;
        head = 8 + PyUnicode_GET_LENGTH(role);
        v = PyTuple_GET_ITEM(v, 1);
    } else if (combine) {
        return -1;
    }
    if (Py_TYPE(v) != (PyTypeObject *)ndarray_type)
        return -1;
    PyObject *nb = PyObject_GetAttr(v, nbytes_name);
    if (nb == NULL)
        return -2;
    const idx n = PyLong_AsSsize_t(nb);
    Py_DECREF(nb);
    return n < 0 ? (PyErr_Occurred() ? -2 : -1) : head + n;
}

/* A key's reducer in *b: the memo's answer for an exact (int, int) key
   it holds, else partition(key).  Looking a key up in the memo (or
   hashing it, without one) first is what the Python loop's
   placed.get(key) does, so a key whose __hash__ raises raises here
   too.  1 placed, 0 declined (an answer that is not an int in
   [0, reducers)), -1 an error raised. */
static int place(PyObject *key, PyObject *placed, PyObject *partition,
                 idx reducers, idx *b)
{
    const int grid = PyTuple_CheckExact(key) && PyTuple_GET_SIZE(key) == 2
                     && PyLong_CheckExact(PyTuple_GET_ITEM(key, 0))
                     && PyLong_CheckExact(PyTuple_GET_ITEM(key, 1));
    PyObject *hit = NULL, *r;
    if (placed != Py_None) {
        hit = PyDict_GetItemWithError(placed, key);
        if (hit == NULL && PyErr_Occurred())
            return -1;
    } else if (!grid && PyObject_Hash(key) == -1) {
        return -1;
    }
    if (hit != NULL && grid)
        r = Py_NewRef(hit);
    else if ((r = PyObject_CallOneArg(partition, key)) == NULL)
        return -1;
    int ok = PyLong_CheckExact(r);
    if (ok) {
        *b = PyLong_AsSsize_t(r);
        if (*b == -1 && PyErr_Occurred())
            PyErr_Clear();
        ok = *b >= 0 && *b < reducers;
    }
    Py_DECREF(r);
    return ok;
}

/* One map task's records into per-reducer buckets; see the module
   docstring.  Returns (buckets, value bytes), or None to decline. */
PyObject *bucket(PyObject *records, PyObject *placed, PyObject *partition,
                 idx reducers, int combine)
{
    if (!PyList_Check(records) || (placed != Py_None && !PyDict_Check(placed))
        || reducers < 1) {
        PyErr_SetString(PyExc_TypeError,
                        "bucket takes a list, a dict or None, and reducers >= 1");
        return NULL;
    }
    if (ndarray_type == NULL) {
        /* set last, so a thread that sees it set sees nbytes_name too */
        PyObject *numpy = PyImport_ImportModule("numpy");
        PyObject *type = numpy != NULL ? PyObject_GetAttrString(numpy, "ndarray") : NULL;
        Py_XDECREF(numpy);
        if (type == NULL)
            return NULL;
        if (nbytes_name == NULL
            && (nbytes_name = PyUnicode_InternFromString("nbytes")) == NULL) {
            Py_DECREF(type);
            return NULL;
        }
        if (ndarray_type == NULL)
            ndarray_type = type;
        else
            Py_DECREF(type);
    }
    /* a private list holds every record (so every key and value) alive
       across the calls back into Python, whatever they do */
    PyObject *own = PyList_GetSlice(records, 0, PY_SSIZE_T_MAX);
    if (own == NULL)
        return NULL;
    const idx n = PyList_GET_SIZE(own);
    idx *bytes = malloc(sizeof(idx) * (size_t)(n + 1));
    idx *total = calloc((size_t)reducers, sizeof(idx));
    PyObject *groups = NULL, *sizes = NULL, *out = NULL;
    int status = -1; /* 1 bucketed, 0 declined, -1 an error raised */
    if (bytes == NULL || total == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* every record sized before any call back into Python, so what
       cannot be sized declines with nothing called; a fan-out's records
       follow each other and share their value */
    PyObject *last = NULL;
    idx last_bytes = 0;
    for (idx i = 0; i < n; i++) {
        PyObject *rec = PyList_GET_ITEM(own, i);
        if (!PyTuple_CheckExact(rec) || PyTuple_GET_SIZE(rec) != 2) {
            status = 0;
            goto done;
        }
        PyObject *v = PyTuple_GET_ITEM(rec, 1);
        if (v != last) {
            last = v;
            last_bytes = value_bytes(v, combine);
        }
        if (last_bytes < 0) {
            status = last_bytes == -1 ? 0 : -1;
            goto done;
        }
        bytes[i] = last_bytes;
    }
    if ((groups = PyList_New(reducers)) == NULL)
        goto done;
    for (idx b = 0; b < reducers; b++) {
        PyObject *group = combine ? PyDict_New() : PyList_New(0);
        if (group == NULL)
            goto done;
        PyList_SET_ITEM(groups, b, group);
    }
    for (idx i = 0; i < n; i++) {
        PyObject *rec = PyList_GET_ITEM(own, i);
        PyObject *key = PyTuple_GET_ITEM(rec, 0);
        idx b;
        if ((status = place(key, placed, partition, reducers, &b)) != 1)
            goto done;
        status = -1;
        PyObject *group = PyList_GET_ITEM(groups, b);
        if (!combine) {
            if (PyList_Append(group, rec))
                goto done;
            total[b] += bytes[i];
            continue;
        }
        /* the role combine: {role: tile} per key, 8 + Σ(len(role) +
           nbytes) bytes; a role seen twice for one key declines */
        PyObject *v = PyTuple_GET_ITEM(rec, 1);
        PyObject *role = PyTuple_GET_ITEM(v, 0), *tile = PyTuple_GET_ITEM(v, 1);
        PyObject *acc = PyDict_GetItemWithError(group, key);
        if (acc == NULL) {
            if (PyErr_Occurred() || (acc = PyDict_New()) == NULL)
                goto done;
            const int err = PyDict_SetItem(acc, role, tile) || PyDict_SetItem(group, key, acc);
            Py_DECREF(acc);
            if (err)
                goto done;
            total[b] += bytes[i];
            continue;
        }
        const int seen = PyDict_Contains(acc, role);
        if (seen) {
            status = seen < 0 ? -1 : 0;
            goto done;
        }
        if (PyDict_SetItem(acc, role, tile))
            goto done;
        total[b] += bytes[i] - 8;
    }
    if ((sizes = PyList_New(reducers)) == NULL)
        goto done;
    for (idx b = 0; b < reducers; b++) {
        PyObject *size = PyLong_FromSsize_t(total[b]);
        if (size == NULL)
            goto done;
        PyList_SET_ITEM(sizes, b, size);
        if (combine) {
            PyObject *items = PyDict_Items(PyList_GET_ITEM(groups, b));
            if (items == NULL || PyList_SetItem(groups, b, items))
                goto done;
        }
    }
    out = PyTuple_Pack(2, groups, sizes);
    status = 1;
done:
    if (status == 0)
        out = Py_NewRef(Py_None);
    Py_DECREF(own);
    Py_XDECREF(groups);
    Py_XDECREF(sizes);
    free(bytes);
    free(total);
    return out;
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

#: the table dtype each fold folds; the order is the C's fold codes
_DTYPES = {
    "minplus": np.dtype(np.float64),
    "maxplus": np.dtype(np.float64),
    "ge": np.dtype(np.float64),
    "orand": np.dtype(np.bool_),
}
_CODES = {entry: code for code, entry in enumerate(_DTYPES)}

_lock = threading.Lock()
_lib: ctypes.PyDLL | None = None
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
    """Fold ``u``'s columns and ``v``'s rows into the 2-D tile ``x`` in
    place with the compiled ``entry``; ``w`` is GE's pivot tile.
    Returns ``False``, with ``x`` untouched, when there is no such entry
    (``None``: a semiring only NumPy folds) or the layout or the library
    rules the C out, and the caller's NumPy fold must run.  ``True``
    means ``x`` holds its final bits: min-plus / max-plus guard ``inf +
    (-inf)`` in C.

    ``corner`` is Σ_G's ``(ri, cj)``: step ``k`` updates rows ``i >= k
    + ri`` and columns ``j >= k + cj``; ``None``, the default, is the
    whole tile at every step (``orand`` takes no other).
    """
    if entry not in _DTYPES or (w is None) == (entry == "ge"):
        return False
    lib = _library()
    if lib is None:
        return False
    return lib.fold_one(_CODES[entry], x, u, v, w, corner)


def fold_calls(entry: str | None, calls: list, copies: list, alias_x, ends: dict,
               constrains: tuple[bool, bool]) -> list | None:
    """Fold a task's ``calls`` into ``copies`` with the compiled
    ``entry``, one C call (see the module docstring).  ``ends`` maps
    each call's ``n_global`` to the end of its active steps and
    ``constrains`` is the spec's ``(constrains_i, constrains_j)``.
    Returns a list aligned with ``calls`` — the cell updates of each
    call folded, ``None`` for each one declined (its copy untouched) —
    or ``None`` when there is no such entry or no library."""
    if entry not in _DTYPES:
        return None
    lib = _library()
    if lib is None:
        return None
    return lib.fold_calls(_CODES[entry], calls, copies, alias_x, ends, *constrains)


def bucket(records: list, placed: dict | None, partition, reducers: int,
           combine: bool) -> tuple[list, list] | None:
    """Bucket one shuffle map task's ``records`` by reducer in one C
    call (see the module docstring): ``placed`` is the partitioner's
    memo (``None`` when it has none), ``partition`` its placement
    function, ``combine`` the role combine.  Returns ``(buckets,
    sizes)`` — per reducer, its records (its ``(key, {role: tile})``
    combiners under ``combine``) and their value bytes — or ``None``
    when it declines or there is no library, and the caller's Python
    loop must run."""
    lib = _library()
    if lib is None:
        return None
    return lib.bucket(records, placed, partition, reducers, combine)


def _library() -> ctypes.PyDLL | None:
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


def _include_dir() -> Path:
    """Where this interpreter's ``Python.h`` is."""
    return Path(sysconfig.get_paths()["include"])


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


def _load() -> ctypes.PyDLL:
    """Load the library for this source, compiler, flags, CPU and
    interpreter ABI, building it into the cache first if it is not
    there."""
    cc = shlex.split(os.environ.get("CC") or "cc")
    if not cc or shutil.which(cc[0]) is None:
        raise OSError(f"no C compiler: {cc[0] if cc else '$CC'!r} not found")
    version = subprocess.run(
        [*cc, "--version"], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    abi = sysconfig.get_config_var("SOABI")
    key = hashlib.blake2b(
        repr((_SOURCE, version, _FLAGS, _cpu_flags(), abi)).encode(), digest_size=12
    ).hexdigest()
    path = _cache_dir() / f"fold-{key}.so"
    if not path.exists():
        _build(cc, path)
    lib = ctypes.PyDLL(str(path))
    obj, i = ctypes.py_object, ctypes.c_int
    lib.fold_one.argtypes = [i, obj, obj, obj, obj, obj]
    lib.fold_one.restype = obj
    lib.fold_calls.argtypes = [i, obj, obj, obj, obj, i, i]
    lib.fold_calls.restype = obj
    lib.bucket.argtypes = [obj, obj, obj, ctypes.c_ssize_t, i]
    lib.bucket.restype = obj
    return lib


def _build(cc: list[str], path: Path) -> None:
    """Compile into a private file next to ``path``, then publish it with
    one ``os.replace``: a reader sees no file or a complete one."""
    include = _include_dir()
    if not (include / "Python.h").is_file():
        raise OSError(f"no Python.h in {include}")
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        done = subprocess.run(
            [*cc, *_FLAGS, f"-I{include}", "-x", "c", "-", "-o", tmp],
            input=_SOURCE, capture_output=True, text=True, timeout=300,
        )
        if done.returncode != 0:
            tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
            raise OSError(f"{cc[0]} exited {done.returncode}: {tail[0]}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
