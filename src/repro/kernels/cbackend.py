"""cffi-compiled C backend for the hot kernels.

Each C function mirrors its numpy oracle's accumulation structure so
the equivalence contract is provable, not hoped for:

* scatter/CSR kernels and the Green-Gauss gradient pass replicate
  ``np.bincount``'s per-target sequential accumulation order and are
  **bitwise** identical;
* block (bs x bs) kernels keep the oracle's outer order (blocks in
  slot order) but sum the inner ``j`` contraction sequentially where
  ``np.einsum`` may use SIMD pairwise order, so they are **ULP-bounded**
  rather than bitwise; so are the two fused flux kernels (first-order
  Rusanov + scatter, second-order MUSCL + Rusanov + scatter), whose
  length-3 dot products are sequential;
* every edge kernel checks both endpoints of an edge against
  ``[0, n)`` before it reads or writes for that edge and reports the
  first offending edge, so a bad index never leaves a buffer;
* float32-storage trisolves widen each loaded value to float64 before
  any arithmetic, exactly like the oracle's ``astype(np.float64)``
  (the paper's Table 2: f32 storage, f64 arithmetic);
* the ILU(k) symbolic phase is integer-exact against its ``heapq``
  oracle; the numeric phase is the reference IKJ row loop, bitwise for
  scalar factors and ULP-bounded for blocks (sequential block products,
  a Gauss-Jordan pivot inverse where the oracle calls LAPACK).  Both
  check A's column indices against ``[0, n)`` and decline on a bad one.

The library is compiled once with :data:`COMPILE_ARGS` into a cache
directory, under a module name hashed from the source *and* those
flags, and imported from there afterwards; a failed build degrades to
numpy via the capability layer.  ``-ffp-contract=off`` forbids FMA
contraction, which would change rounding and break the bitwise claims;
``-fvect-cost-model=dynamic`` lets gcc vectorise the runtime-sized
bs x bs block loops, which it does without reassociating any
floating-point sum, so every bitwise claim holds under it.
"""

from __future__ import annotations

# lint: compiled (C twins of the numpy kernels; oracle map below)

import hashlib
import importlib
import os
import sys

import numpy as np

__all__ = ["load_cbackend", "CBackend"]

#: Compiled symbol -> dotted path of the numpy oracle it must match.
__oracles__ = {
    "edge_scatter2": "repro.sparse.segsum.segment_sum",
    "spmv_csr": "repro.sparse.spmv.spmv_csr",
    "spmv_csr_rows": "repro.sparse.spmv.spmv_csr",
    "spmv_bsr": "repro.sparse.bsr.BSRMatrix.matvec",
    "gather_spmv_bsr": "repro.parallel.spmd.rank_matvec",
    "lower_solve_csr": "repro.sparse.trisolve.lower_solve_csr",
    "upper_solve_csr": "repro.sparse.trisolve.upper_solve_csr",
    "lower_solve_bsr": "repro.sparse.trisolve.lower_solve_blocks",
    "upper_solve_bsr": "repro.sparse.trisolve.upper_solve_blocks",
    "ilu_symbolic": "repro.sparse.ilu.ilu_symbolic_ref",
    "ilu_numeric": "repro.sparse.ilu.ilu_bsr_ref",
    "scatter_blocks": "repro.sparse.layouts.assemble_bsr",
    "rusanov_scatter": "repro.euler.fluxes.rusanov_flux",
    "green_gauss": "repro.euler.reconstruction.green_gauss_gradients",
    "muscl_rusanov_scatter":
        "repro.euler.reconstruction.reconstruct_edge_states",
    "load_cbackend": "repro.kernels.capability.resolve_engine",
}
__fallback__ = "pure numpy via repro.kernels dispatch (returns None)"

_CDEF = """
long long edge_scatter2_f64(long long ne, long long n, long long ncomp,
    const long long *e0, const long long *e1,
    const double *wa, const double *wb, double *out_a, double *out_b);
void spmv_csr_f64(long long nrows, const long long *indptr,
    const long long *indices, const double *data, const double *x,
    double *y);
void spmv_csr_rows_f64(long long nsel, const long long *rows,
    const long long *indptr, const long long *indices,
    const double *data, const double *x, double *y);
void spmv_bsr_f64(long long nbrows, long long bs,
    const long long *indptr, const long long *indices,
    const double *data, const double *x, double *y);
void gather_spmv_bsr_f64(long long nblocks, long long bs,
    const long long *cols, const long long *seg, const double *data,
    const double *x, double *y);
void lower_solve_csr_f64(long long n, const long long *indptr,
    const long long *indices, const double *data, double *x);
void lower_solve_csr_f32(long long n, const long long *indptr,
    const long long *indices, const float *data, double *x);
void upper_solve_csr_f64(long long n, const long long *indptr,
    const long long *indices, const double *data, const double *inv_diag,
    double *x);
void upper_solve_csr_f32(long long n, const long long *indptr,
    const long long *indices, const float *data, const float *inv_diag,
    double *x);
void lower_solve_bsr_f64(long long n, long long bs,
    const long long *indptr, const long long *indices,
    const double *data, double *x);
void lower_solve_bsr_f32(long long n, long long bs,
    const long long *indptr, const long long *indices,
    const float *data, double *x);
void upper_solve_bsr_f64(long long n, long long bs,
    const long long *indptr, const long long *indices,
    const double *data, const double *inv_diag, double *x);
void upper_solve_bsr_f32(long long n, long long bs,
    const long long *indptr, const long long *indices,
    const float *data, const float *inv_diag, double *x);
long long ilu_symbolic_i64(long long n, long long fill,
    const long long *a_indptr, const long long *a_indices,
    long long l_cap, long long u_cap,
    long long *l_indptr, long long *l_indices, long long *l_levels,
    long long *u_indptr, long long *u_indices, long long *u_levels,
    long long *lev, long long *next);
long long ilu_numeric_f64(long long n, long long bs,
    const long long *l_indptr, const long long *l_indices,
    const long long *u_indptr, const long long *u_indices,
    const long long *a_indptr, const long long *a_indices,
    const double *a_data, double *l_data, double *u_data,
    double *inv_diag, long long *pos, double *w);
void scatter_blocks_f64(long long nslots, long long bsq,
    const long long *slots, const double *src, double sign,
    double *data);
long long rusanov_scatter_inc(long long ne, long long n,
    const long long *e0, const long long *e1, const double *ql,
    const double *qr, const double *s, double beta,
    double *out_a, double *out_b);
long long rusanov_scatter_comp(long long ne, long long n,
    const long long *e0, const long long *e1, const double *ql,
    const double *qr, const double *s, double gamma,
    double *out_a, double *out_b);
long long green_gauss_f64(long long ne, long long n, long long ncomp,
    const long long *e0, const long long *e1, const double *q,
    const double *s, const double *bnd, const double *vol,
    double *grad, double *acc_b);
long long muscl_rusanov_scatter_inc(long long ne, long long n,
    const long long *e0, const long long *e1, const double *q,
    const double *grad, const double *coords, const double *s,
    int limiter, double beta, double *out_a, double *out_b);
long long muscl_rusanov_scatter_comp(long long ne, long long n,
    const long long *e0, const long long *e1, const double *q,
    const double *grad, const double *coords, const double *s,
    int limiter, double gamma, double *out_a, double *out_b);
"""

_SOURCE = r"""
#include <math.h>

/* Every edge kernel checks both endpoints of an edge against [0, n)
 * before it touches anything for that edge, and returns the index of
 * the first offending edge (-1: none).  The outputs are then partial;
 * the wrapper drops them and the dispatcher declines, so the caller's
 * numpy path raises what it raises without a compiled tier. */
#define ENDPOINTS_IN_RANGE(i, j, n)                                     \
    ((unsigned long long)(i) < (unsigned long long)(n)                  \
     && (unsigned long long)(j) < (unsigned long long)(n))

/* Fused two-target edge scatter.  For each accumulator the additions
 * land in edge order m = 0..ne-1, the exact order np.bincount uses,
 * so each output array is bitwise-identical to one segment_sum. */
long long edge_scatter2_f64(long long ne, long long n, long long ncomp,
    const long long *e0, const long long *e1,
    const double *wa, const double *wb, double *out_a, double *out_b)
{
    for (long long m = 0; m < ne; ++m) {
        long long i = e0[m], j = e1[m];
        if (!ENDPOINTS_IN_RANGE(i, j, n))
            return m;
        const double *am = wa + m * ncomp;
        const double *bm = wb + m * ncomp;
        double *pa = out_a + i * ncomp;
        double *pb = out_b + j * ncomp;
        for (long long c = 0; c < ncomp; ++c) {
            pa[c] += am[c];
            pb[c] += bm[c];
        }
    }
    return -1;
}

/* Scalar CSR SpMV: per-row sequential accumulation in entry order ==
 * bincount order of the gather/segment-sum kernel (bitwise). */
void spmv_csr_f64(long long nrows, const long long *indptr,
    const long long *indices, const double *data, const double *x,
    double *y)
{
    for (long long i = 0; i < nrows; ++i) {
        double acc = 0.0;
        for (long long t = indptr[i]; t < indptr[i + 1]; ++t)
            acc += data[t] * x[indices[t]];
        y[i] = acc;
    }
}

void spmv_csr_rows_f64(long long nsel, const long long *rows,
    const long long *indptr, const long long *indices,
    const double *data, const double *x, double *y)
{
    for (long long k = 0; k < nsel; ++k) {
        long long i = rows[k];
        double acc = 0.0;
        for (long long t = indptr[i]; t < indptr[i + 1]; ++t)
            acc += data[t] * x[indices[t]];
        y[k] = acc;
    }
}

/* Block SpMV: per-block partial gemv, blocks accumulated in slot
 * order (the bincount order); the inner j-sum is sequential where
 * einsum may pair, so this is ULP-bounded against the oracle. */
void spmv_bsr_f64(long long nbrows, long long bs,
    const long long *indptr, const long long *indices,
    const double *data, const double *x, double *y)
{
    for (long long i = 0; i < nbrows; ++i) {
        double *yi = y + i * bs;
        for (long long r = 0; r < bs; ++r)
            yi[r] = 0.0;
        for (long long t = indptr[i]; t < indptr[i + 1]; ++t) {
            const double *blk = data + t * bs * bs;
            const double *xj = x + indices[t] * bs;
            for (long long r = 0; r < bs; ++r) {
                double p = 0.0;
                for (long long c = 0; c < bs; ++c)
                    p += blk[r * bs + c] * xj[c];
                yi[r] += p;
            }
        }
    }
}

/* The SPMD per-rank SpMV: pre-gathered block rows, explicit segment
 * ids.  y must be zeroed by the caller (length n_owned * bs). */
void gather_spmv_bsr_f64(long long nblocks, long long bs,
    const long long *cols, const long long *seg, const double *data,
    const double *x, double *y)
{
    for (long long k = 0; k < nblocks; ++k) {
        const double *blk = data + k * bs * bs;
        const double *xj = x + cols[k] * bs;
        double *yk = y + seg[k] * bs;
        for (long long r = 0; r < bs; ++r) {
            double p = 0.0;
            for (long long c = 0; c < bs; ++c)
                p += blk[r * bs + c] * xj[c];
            yk[r] += p;
        }
    }
}

/* Triangular solves, rows in natural order: 0..n-1 for L, n-1..0 for
 * U.  Every stored entry of a strictly lower (upper) row names an
 * earlier (later) row, so natural order is a topological order and the
 * sequential loop resolves dependencies exactly like the level-batched
 * oracle; per-row entry accumulation is in entry order (bincount order,
 * bitwise for CSR).  The _f32 variants widen every loaded factor value
 * to double before arithmetic — identical to the oracle's
 * astype(np.float64). */
#define LOWER_CSR(NAME, DTYPE)                                          \
void NAME(long long n, const long long *indptr,                         \
    const long long *indices, const DTYPE *data, double *x)             \
{                                                                       \
    for (long long i = 0; i < n; ++i) {                                 \
        double acc = 0.0;                                               \
        for (long long t = indptr[i]; t < indptr[i + 1]; ++t)           \
            acc += (double)data[t] * x[indices[t]];                     \
        x[i] -= acc;                                                    \
    }                                                                   \
}
LOWER_CSR(lower_solve_csr_f64, double)
LOWER_CSR(lower_solve_csr_f32, float)

#define UPPER_CSR(NAME, DTYPE)                                          \
void NAME(long long n, const long long *indptr,                         \
    const long long *indices, const DTYPE *data, const DTYPE *inv_diag, \
    double *x)                                                          \
{                                                                       \
    for (long long i = n - 1; i >= 0; --i) {                            \
        double acc = 0.0;                                               \
        for (long long t = indptr[i]; t < indptr[i + 1]; ++t)           \
            acc += (double)data[t] * x[indices[t]];                     \
        x[i] = (x[i] - acc) * (double)inv_diag[i];                      \
    }                                                                   \
}
UPPER_CSR(upper_solve_csr_f64, double)
UPPER_CSR(upper_solve_csr_f32, float)

#define MAX_BS 32

#define LOWER_BSR(NAME, DTYPE)                                          \
void NAME(long long n, long long bs, const long long *indptr,           \
    const long long *indices, const DTYPE *data, double *x)             \
{                                                                       \
    double acc[MAX_BS];                                                 \
    for (long long i = 0; i < n; ++i) {                                 \
        for (long long r = 0; r < bs; ++r)                              \
            acc[r] = 0.0;                                               \
        for (long long t = indptr[i]; t < indptr[i + 1]; ++t) {         \
            const DTYPE *blk = data + t * bs * bs;                      \
            const double *xj = x + indices[t] * bs;                     \
            for (long long r = 0; r < bs; ++r) {                        \
                double p = 0.0;                                         \
                for (long long c = 0; c < bs; ++c)                      \
                    p += (double)blk[r * bs + c] * xj[c];               \
                acc[r] += p;                                            \
            }                                                           \
        }                                                               \
        for (long long r = 0; r < bs; ++r)                              \
            x[i * bs + r] -= acc[r];                                    \
    }                                                                   \
}
LOWER_BSR(lower_solve_bsr_f64, double)
LOWER_BSR(lower_solve_bsr_f32, float)

#define UPPER_BSR(NAME, DTYPE)                                          \
void NAME(long long n, long long bs, const long long *indptr,           \
    const long long *indices, const DTYPE *data,                        \
    const DTYPE *inv_diag, double *x)                                   \
{                                                                       \
    double acc[MAX_BS];                                                 \
    double rhs[MAX_BS];                                                 \
    for (long long i = n - 1; i >= 0; --i) {                            \
        for (long long r = 0; r < bs; ++r)                              \
            acc[r] = 0.0;                                               \
        for (long long t = indptr[i]; t < indptr[i + 1]; ++t) {         \
            const DTYPE *blk = data + t * bs * bs;                      \
            const double *xj = x + indices[t] * bs;                     \
            for (long long r = 0; r < bs; ++r) {                        \
                double p = 0.0;                                         \
                for (long long c = 0; c < bs; ++c)                      \
                    p += (double)blk[r * bs + c] * xj[c];               \
                acc[r] += p;                                            \
            }                                                           \
        }                                                               \
        for (long long r = 0; r < bs; ++r)                              \
            rhs[r] = x[i * bs + r] - acc[r];                            \
        const DTYPE *inv = inv_diag + i * bs * bs;                      \
        for (long long r = 0; r < bs; ++r) {                            \
            double p = 0.0;                                             \
            for (long long c = 0; c < bs; ++c)                          \
                p += (double)inv[r * bs + c] * rhs[c];                  \
            x[i * bs + r] = p;                                          \
        }                                                               \
    }                                                                   \
}
UPPER_BSR(upper_solve_bsr_f64, double)
UPPER_BSR(upper_solve_bsr_f32, float)

/* ---- ILU(k): symbolic and numeric factorisation --------------------
 * Status codes shared with CBackend (the ILU_* constants there). */
enum { ILU_OK = -1, ILU_BAD_COLUMN = -2, ILU_L_FULL = -3, ILU_U_FULL = -4 };

/* Level-of-fill symbolic phase, row by row: the twin of
 * ilu_symbolic_ref's heapq loop.  The working row is a sorted linked
 * list (next[], head next[n], terminator n) with the fill level of
 * each member in lev[] (-1: absent).  Pivots are visited in ascending
 * column order, as the heap pops them, and a fill entry j > k of pivot
 * k is inserted after k, so it is visited in turn when j < i: the same
 * entries and the same levels, integer-exact.  lev arrives all -1 and
 * is restored by every row; both scratch arrays are garbage after a
 * status other than ILU_OK (a column outside [0, n), or an output
 * capacity the caller must grow). */
long long ilu_symbolic_i64(long long n, long long fill,
    const long long *a_indptr, const long long *a_indices,
    long long l_cap, long long u_cap,
    long long *l_indptr, long long *l_indices, long long *l_levels,
    long long *u_indptr, long long *u_indices, long long *u_levels,
    long long *lev, long long *next)
{
    long long nl = 0, nu = 0;
    l_indptr[0] = 0;
    u_indptr[0] = 0;
    for (long long i = 0; i < n; ++i) {
        next[n] = n;
        /* A's row, then the diagonal (inserted if structurally absent) */
        for (long long t = a_indptr[i]; t <= a_indptr[i + 1]; ++t) {
            long long c = t < a_indptr[i + 1] ? a_indices[t] : i;
            if ((unsigned long long)c >= (unsigned long long)n)
                return ILU_BAD_COLUMN;
            if (lev[c] >= 0)
                continue;
            lev[c] = 0;
            long long p = n;
            while (next[p] < c)
                p = next[p];
            next[c] = next[p];
            next[p] = c;
        }
        for (long long k = next[n]; k < i; k = next[k]) {
            long long p = k;
            for (long long s = u_indptr[k]; s < u_indptr[k + 1]; ++s) {
                long long j = u_indices[s];
                long long l = lev[k] + u_levels[s] + 1;
                if (lev[j] >= 0) {
                    if (l < lev[j])
                        lev[j] = l;
                } else if (l <= fill) {
                    lev[j] = l;
                    while (next[p] < j)
                        p = next[p];
                    next[j] = next[p];
                    next[p] = j;
                }
            }
        }
        for (long long c = next[n]; c < n; c = next[c]) {
            if (c < i) {
                if (nl == l_cap)
                    return ILU_L_FULL;
                l_indices[nl] = c;
                l_levels[nl++] = lev[c];
            } else if (c > i) {
                if (nu == u_cap)
                    return ILU_U_FULL;
                u_indices[nu] = c;
                u_levels[nu++] = lev[c];
            }
            lev[c] = -1;
        }
        l_indptr[i + 1] = nl;
        u_indptr[i + 1] = nu;
    }
    return ILU_OK;
}

/* w -= a b on bs x bs blocks.  Each entry's j-sum is sequential; the
 * loops run j outside c so the c loop is elementwise and vectorises
 * without reassociating anything.  The wrappers below hand the
 * compiler the two block sizes of the Euler Jacobians (4 and 5) as
 * constants, so those loops are fully known at compile time. */
static inline void block_submul_n(double *w, const double *a,
    const double *b, long long bs)
{
    double acc[MAX_BS];
    for (long long r = 0; r < bs; ++r) {
        for (long long c = 0; c < bs; ++c)
            acc[c] = 0.0;
        for (long long j = 0; j < bs; ++j) {
            double arj = a[r * bs + j];
            for (long long c = 0; c < bs; ++c)
                acc[c] += arj * b[j * bs + c];
        }
        for (long long c = 0; c < bs; ++c)
            w[r * bs + c] -= acc[c];
    }
}

static inline void block_submul(double *w, const double *a,
    const double *b, long long bs)
{
    if (bs == 5)
        block_submul_n(w, a, b, 5);
    else if (bs == 4)
        block_submul_n(w, a, b, 4);
    else
        block_submul_n(w, a, b, bs);
}

/* a <- a b on bs x bs blocks (the multiplier times a pivot inverse). */
static inline void block_mul_right(double *a, const double *b, long long bs)
{
    double row[MAX_BS];
    for (long long r = 0; r < bs; ++r) {
        for (long long c = 0; c < bs; ++c)
            row[c] = 0.0;
        for (long long j = 0; j < bs; ++j) {
            double arj = a[r * bs + j];
            for (long long c = 0; c < bs; ++c)
                row[c] += arj * b[j * bs + c];
        }
        for (long long c = 0; c < bs; ++c)
            a[r * bs + c] = row[c];
    }
}

/* inv <- d^-1 by Gauss-Jordan elimination with partial pivoting; d is
 * overwritten.  Returns 0 when a pivot column is exactly zero (the
 * block is singular, where np.linalg.inv raises). */
static int block_inverse(double *d, double *inv, long long bs)
{
    for (long long r = 0; r < bs; ++r)
        for (long long c = 0; c < bs; ++c)
            inv[r * bs + c] = r == c ? 1.0 : 0.0;
    for (long long c = 0; c < bs; ++c) {
        long long piv = c;
        for (long long r = c + 1; r < bs; ++r)
            if (fabs(d[r * bs + c]) > fabs(d[piv * bs + c]))
                piv = r;
        if (d[piv * bs + c] == 0.0)
            return 0;
        if (piv != c)
            for (long long j = 0; j < bs; ++j) {
                double t = d[c * bs + j];
                d[c * bs + j] = d[piv * bs + j];
                d[piv * bs + j] = t;
                t = inv[c * bs + j];
                inv[c * bs + j] = inv[piv * bs + j];
                inv[piv * bs + j] = t;
            }
        double p = d[c * bs + c];
        for (long long j = 0; j < bs; ++j) {
            d[c * bs + j] /= p;
            inv[c * bs + j] /= p;
        }
        for (long long r = 0; r < bs; ++r) {
            double f = d[r * bs + c];
            if (r == c || f == 0.0)
                continue;
            for (long long j = 0; j < bs; ++j) {
                d[r * bs + j] -= f * d[c * bs + j];
                inv[r * bs + j] -= f * inv[c * bs + j];
            }
        }
    }
    return 1;
}

/* Numeric ILU(k) on a fixed pattern, the IKJ row loop of ilu_csr_ref /
 * ilu_bsr_ref.  Row i is assembled in w, laid out [L | diagonal | U]
 * like the reference's working row, through the position map pos
 * (column -> w slot, -1 elsewhere; arrives all -1 and is restored).
 * A's values are assigned to their slots (entries outside the pattern
 * are dropped), then each lower entry k, in ascending order, becomes
 * the multiplier l = w_k / d_k (bs = 1: divided by the raw pivot,
 * bitwise the scalar reference) or w_k d_k^-1 (bs > 1), and row k's U
 * part is subtracted, l u_kj, wherever row i's pattern has column j.
 * Returns ILU_OK, ILU_BAD_COLUMN for a column of A outside [0, n)
 * (checked before it is used), or the row whose pivot is zero /
 * singular.  For bs = 1 inv_diag holds the raw pivots until the end. */
long long ilu_numeric_f64(long long n, long long bs,
    const long long *l_indptr, const long long *l_indices,
    const long long *u_indptr, const long long *u_indices,
    const long long *a_indptr, const long long *a_indices,
    const double *a_data, double *l_data, double *u_data,
    double *inv_diag, long long *pos, double *w)
{
    long long bsq = bs * bs;
    long long status = ILU_OK;
    for (long long i = 0; i < n && status == ILU_OK; ++i) {
        long long ls = l_indptr[i], nl = l_indptr[i + 1] - ls;
        long long us = u_indptr[i], nu = u_indptr[i + 1] - us;
        for (long long t = 0; t < nl; ++t)
            pos[l_indices[ls + t]] = t;
        pos[i] = nl;
        for (long long t = 0; t < nu; ++t)
            pos[u_indices[us + t]] = nl + 1 + t;
        for (long long t = 0; t < (nl + 1 + nu) * bsq; ++t)
            w[t] = 0.0;
        for (long long t = a_indptr[i]; t < a_indptr[i + 1]; ++t) {
            long long c = a_indices[t];
            if ((unsigned long long)c >= (unsigned long long)n) {
                status = ILU_BAD_COLUMN;
                break;
            }
            long long p = pos[c];
            if (p >= 0)
                for (long long e = 0; e < bsq; ++e)
                    w[p * bsq + e] = a_data[t * bsq + e];
        }
        for (long long t = 0; t < nl && status == ILU_OK; ++t) {
            long long k = l_indices[ls + t];
            double *lik = w + t * bsq;
            if (bs == 1)
                lik[0] = lik[0] / inv_diag[k];
            else
                block_mul_right(lik, inv_diag + k * bsq, bs);
            for (long long s = u_indptr[k]; s < u_indptr[k + 1]; ++s) {
                long long p = pos[u_indices[s]];
                if (p < 0)
                    continue;
                if (bs == 1)
                    w[p] -= lik[0] * u_data[s];
                else
                    block_submul(w + p * bsq, lik, u_data + s * bsq, bs);
            }
        }
        if (status == ILU_OK) {
            double *d = w + nl * bsq;
            if (bs == 1) {
                if (d[0] == 0.0)
                    status = i;
                inv_diag[i] = d[0];
            } else if (!block_inverse(d, inv_diag + i * bsq, bs)) {
                status = i;
            }
        }
        for (long long e = 0; e < nl * bsq; ++e)
            l_data[ls * bsq + e] = w[e];
        for (long long e = 0; e < nu * bsq; ++e)
            u_data[us * bsq + e] = w[(nl + 1) * bsq + e];
        for (long long t = 0; t < nl; ++t)
            pos[l_indices[ls + t]] = -1;
        pos[i] = -1;
        for (long long t = 0; t < nu; ++t)
            pos[u_indices[us + t]] = -1;
    }
    if (status == ILU_OK && bs == 1)
        for (long long i = 0; i < n; ++i)
            inv_diag[i] = 1.0 / inv_diag[i];
    return status;
}

/* Jacobian slot scatter: data[slots[k]] = sign * src[k] blockwise.
 * sign is +-1.0; both multiplications are exact, so the result is
 * bitwise-identical to the fancy-indexed assignment it replaces. */
void scatter_blocks_f64(long long nslots, long long bsq,
    const long long *slots, const double *src, double sign,
    double *data)
{
    for (long long k = 0; k < nslots; ++k) {
        double *d = data + slots[k] * bsq;
        const double *s = src + k * bsq;
        for (long long c = 0; c < bsq; ++c)
            d[c] = sign * s[c];
    }
}

/* ---- Rusanov face flux, once per family -------------------------
 * F = (F(l)+F(r))/2 - lam/2 (r-l), lam = max wavespeed.  Scalar
 * operation order mirrors the numpy expressions in repro.euler.fluxes
 * statement for statement; -ffp-contract=off forbids FMA, so
 * differences vs the oracle come only from SIMD pairing of the
 * length-3 dot products (ULP-level).  Both the first-order scatter and
 * the fused second-order kernel below call these, so the two orders
 * share one flux expression. */
static inline void rusanov_face_inc(const double *l, const double *r,
    const double *sm, double beta, double *f)
{
    double unl = l[1] * sm[0] + l[2] * sm[1] + l[3] * sm[2];
    double unr = r[1] * sm[0] + r[2] * sm[1] + r[3] * sm[2];
    double s2 = sm[0] * sm[0] + sm[1] * sm[1] + sm[2] * sm[2];
    double wsl = fabs(unl) + sqrt(unl * unl + beta * s2);
    double wsr = fabs(unr) + sqrt(unr * unr + beta * s2);
    double lam = wsl >= wsr ? wsl : wsr;
    f[0] = 0.5 * (beta * unl + beta * unr)
         - 0.5 * lam * (r[0] - l[0]);
    for (int c = 0; c < 3; ++c)
        f[1 + c] = 0.5 * ((l[1 + c] * unl + l[0] * sm[c])
                        + (r[1 + c] * unr + r[0] * sm[c]))
                 - 0.5 * lam * (r[1 + c] - l[1 + c]);
}

static inline void rusanov_face_comp(const double *l, const double *r,
    const double *sm, double gamma, double *f)
{
    double g1 = gamma - 1.0;
    double rhol = l[0], rhor = r[0];
    double vl0 = l[1] / rhol, vl1 = l[2] / rhol, vl2 = l[3] / rhol;
    double vr0 = r[1] / rhor, vr1 = r[2] / rhor, vr2 = r[3] / rhor;
    double kel = 0.5 * rhol * (vl0 * vl0 + vl1 * vl1 + vl2 * vl2);
    double ker = 0.5 * rhor * (vr0 * vr0 + vr1 * vr1 + vr2 * vr2);
    double pl = g1 * (l[4] - kel);
    double pr = g1 * (r[4] - ker);
    double unl = vl0 * sm[0] + vl1 * sm[1] + vl2 * sm[2];
    double unr = vr0 * sm[0] + vr1 * sm[1] + vr2 * sm[2];
    double smag = sqrt(sm[0] * sm[0] + sm[1] * sm[1] + sm[2] * sm[2]);
    double al2 = gamma * pl / rhol;
    double ar2 = gamma * pr / rhor;
    double cl = sqrt(al2 > 0.0 ? al2 : 0.0);
    double cr = sqrt(ar2 > 0.0 ? ar2 : 0.0);
    double wsl = fabs(unl) + cl * smag;
    double wsr = fabs(unr) + cr * smag;
    double lam = wsl >= wsr ? wsl : wsr;
    f[0] = 0.5 * (rhol * unl + rhor * unr)
         - 0.5 * lam * (r[0] - l[0]);
    for (int c = 0; c < 3; ++c)
        f[1 + c] = 0.5 * ((l[1 + c] * unl + pl * sm[c])
                        + (r[1 + c] * unr + pr * sm[c]))
                 - 0.5 * lam * (r[1 + c] - l[1 + c]);
    f[4] = 0.5 * ((l[4] + pl) * unl + (r[4] + pr) * unr)
         - 0.5 * lam * (r[4] - l[4]);
}

/* ---- fused Rusanov flux + two-target edge scatter -----------------
 * The face flux of precomputed edge states, accumulated into both
 * endpoint accumulators in edge order (the bincount order). */
#define RUSANOV_SCATTER(NAME, NC, FACE)                                 \
long long NAME(long long ne, long long n, const long long *e0,          \
    const long long *e1, const double *ql, const double *qr,            \
    const double *s, double param, double *out_a, double *out_b)        \
{                                                                       \
    for (long long m = 0; m < ne; ++m) {                                \
        long long i = e0[m], j = e1[m];                                 \
        if (!ENDPOINTS_IN_RANGE(i, j, n))                               \
            return m;                                                   \
        double f[NC];                                                   \
        FACE(ql + m * NC, qr + m * NC, s + m * 3, param, f);            \
        double *pa = out_a + i * NC;                                    \
        double *pb = out_b + j * NC;                                    \
        for (int c = 0; c < NC; ++c) {                                  \
            pa[c] += f[c];                                              \
            pb[c] += f[c];                                              \
        }                                                               \
    }                                                                   \
    return -1;                                                          \
}
RUSANOV_SCATTER(rusanov_scatter_inc, 4, rusanov_face_inc)
RUSANOV_SCATTER(rusanov_scatter_comp, 5, rusanov_face_comp)

/* ---- second-order residual, pass 1: Green-Gauss gradients ---------
 * Twin of repro.euler.reconstruction.green_gauss_gradients for any
 * ncomp.  Each edge adds (0.5 (q_i + q_j)) s into grad[i] and into
 * acc_b[j], in edge order — two bincounts, without the (ne, ncomp, 3)
 * contribution array — and each vertex finishes
 * ((a - b) + q n_bnd) / V in the oracle's operation order: bitwise.
 * grad and acc_b arrive zeroed; grad holds the result. */
long long green_gauss_f64(long long ne, long long n, long long ncomp,
    const long long *e0, const long long *e1, const double *q,
    const double *s, const double *bnd, const double *vol,
    double *grad, double *acc_b)
{
    long long w = ncomp * 3;
    for (long long m = 0; m < ne; ++m) {
        long long i = e0[m], j = e1[m];
        if (!ENDPOINTS_IN_RANGE(i, j, n))
            return m;
        const double *qi = q + i * ncomp;
        const double *qj = q + j * ncomp;
        const double *sm = s + m * 3;
        double *pa = grad + i * w;
        double *pb = acc_b + j * w;
        for (long long c = 0; c < ncomp; ++c) {
            double qm = 0.5 * (qi[c] + qj[c]);
            for (int x = 0; x < 3; ++x) {
                double v = qm * sm[x];
                pa[c * 3 + x] += v;
                pb[c * 3 + x] += v;
            }
        }
    }
    for (long long v = 0; v < n; ++v) {
        const double *qv = q + v * ncomp;
        const double *nb = bnd + v * 3;
        double *g = grad + v * w;
        const double *b = acc_b + v * w;
        for (long long c = 0; c < ncomp; ++c)
            for (int x = 0; x < 3; ++x)
                g[c * 3 + x] = (g[c * 3 + x] - b[c * 3 + x]
                                + qv[c] * nb[x]) / vol[v];
    }
    return -1;
}

/* ---- second-order residual, pass 2: MUSCL + Rusanov + scatter -----
 * One loop per edge: dx from the vertex coordinates, the central and
 * the two one-sided slopes, the limiter, the face flux and the
 * two-target scatter, with no per-edge array in between.  The limited
 * half-slope copies the scalar expression order of
 * reconstruct_edge_states, _van_albada and _minmod; the gradient dot
 * products are sequential where einsum may pair, so the result is
 * ULP-bounded against the numpy composition, like rusanov_scatter. */
/* the codes of repro.kernels._LIMITERS */
enum { LIMITER_NONE = 0, LIMITER_VAN_ALBADA = 1, LIMITER_MINMOD = 2 };

static inline double muscl_half_slope(double sl, double dq, int limiter)
{
    const double eps = 1e-12;
    if (limiter == LIMITER_NONE)
        return 0.5 * (sl + dq) * 0.5;
    if (!(sl * dq > 0.0))
        return 0.0;
    if (limiter == LIMITER_VAN_ALBADA) {
        double num = (sl * sl + eps) * dq + (dq * dq + eps) * sl;
        double den = sl * sl + dq * dq + 2 * eps;
        return 0.5 * (num / den);
    }
    return 0.5 * (fabs(sl) < fabs(dq) ? sl : dq);
}

#define MUSCL_RUSANOV_SCATTER(NAME, NC, FACE)                           \
long long NAME(long long ne, long long n, const long long *e0,          \
    const long long *e1, const double *q, const double *grad,           \
    const double *coords, const double *s, int limiter, double param,   \
    double *out_a, double *out_b)                                       \
{                                                                       \
    for (long long m = 0; m < ne; ++m) {                                \
        long long i = e0[m], j = e1[m];                                 \
        if (!ENDPOINTS_IN_RANGE(i, j, n))                               \
            return m;                                                   \
        const double *xi = coords + i * 3;                              \
        const double *xj = coords + j * 3;                              \
        double dx0 = xj[0] - xi[0];                                     \
        double dx1 = xj[1] - xi[1];                                     \
        double dx2 = xj[2] - xi[2];                                     \
        const double *qi = q + i * NC;                                  \
        const double *qj = q + j * NC;                                  \
        const double *gi = grad + i * (NC * 3);                         \
        const double *gj = grad + j * (NC * 3);                         \
        double l[NC], r[NC], f[NC];                                     \
        for (int c = 0; c < NC; ++c) {                                  \
            double dq = qj[c] - qi[c];                                  \
            double gl = gi[c * 3] * dx0 + gi[c * 3 + 1] * dx1           \
                      + gi[c * 3 + 2] * dx2;                            \
            double gr = gj[c * 3] * dx0 + gj[c * 3 + 1] * dx1           \
                      + gj[c * 3 + 2] * dx2;                            \
            l[c] = qi[c] + muscl_half_slope(2.0 * gl - dq, dq, limiter);\
            r[c] = qj[c] - muscl_half_slope(2.0 * gr - dq, dq, limiter);\
        }                                                               \
        FACE(l, r, s + m * 3, param, f);                                \
        double *pa = out_a + i * NC;                                    \
        double *pb = out_b + j * NC;                                    \
        for (int c = 0; c < NC; ++c) {                                  \
            pa[c] += f[c];                                              \
            pb[c] += f[c];                                              \
        }                                                               \
    }                                                                   \
    return -1;                                                          \
}
MUSCL_RUSANOV_SCATTER(muscl_rusanov_scatter_inc, 4, rusanov_face_inc)
MUSCL_RUSANOV_SCATTER(muscl_rusanov_scatter_comp, 5, rusanov_face_comp)
"""

#: Block-size cap of the stack buffers in the BSR C kernels.
MAX_BS = 32

#: Flags of the one build (``load_cbackend``); the CI warning check
#: compiles the source with these too.
COMPILE_ARGS = ("-O2", "-ffp-contract=off", "-fvect-cost-model=dynamic")

#: Status codes of the ILU kernels (the ``ILU_*`` enum of the C source):
#: success, an A column outside ``[0, n)``; a status >= 0 is the row
#: whose pivot is zero or singular, any other an output buffer full.
ILU_OK, ILU_BAD_COLUMN = -1, -2


def _module_name(flags=COMPILE_ARGS) -> str:
    """Extension name of a build: a digest of the C declarations, the C
    source and the compile flags, so a change to any of them builds
    afresh instead of importing a stale library."""
    h = hashlib.sha1(_CDEF.encode())
    h.update(_SOURCE.encode())
    h.update("\0".join(flags).encode())
    return f"_repro_ckernels_{h.hexdigest()[:12]}"


def _cache_dir() -> str:
    path = os.environ.get("REPRO_KERNELS_CACHE")
    if not path:
        base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
            os.path.expanduser("~"), ".cache")
        path = os.path.join(base, "repro_kernels")
    os.makedirs(path, exist_ok=True)
    return path


class CBackend:
    """Thin zero-copy wrappers around the compiled library.

    All methods expect the dispatch layer (:mod:`repro.kernels`) to
    have validated dtypes and made the arrays C-contiguous; they only
    translate numpy buffers to pointers and call C.  The edge kernels
    return the first edge with an endpoint outside ``[0, n)``, or -1:
    on an offending edge the partial outputs are dropped and the method
    returns None (the dispatcher declines).
    """

    name = "c"

    def __init__(self, ffi, lib) -> None:
        self._ffi = ffi
        self._lib = lib

    # -- pointer helpers ------------------------------------------------
    def _pd(self, a):
        return self._ffi.from_buffer("double[]", a)

    def _pdw(self, a):
        return self._ffi.from_buffer("double[]", a, require_writable=True)

    def _pf(self, a):
        return self._ffi.from_buffer("float[]", a)

    def _pi(self, a):
        return self._ffi.from_buffer("long long[]", a)

    def _piw(self, a):
        return self._ffi.from_buffer("long long[]", a, require_writable=True)

    # -- kernels --------------------------------------------------------
    def edge_scatter2(self, e0, e1, wa, wb, n):
        trailing = int(np.prod(wa.shape[1:])) if wa.ndim > 1 else 1
        out_a = np.zeros((n,) + wa.shape[1:], dtype=np.float64)
        out_b = np.zeros((n,) + wb.shape[1:], dtype=np.float64)
        bad = self._lib.edge_scatter2_f64(
            wa.shape[0], n, trailing, self._pi(e0), self._pi(e1),
            self._pd(wa), self._pd(wb), self._pdw(out_a), self._pdw(out_b))
        return None if bad >= 0 else (out_a, out_b)

    def spmv_csr(self, indptr, indices, data, x):
        y = np.empty(indptr.size - 1, dtype=np.float64)
        self._lib.spmv_csr_f64(indptr.size - 1, self._pi(indptr),
                               self._pi(indices), self._pd(data),
                               self._pd(x), self._pdw(y))
        return y

    def spmv_csr_rows(self, indptr, indices, data, x, rows):
        y = np.empty(rows.size, dtype=np.float64)
        self._lib.spmv_csr_rows_f64(rows.size, self._pi(rows),
                                    self._pi(indptr), self._pi(indices),
                                    self._pd(data), self._pd(x),
                                    self._pdw(y))
        return y

    def spmv_bsr(self, indptr, indices, data, x, nbrows):
        bs = data.shape[1]
        y = np.empty(nbrows * bs, dtype=np.float64)
        self._lib.spmv_bsr_f64(nbrows, bs, self._pi(indptr),
                               self._pi(indices), self._pd(data),
                               self._pd(x), self._pdw(y))
        return y

    def gather_spmv_bsr(self, data_blocks, cols, seg, x, n_owned):
        bs = data_blocks.shape[1]
        y = np.zeros((n_owned, bs), dtype=np.float64)
        self._lib.gather_spmv_bsr_f64(data_blocks.shape[0], bs,
                                      self._pi(cols), self._pi(seg),
                                      self._pd(data_blocks), self._pd(x),
                                      self._pdw(y))
        return y

    def lower_solve_csr(self, indptr, indices, data, x):
        fn, pd = ((self._lib.lower_solve_csr_f32, self._pf)
                  if data.dtype == np.float32
                  else (self._lib.lower_solve_csr_f64, self._pd))
        fn(indptr.size - 1, self._pi(indptr), self._pi(indices), pd(data),
           self._pdw(x))

    def upper_solve_csr(self, indptr, indices, data, inv_diag, x):
        fn, pd = ((self._lib.upper_solve_csr_f32, self._pf)
                  if data.dtype == np.float32
                  else (self._lib.upper_solve_csr_f64, self._pd))
        fn(indptr.size - 1, self._pi(indptr), self._pi(indices), pd(data),
           pd(inv_diag), self._pdw(x))

    def lower_solve_bsr(self, indptr, indices, data, x, bs):
        fn, pd = ((self._lib.lower_solve_bsr_f32, self._pf)
                  if data.dtype == np.float32
                  else (self._lib.lower_solve_bsr_f64, self._pd))
        fn(indptr.size - 1, bs, self._pi(indptr), self._pi(indices),
           pd(data), self._pdw(x))

    def upper_solve_bsr(self, indptr, indices, data, inv_diag, x, bs):
        fn, pd = ((self._lib.upper_solve_bsr_f32, self._pf)
                  if data.dtype == np.float32
                  else (self._lib.upper_solve_bsr_f64, self._pd))
        fn(indptr.size - 1, bs, self._pi(indptr), self._pi(indices),
           pd(data), pd(inv_diag), self._pdw(x))

    # -- ILU(k) ----------------------------------------------------------
    def ilu_symbolic(self, indptr, indices, fill_level):
        """The six pattern arrays ``(l_indptr, l_indices, l_levels,
        u_indptr, u_indices, u_levels)``, or None for a column outside
        ``[0, n)``.  Output capacity starts at the ILU(0) size times
        ``fill_level + 1`` and doubles until the pattern fits."""
        n = indptr.size - 1
        cap = (indices.size + n) * (fill_level + 1)
        # lint: loop-ok (capacity doubling, one or two builds per pattern)
        while True:
            l_ptr = np.empty(n + 1, dtype=np.int64)
            u_ptr = np.empty(n + 1, dtype=np.int64)
            l_idx, l_lev, u_idx, u_lev = (np.empty(cap, dtype=np.int64)
                                          for _ in range(4))
            lev = np.full(n, -1, dtype=np.int64)
            nxt = np.empty(n + 1, dtype=np.int64)
            status = self._lib.ilu_symbolic_i64(
                n, fill_level, self._pi(indptr), self._pi(indices), cap, cap,
                *map(self._piw, (l_ptr, l_idx, l_lev, u_ptr, u_idx, u_lev,
                                 lev, nxt)))
            if status == ILU_OK:
                nl, nu = int(l_ptr[-1]), int(u_ptr[-1])
                return (l_ptr, l_idx[:nl].copy(), l_lev[:nl].copy(),
                        u_ptr, u_idx[:nu].copy(), u_lev[:nu].copy())
            if status == ILU_BAD_COLUMN:
                return None
            cap *= 2

    def ilu_numeric(self, n, l_iptr, l_idx, u_iptr, u_idx, indptr, indices,
                    data):
        """``(status, l_data, u_data, inv_diag)`` of the numeric ILU of
        ``data`` (``(nnz,)`` scalar or ``(nnz, bs, bs)`` blocks) on the
        pattern's L / U structure; the arrays are only meaningful for
        ``ILU_OK``."""
        blk = data.shape[1:]
        bs = blk[0] if blk else 1
        l_data = np.empty((l_idx.size,) + blk, dtype=np.float64)
        u_data = np.empty((u_idx.size,) + blk, dtype=np.float64)
        inv_diag = np.empty((n,) + blk, dtype=np.float64)
        width = int((np.diff(l_iptr) + np.diff(u_iptr)).max(initial=0)) + 1
        pos = np.full(n, -1, dtype=np.int64)
        w = np.empty(width * bs * bs, dtype=np.float64)
        status = self._lib.ilu_numeric_f64(
            n, bs, self._pi(l_iptr), self._pi(l_idx), self._pi(u_iptr),
            self._pi(u_idx), self._pi(indptr), self._pi(indices),
            self._pd(data), self._pdw(l_data), self._pdw(u_data),
            self._pdw(inv_diag), self._piw(pos), self._pdw(w))
        return status, l_data, u_data, inv_diag

    def scatter_blocks(self, slots, src, sign, data):
        bsq = int(np.prod(src.shape[1:])) if src.ndim > 1 else 1
        self._lib.scatter_blocks_f64(slots.size, bsq, self._pi(slots),
                                     self._pd(src), float(sign),
                                     self._pdw(data))

    # -- fused Rusanov flux + scatter ----------------------------------
    def rusanov_scatter(self, e0, e1, ql, qr, s, n, model, param):
        ncomp = ql.shape[1]
        out_a = np.zeros((n, ncomp), dtype=np.float64)
        out_b = np.zeros((n, ncomp), dtype=np.float64)
        fn = (self._lib.rusanov_scatter_inc if model == "incompressible"
              else self._lib.rusanov_scatter_comp)
        bad = fn(ql.shape[0], n, self._pi(e0), self._pi(e1), self._pd(ql),
                 self._pd(qr), self._pd(s), param, self._pdw(out_a),
                 self._pdw(out_b))
        return None if bad >= 0 else (out_a, out_b)

    # -- second-order residual: gradients, then MUSCL + flux + scatter --
    def green_gauss(self, e0, e1, q, s, bnd, vol):
        n, ncomp = q.shape
        grad = np.zeros((n, ncomp, 3), dtype=np.float64)
        acc_b = np.zeros((n, ncomp, 3), dtype=np.float64)
        bad = self._lib.green_gauss_f64(
            e0.size, n, ncomp, self._pi(e0), self._pi(e1), self._pd(q),
            self._pd(s), self._pd(bnd), self._pd(vol), self._pdw(grad),
            self._pdw(acc_b))
        return None if bad >= 0 else grad

    def muscl_rusanov_scatter(self, e0, e1, q, grad, coords, s, limiter,
                              model, param):
        n, ncomp = q.shape
        out_a = np.zeros((n, ncomp), dtype=np.float64)
        out_b = np.zeros((n, ncomp), dtype=np.float64)
        fn = (self._lib.muscl_rusanov_scatter_inc
              if model == "incompressible"
              else self._lib.muscl_rusanov_scatter_comp)
        bad = fn(e0.size, n, self._pi(e0), self._pi(e1), self._pd(q),
                 self._pd(grad), self._pd(coords), self._pd(s), limiter,
                 param, self._pdw(out_a), self._pdw(out_b))
        return None if bad >= 0 else (out_a, out_b)


def load_cbackend() -> CBackend | None:
    """Build (once) or import the compiled library; None on failure.

    The extension name carries a hash of the C source and of
    :data:`COMPILE_ARGS` (:func:`_module_name`), so editing the kernels
    or the flags automatically invalidates stale cached builds.
    """
    modname = _module_name()
    cachedir = _cache_dir()
    if cachedir not in sys.path:
        sys.path.insert(0, cachedir)
    try:
        mod = importlib.import_module(modname)
        return CBackend(mod.ffi, mod.lib)
    except ImportError:
        pass
    try:
        import cffi

        builder = cffi.FFI()
        builder.cdef(_CDEF)
        builder.set_source(modname, _SOURCE,
                           extra_compile_args=list(COMPILE_ARGS))
        builder.compile(tmpdir=cachedir, verbose=False)
        importlib.invalidate_caches()
        mod = importlib.import_module(modname)
        return CBackend(mod.ffi, mod.lib)
    except Exception as exc:
        # Broken toolchain / failed build: quarantine with the reason
        # so capability_report can explain the numpy fallback.
        from repro.kernels import capability
        capability.record_quarantine("c", "build", exc)
        return None
