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
  (the paper's Table 2: f32 storage, f64 arithmetic).

The library is compiled once with ``-ffp-contract=off`` (FMA
contraction would change rounding and break bitwise claims) into a
source-hash-keyed cache directory and imported from there afterwards;
a failed build degrades to numpy via the capability layer.
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
void lower_solve_csr_f64(long long nsolve, const long long *order,
    const long long *indptr, const long long *indices,
    const double *data, double *x);
void lower_solve_csr_f32(long long nsolve, const long long *order,
    const long long *indptr, const long long *indices,
    const float *data, double *x);
void upper_solve_csr_f64(long long nsolve, const long long *order,
    const long long *indptr, const long long *indices,
    const double *data, const double *inv_diag, double *x);
void upper_solve_csr_f32(long long nsolve, const long long *order,
    const long long *indptr, const long long *indices,
    const float *data, const float *inv_diag, double *x);
void lower_solve_bsr_f64(long long nsolve, long long bs,
    const long long *order, const long long *indptr,
    const long long *indices, const double *data, double *x);
void lower_solve_bsr_f32(long long nsolve, long long bs,
    const long long *order, const long long *indptr,
    const long long *indices, const float *data, double *x);
void upper_solve_bsr_f64(long long nsolve, long long bs,
    const long long *order, const long long *indptr,
    const long long *indices, const double *data,
    const double *inv_diag, double *x);
void upper_solve_bsr_f32(long long nsolve, long long bs,
    const long long *order, const long long *indptr,
    const long long *indices, const float *data,
    const float *inv_diag, double *x);
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

/* Triangular solves.  `order` is the concatenation of the dependency
 * levels (a topological order), so the sequential row loop resolves
 * dependencies exactly like the level-batched oracle; per-row entry
 * accumulation is in entry order (bincount order, bitwise for CSR).
 * The _f32 variants widen every loaded factor value to double before
 * arithmetic — identical to the oracle's astype(np.float64). */
#define LOWER_CSR(NAME, DTYPE)                                          \
void NAME(long long nsolve, const long long *order,                     \
    const long long *indptr, const long long *indices,                  \
    const DTYPE *data, double *x)                                       \
{                                                                       \
    for (long long k = 0; k < nsolve; ++k) {                            \
        long long i = order[k];                                         \
        double acc = 0.0;                                               \
        for (long long t = indptr[i]; t < indptr[i + 1]; ++t)           \
            acc += (double)data[t] * x[indices[t]];                     \
        x[i] -= acc;                                                    \
    }                                                                   \
}
LOWER_CSR(lower_solve_csr_f64, double)
LOWER_CSR(lower_solve_csr_f32, float)

#define UPPER_CSR(NAME, DTYPE)                                          \
void NAME(long long nsolve, const long long *order,                     \
    const long long *indptr, const long long *indices,                  \
    const DTYPE *data, const DTYPE *inv_diag, double *x)                \
{                                                                       \
    for (long long k = 0; k < nsolve; ++k) {                            \
        long long i = order[k];                                         \
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
void NAME(long long nsolve, long long bs, const long long *order,       \
    const long long *indptr, const long long *indices,                  \
    const DTYPE *data, double *x)                                       \
{                                                                       \
    double acc[MAX_BS];                                                 \
    for (long long k = 0; k < nsolve; ++k) {                            \
        long long i = order[k];                                         \
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
void NAME(long long nsolve, long long bs, const long long *order,       \
    const long long *indptr, const long long *indices,                  \
    const DTYPE *data, const DTYPE *inv_diag, double *x)                \
{                                                                       \
    double acc[MAX_BS];                                                 \
    double rhs[MAX_BS];                                                 \
    for (long long k = 0; k < nsolve; ++k) {                            \
        long long i = order[k];                                         \
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

    def lower_solve_csr(self, indptr, indices, data, x, order):
        fn, pd = ((self._lib.lower_solve_csr_f32, self._pf)
                  if data.dtype == np.float32
                  else (self._lib.lower_solve_csr_f64, self._pd))
        fn(order.size, self._pi(order), self._pi(indptr),
           self._pi(indices), pd(data), self._pdw(x))

    def upper_solve_csr(self, indptr, indices, data, inv_diag, x, order):
        fn, pd = ((self._lib.upper_solve_csr_f32, self._pf)
                  if data.dtype == np.float32
                  else (self._lib.upper_solve_csr_f64, self._pd))
        fn(order.size, self._pi(order), self._pi(indptr),
           self._pi(indices), pd(data), pd(inv_diag), self._pdw(x))

    def lower_solve_bsr(self, indptr, indices, data, x, order, bs):
        fn, pd = ((self._lib.lower_solve_bsr_f32, self._pf)
                  if data.dtype == np.float32
                  else (self._lib.lower_solve_bsr_f64, self._pd))
        fn(order.size, bs, self._pi(order), self._pi(indptr),
           self._pi(indices), pd(data), self._pdw(x))

    def upper_solve_bsr(self, indptr, indices, data, inv_diag, x, order, bs):
        fn, pd = ((self._lib.upper_solve_bsr_f32, self._pf)
                  if data.dtype == np.float32
                  else (self._lib.upper_solve_bsr_f64, self._pd))
        fn(order.size, bs, self._pi(order), self._pi(indptr),
           self._pi(indices), pd(data), pd(inv_diag), self._pdw(x))

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

    The extension name carries a hash of the C source, so editing the
    kernels above automatically invalidates stale cached builds.
    """
    digest = hashlib.sha1(_SOURCE.encode()).hexdigest()[:12]
    modname = f"_repro_ckernels_{digest}"
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
                           extra_compile_args=["-O2", "-ffp-contract=off"])
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
