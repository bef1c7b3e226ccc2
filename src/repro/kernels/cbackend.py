"""cffi-compiled C backend for the hot kernels: the C source, its
build, and :class:`CBackend`, the loaded library that the functions of
:mod:`repro.kernels` call.

Each C function mirrors its numpy oracle's accumulation structure so
the equivalence contract is provable, not hoped for:

* the scatter kernels and the Green-Gauss gradient pass replicate
  ``np.bincount``'s per-target sequential accumulation order and are
  **bitwise** identical; so are the first-order Jacobian assembly and
  the residual's boundary closure, which also copy the lane order of
  ``np.einsum``'s length-3 dot products;
* block (bs x bs) kernels keep the oracle's outer order (blocks in
  slot order) but sum the inner ``j`` contraction sequentially where
  ``np.einsum`` may use SIMD pairwise order, so they are **ULP-bounded**
  rather than bitwise; so are the two fused flux kernels (first-order
  Rusanov + scatter, second-order MUSCL + Rusanov + scatter), whose
  length-3 dot products are sequential;
* the two flux kernels run over blocks of ``EDGE_BLOCK`` (64) edges:
  check the block's endpoints, gather its states into struct-of-arrays
  stack buffers (the second-order kernel reconstructs them there, one
  lane loop per limiter, each limiter a select rather than a branch),
  evaluate the face flux lane by lane and scatter in edge order.  A
  lane is one edge's scalar expression, so the lane loops run at the
  vector width and still compute the per-edge loop's bits at every ISA
  level;
* every kernel checks each index against the extent it addresses
  before it reads or writes through it — an edge's endpoints, a
  column, a row pointer, a segment id, a block slot — and reports the
  first offending edge or row, so a bad index never leaves a buffer;
* the block ILU numeric writes L, U and the pivot inverses with every
  block **column-major** (the factor's ``(nnz, bs, bs)`` arrays are
  transposed views of those buffers, so every reader sees the same
  ``[r, c]`` blocks), and the block triangular solves read them in
  place; a triangle's pointers are made once
  (:func:`repro.kernels.trisolver` returns the solve of one triangle),
  so a factor's solve converts only its right-hand side.  The numeric
  reads A's blocks through a slot map where it is given (a subdomain's
  submatrix, inside the global Jacobian) and stores an fp32 factor
  value by value, each rounded as the fp64 factor's cast rounds it,
  keeping U and the pivot inverses in one fp64 scratch;
* those three kernels work on whole block columns in gcc vector types:
  the ILU keeps its working row as column-major blocks padded to 4
  lanes (bs <= 4) or a multiple of 8 (bs > 4), holds the multiplier's
  columns in registers across the U-row loop and broadcasts U's
  entries; a block solve runs across the block's rows, four at a time.
  Each entry is still 0.0 plus its products in ascending ``j``, the
  order of the row-major loops they replaced, so the factors and
  solves are bitwise theirs;
* the global SpMV, the SPMD rank SpMV and the ``seq`` matvec share one
  block loop, run with bs 4 and 5 as constants: each row's sum starts
  at 0.0, adds its products in ascending ``c`` and goes into ``y``, so
  the three are bitwise one another; the ``seq`` matvec is a whole
  ``seq`` executor call — distribute, ghost refresh, every rank's
  blocks — in one C call, which times each rank's refresh and blocks
  (``CLOCK_MONOTONIC``) for the trace;
* the library is compiled for the widest x86-64 level the CPU offers
  (``-march=x86-64-v4`` or ``-v3``, :func:`_host_isa`; the compiler's
  default elsewhere), named by ``CBackend.isa``; every level computes
  the same bits (``tests/test_kernels_isa.py`` builds one library per
  level and compares them);
* float32-storage trisolves widen each loaded value to float64 before
  any arithmetic, exactly like the oracle's ``astype(np.float64)``
  (the paper's Table 2: f32 storage, f64 arithmetic);
* the ILU(k) symbolic phase is integer-exact against its ``heapq``
  oracle; the numeric phase is the reference IKJ row loop on blocks,
  ULP-bounded (sequential block products, a Gauss-Jordan pivot inverse
  where the oracle calls LAPACK).  Both check A's column indices
  against ``[0, n)`` and decline on a bad one;
* the k-way partitioner's matching, contraction, FM refinement and
  contiguity repair reproduce their numpy phases label for label: the
  random visit order comes from numpy, every tie goes where the numpy
  phase sends it (``np.argmax``'s first maximum, a stable sort's
  candidate order, the lowest component and part), and integer weights
  sum exactly in doubles; the buffers, scratch included, are the
  caller's;
* every matrix kernel is a block (BAIJ) kernel, as PETSc-FUN3D's
  production kernels are: scalar (AIJ) storage is Table 1's baseline,
  priced from memory traces, and no solver Jacobian is one, so the
  numpy kernels of :mod:`repro.sparse` are its only tier.

The library is compiled once with :data:`COMPILE_ARGS` into a cache
directory, under a module name hashed from the source *and* those
flags, and imported from there afterwards; the ``-march`` is one of the
flags, so CPUs of different levels sharing a cache each build and load
their own library.  A failed build degrades to numpy via the capability
layer.  ``-ffp-contract=off`` forbids FMA contraction, which would
change rounding and break the bitwise claims (x86-64-v3 and v4 have
FMA).  ``-fno-math-errno`` lets ``sqrt`` vectorise: it is correctly
rounded either way, so the flag changes no bit, but without it gcc
keeps every ``sqrt`` scalar (to set ``errno``), and the flux kernels'
face loops with it.  ``-fvect-cost-model=dynamic`` lets gcc
auto-vectorise the flux kernels' lane loops and the remaining
elementwise loops — the trisolves' accumulator set-up and update,
index resets — none of which reassociates a sum; gcc does not
vectorise the block-product nests of a runtime block size (a
complicated access pattern), which is why the three block kernels
spell their vectors out.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import sys

import numpy as np

__all__ = ["load_cbackend", "CBackend"]

_CDEF = """
long long spmv_bsr_f64(long long nbrows, long long bs, long long nbcols,
    long long nnzb, const long long *indptr, const long long *indices,
    const double *data, const double *x, double *y);
long long gather_spmv_bsr_f64(long long nblocks, long long bs,
    long long nx, long long n_owned, const long long *cols,
    const long long *seg, const double *data, const double *x, double *y);
long long seq_matvec_bsr_f64(long long nranks, long long bs, long long n,
    long long nrows, long long nghost, long long nblocks, long long ndata,
    const long long *home, const long long *row_off,
    const long long *ghost_off, const long long *ghost_src,
    const long long *blk_off, const long long *flat, const long long *cols,
    const long long *seg, const double *data, const double *x, double *buf,
    double *ybuf, double *y, double *times);
long long lower_solve_bsr_f64(long long n, long long bs, long long nnz,
    const long long *indptr, const long long *indices,
    const double *data, double *x);
long long lower_solve_bsr_f32(long long n, long long bs, long long nnz,
    const long long *indptr, const long long *indices,
    const float *data, double *x);
long long upper_solve_bsr_f64(long long n, long long bs, long long nnz,
    const long long *indptr, const long long *indices,
    const double *data, const double *inv_diag, double *x);
long long upper_solve_bsr_f32(long long n, long long bs, long long nnz,
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
    const long long *a_slots, long long a_nblocks,
    const double *a_data, double *l_data, double *u_data,
    double *inv_diag, long long *pos, double *w);
long long ilu_numeric_f32(long long n, long long bs,
    const long long *l_indptr, const long long *l_indices,
    const long long *u_indptr, const long long *u_indices,
    const long long *a_indptr, const long long *a_indices,
    const long long *a_slots, long long a_nblocks,
    const double *a_data, float *l_data, float *u_data,
    float *inv_diag, double *scratch, long long *pos, double *w);
long long rusanov_jacobian_scatter_inc(long long ne, long long n,
    long long nnzb, const long long *e0, const long long *e1,
    const long long *ij_slots, const long long *ji_slots, const double *q,
    const double *s, double beta, double *data, double *acc_a,
    double *acc_b, double *lam_a, double *lam_b);
long long rusanov_jacobian_scatter_comp(long long ne, long long n,
    long long nnzb, const long long *e0, const long long *e1,
    const long long *ij_slots, const long long *ji_slots, const double *q,
    const double *s, double gamma, double *data, double *acc_a,
    double *acc_b, double *lam_a, double *lam_b);
long long boundary_closure_inc(long long n, long long nb, long long nwall,
    const long long *wall_rows, const long long *wall_idx, long long nfar,
    const long long *far_rows, const long long *far_idx, const double *q,
    const double *normals, const double *qinf, double beta, double *r);
long long boundary_closure_comp(long long n, long long nb, long long nwall,
    const long long *wall_rows, const long long *wall_idx, long long nfar,
    const long long *far_rows, const long long *far_idx, const double *q,
    const double *normals, const double *qinf, double gamma, double *r);
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
long long hem_match_i64(long long n, const long long *xadj,
    const long long *adjncy, const long long *ewgt, const long long *order,
    long long *match);
long long contract_i64(long long n, const long long *xadj,
    const long long *adjncy, const long long *vwgt, const long long *ewgt,
    const long long *match, long long *f2c, long long *nc_out,
    long long *cxadj, long long *cadjncy, long long *cvwgt,
    long long *cewgt, long long *work);
long long fm_refine_i64(long long n, long long nparts, const long long *xadj,
    const long long *adjncy, const long long *vwgt, const long long *ewgt,
    long long max_passes, long long strict, double cap, long long *labels,
    double *part_w, long long *stamp, long long *touched, double *acc,
    long long *cand, double *key, long long *seen);
long long repair_contiguity_i64(long long n, long long nparts,
    const long long *xadj, const long long *adjncy, const long long *vwgt,
    const long long *ewgt, long long *labels, long long *work,
    double *dwork);
"""

_SOURCE = r"""
#ifndef _POSIX_C_SOURCE
#define _POSIX_C_SOURCE 199309L     /* clock_gettime under -std=c99 */
#endif
#include <math.h>
#include <string.h>
#include <time.h>

/* gcc vector types: an operation on them is lane by lane, each lane the
 * IEEE operation of its scalar twin.  The u types load and store at any
 * alignment.  Vectors are only ever passed through pointers. */
typedef double v4d __attribute__((vector_size(32)));
typedef double v8d __attribute__((vector_size(64)));
typedef float v4f __attribute__((vector_size(16)));
typedef v4d v4du __attribute__((aligned(8)));
typedef v8d v8du __attribute__((aligned(8)));
typedef v4f v4fu __attribute__((aligned(4)));

/* Every edge kernel checks both endpoints of an edge against [0, n)
 * before it touches anything for that edge, and returns the index of
 * the first offending edge (-1: none).  The outputs are then partial;
 * the wrapper drops them and the dispatcher declines, so the caller's
 * numpy path raises what it raises without a compiled tier. */
#define IN_RANGE(k, n) ((unsigned long long)(k) < (unsigned long long)(n))
#define ENDPOINTS_IN_RANGE(i, j, n) (IN_RANGE(i, n) && IN_RANGE(j, n))

/* Every matrix kernel checks each index before it dereferences it —
 * a row's pointer pair against [0, nnz], a column, a segment id or a
 * slot against its own extent — and returns the first offending row
 * (block, for gather_spmv_bsr), -1 when there is none.  One unsigned
 * compare per stored entry, inside the loop that loads it.  In-place
 * kernels leave the rows before the offending one solved; the callers
 * start their fallback from the right-hand side again. */
#define ROW_IN_RANGE(lo, hi, nnz)                                       \
    ((unsigned long long)(lo) <= (unsigned long long)(hi)               \
     && (unsigned long long)(hi) <= (unsigned long long)(nnz))

/* Every function below that takes a block size calls its loop body,
 * NAME_n, with bs = 5 and bs = 4 as constants (the Euler Jacobians) and
 * with the runtime bs otherwise: forced inline, the constant unrolls the
 * block, with the loop order and arithmetic of the generic call. */
#define ALWAYS_INLINE static inline __attribute__((always_inline))
/* unrolls a loop whose trip count is a constant block size */
#define UNROLL _Pragma("GCC unroll 8")
#define BS_DISPATCH(NAME, bs, ...)                                      \
    ((bs) == 5 ? NAME##_n(5, __VA_ARGS__)                               \
     : (bs) == 4 ? NAME##_n(4, __VA_ARGS__) : NAME##_n(bs, __VA_ARGS__))

#define MAX_BS 32

/* yi += blk xj for one bs x bs row-major block of the SpMVs: each row's
 * sum starts at 0.0 and adds its c = 0..bs-1 products in order, then
 * goes into yi.  Blocks are accumulated in slot order (the bincount
 * order of the oracle); the inner sum is sequential where einsum may
 * pair, so the SpMVs are ULP-bounded against it and bitwise one another:
 * the global, the per-rank and the seq matvec add the same products in
 * the same order.  The callers hold yi in a local array while
 * consecutive blocks add into the same row, so the running sums stay in
 * registers instead of making each block wait on the last one's store;
 * the additions, and so the bits, are those of adding into y. */
ALWAYS_INLINE void spmv_block(long long bs, const double *blk,
    const double *xj, double *yi)
{
    UNROLL for (long long r = 0; r < bs; ++r) {
        double p = 0.0;
        UNROLL for (long long c = 0; c < bs; ++c)
            p += blk[r * bs + c] * xj[c];
        yi[r] += p;
    }
}

ALWAYS_INLINE long long spmv_bsr_n(long long bs, long long nbrows,
    long long nbcols, long long nnzb, const long long *indptr,
    const long long *indices, const double *data, const double *x,
    double *y)
{
    for (long long i = 0; i < nbrows; ++i) {
        long long lo = indptr[i], hi = indptr[i + 1];
        if (!ROW_IN_RANGE(lo, hi, nnzb))
            return i;
        double acc[MAX_BS];
        for (long long r = 0; r < bs; ++r)
            acc[r] = 0.0;
        for (long long t = lo; t < hi; ++t) {
            if (!IN_RANGE(indices[t], nbcols))
                return i;
            spmv_block(bs, data + t * bs * bs, x + indices[t] * bs, acc);
        }
        for (long long r = 0; r < bs; ++r)
            y[i * bs + r] = acc[r];
    }
    return -1;
}

long long spmv_bsr_f64(long long nbrows, long long bs, long long nbcols,
    long long nnzb, const long long *indptr, const long long *indices,
    const double *data, const double *x, double *y)
{
    return BS_DISPATCH(spmv_bsr, bs, nbrows, nbcols, nnzb, indptr, indices,
                       data, x, y);
}

/* y[seg[k]] += data[b] x[cols[k]] for blocks k0 <= k < k1, b = flat[k]
 * (flat NULL: b = k, the blocks pre-gathered); returns the first block
 * with an index out of range, -1 when none. */
ALWAYS_INLINE long long gather_spmv_bsr_n(long long bs, long long k0,
    long long k1, long long ndata, long long nx, long long ny,
    const long long *flat, const long long *cols, const long long *seg,
    const double *data, const double *x, double *y)
{
    double acc[MAX_BS];
    long long s = -1;              /* the row acc holds */
    for (long long k = k0; k < k1; ++k) {
        long long b = flat ? flat[k] : k;
        if (!IN_RANGE(b, ndata) || !IN_RANGE(cols[k], nx)
            || !IN_RANGE(seg[k], ny))
            return k;
        if (seg[k] != s) {
            if (s >= 0)
                for (long long r = 0; r < bs; ++r)
                    y[s * bs + r] = acc[r];
            s = seg[k];
            for (long long r = 0; r < bs; ++r)
                acc[r] = y[s * bs + r];
        }
        spmv_block(bs, data + b * bs * bs, x + cols[k] * bs, acc);
    }
    if (s >= 0)
        for (long long r = 0; r < bs; ++r)
            y[s * bs + r] = acc[r];
    return -1;
}

/* The SPMD per-rank SpMV on a rank's pre-gathered blocks (block k is
 * data[k]), with explicit segment ids.  y must be zeroed by the caller
 * (length n_owned * bs). */
long long gather_spmv_bsr_f64(long long nblocks, long long bs,
    long long nx, long long n_owned, const long long *cols,
    const long long *seg, const double *data, const double *x, double *y)
{
    return BS_DISPATCH(gather_spmv_bsr, bs, 0, nblocks, nblocks, nx,
                       n_owned, NULL, cols, seg, data, x, y);
}

static double now_s(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* The seq executor's matvec, every rank in one call, through the
 * scatter plan's flat buffer buf (nrows block rows: rank r's are
 * row_off[r] .. row_off[r + 1], owned then ghosts):
 *   1. distribute: buf[home[v]] = x[v] for the n global rows;
 *   2. refresh: rank r's ghost rows, the last ghost_off[r + 1] -
 *      ghost_off[r] of its rows, copy the buf rows ghost_src[ghost_off[r]
 *      ..] (nghost in all);
 *   3. matvec: rank r's blocks blk_off[r] .. blk_off[r + 1], of nblocks,
 *      are its per-rank SpMV on its rows of buf, into its rows of ybuf
 *      (zeroed by the caller): cols are rank rows, seg owned rows;
 *   4. collect: y[v] = ybuf[home[v]].
 * times[2 r] and times[2 r + 1] receive rank r's refresh and matvec
 * seconds.  Returns -1, or the first rank whose rows, ghost sources or
 * blocks hold an index out of range (nranks: a home row). */
ALWAYS_INLINE long long seq_matvec_bsr_n(long long bs, long long nranks,
    long long n, long long nrows, long long nghost, long long nblocks,
    long long ndata, const long long *home, const long long *row_off,
    const long long *ghost_off, const long long *ghost_src,
    const long long *blk_off,
    const long long *flat, const long long *cols, const long long *seg,
    const double *data, const double *x, double *buf, double *ybuf,
    double *y, double *times)
{
    for (long long v = 0; v < n; ++v) {
        if (!IN_RANGE(home[v], nrows))
            return nranks;
        double *dst = buf + home[v] * bs;
        const double *src = x + v * bs;
        for (long long c = 0; c < bs; ++c)
            dst[c] = src[c];
    }
    for (long long r = 0; r < nranks; ++r) {
        double t0 = now_s();
        long long g0 = ghost_off[r], g1 = ghost_off[r + 1];
        long long hi = row_off[r + 1];
        if (!ROW_IN_RANGE(row_off[r], hi, nrows)
            || !ROW_IN_RANGE(g0, g1, nghost) || g1 - g0 > hi - row_off[r])
            return r;
        double *dst = buf + (hi - (g1 - g0)) * bs;
        for (long long g = g0; g < g1; ++g, dst += bs) {
            if (!IN_RANGE(ghost_src[g], nrows))
                return r;
            const double *src = buf + ghost_src[g] * bs;
            for (long long c = 0; c < bs; ++c)
                dst[c] = src[c];
        }
        times[2 * r] = now_s() - t0;
    }
    for (long long r = 0; r < nranks; ++r) {
        double t0 = now_s();
        long long lo = row_off[r];
        long long n_owned = row_off[r + 1] - lo
                            - (ghost_off[r + 1] - ghost_off[r]);
        if (!ROW_IN_RANGE(blk_off[r], blk_off[r + 1], nblocks)
            || gather_spmv_bsr_n(bs, blk_off[r], blk_off[r + 1], ndata,
                                 row_off[r + 1] - lo, n_owned, flat, cols,
                                 seg, data, buf + lo * bs,
                                 ybuf + lo * bs) >= 0)
            return r;
        times[2 * r + 1] = now_s() - t0;
    }
    for (long long v = 0; v < n; ++v) {
        const double *src = ybuf + home[v] * bs;
        double *dst = y + v * bs;
        for (long long c = 0; c < bs; ++c)
            dst[c] = src[c];
    }
    return -1;
}

long long seq_matvec_bsr_f64(long long nranks, long long bs, long long n,
    long long nrows, long long nghost, long long nblocks, long long ndata,
    const long long *home, const long long *row_off,
    const long long *ghost_off, const long long *ghost_src,
    const long long *blk_off, const long long *flat, const long long *cols,
    const long long *seg, const double *data, const double *x, double *buf,
    double *ybuf, double *y, double *times)
{
    return BS_DISPATCH(seq_matvec_bsr, bs, nranks, n, nrows, nghost,
                       nblocks, ndata, home, row_off, ghost_off, ghost_src,
                       blk_off, flat, cols, seg, data, x, buf, ybuf, y,
                       times);
}

/* Triangular solves, rows in natural order: 0..n-1 for L, n-1..0 for
 * U.  Every stored block of a strictly lower (upper) row names an
 * earlier (later) row, so natural order is a topological order and the
 * sequential loop resolves dependencies exactly like the level-batched
 * oracle.
 *
 * Block triangular solves on column-major blocks: entry (r, c) of
 * block t is data[t*bs*bs + c*bs + r], the layout ilu_numeric_f64
 * writes.  A block product runs across the block's rows, four at a time
 * with a scalar tail (the 4-lane chunks are vectors), and each row's
 * column sum starts at 0.0 and adds c = 0..bs-1 in order.  Each entry
 * point calls its NAME_n with bs = 5, 4 or the runtime bs, as the SpMVs
 * do.  The _f32 loads are widened to double before any arithmetic. */
#define LOAD4_double(p) (*(const v4du *)(p))
#define LOAD4_float(p) __builtin_convertvector(*(const v4fu *)(p), v4d)

/* out OP blk xj for one bs x bs column-major block (OP: = or +=). */
#define BLOCK_GEMV(NAME, DTYPE, OP)                                     \
ALWAYS_INLINE void NAME(long long bs, const DTYPE *blk,                 \
    const double *xj, double *out)                                      \
{                                                                       \
    long long r = 0;                                                    \
    for (; r + 4 <= bs; r += 4) {                                       \
        v4d p = {0.0, 0.0, 0.0, 0.0};                                   \
        UNROLL for (long long c = 0; c < bs; ++c)                       \
            p += LOAD4_##DTYPE(blk + c * bs + r) * xj[c];               \
        *(v4du *)(out + r) OP p;                                        \
    }                                                                   \
    for (; r < bs; ++r) {                                               \
        double p = 0.0;                                                 \
        UNROLL for (long long c = 0; c < bs; ++c)                       \
            p += (double)blk[c * bs + r] * xj[c];                       \
        out[r] OP p;                                                    \
    }                                                                   \
}
BLOCK_GEMV(gemv_add_double, double, +=)
BLOCK_GEMV(gemv_add_float, float, +=)
BLOCK_GEMV(gemv_set_double, double, =)
BLOCK_GEMV(gemv_set_float, float, =)

#define LOWER_BSR(NAME, DTYPE)                                          \
ALWAYS_INLINE long long NAME##_n(long long n, long long bs,             \
    long long nnz, const long long *indptr, const long long *indices,   \
    const DTYPE *data, double *x)                                       \
{                                                                       \
    double acc[MAX_BS];                                                 \
    for (long long i = 0; i < n; ++i) {                                 \
        long long lo = indptr[i], hi = indptr[i + 1];                   \
        if (!ROW_IN_RANGE(lo, hi, nnz))                                 \
            return i;                                                   \
        for (long long r = 0; r < bs; ++r)                              \
            acc[r] = 0.0;                                               \
        for (long long t = lo; t < hi; ++t) {                           \
            if (!IN_RANGE(indices[t], n))                               \
                return i;                                               \
            gemv_add_##DTYPE(bs, data + t * bs * bs,                    \
                             x + indices[t] * bs, acc);                 \
        }                                                               \
        for (long long r = 0; r < bs; ++r)                              \
            x[i * bs + r] -= acc[r];                                    \
    }                                                                   \
    return -1;                                                          \
}                                                                       \
long long NAME(long long n, long long bs, long long nnz,                \
    const long long *indptr, const long long *indices,                  \
    const DTYPE *data, double *x)                                       \
{                                                                       \
    if (bs == 5)                                                        \
        return NAME##_n(n, 5, nnz, indptr, indices, data, x);           \
    if (bs == 4)                                                        \
        return NAME##_n(n, 4, nnz, indptr, indices, data, x);           \
    return NAME##_n(n, bs, nnz, indptr, indices, data, x);              \
}
LOWER_BSR(lower_solve_bsr_f64, double)
LOWER_BSR(lower_solve_bsr_f32, float)

#define UPPER_BSR(NAME, DTYPE)                                          \
ALWAYS_INLINE long long NAME##_n(long long n, long long bs,             \
    long long nnz, const long long *indptr, const long long *indices,   \
    const DTYPE *data, const DTYPE *inv_diag, double *x)                \
{                                                                       \
    double acc[MAX_BS];                                                 \
    double rhs[MAX_BS];                                                 \
    for (long long i = n - 1; i >= 0; --i) {                            \
        long long lo = indptr[i], hi = indptr[i + 1];                   \
        if (!ROW_IN_RANGE(lo, hi, nnz))                                 \
            return i;                                                   \
        for (long long r = 0; r < bs; ++r)                              \
            acc[r] = 0.0;                                               \
        for (long long t = lo; t < hi; ++t) {                           \
            if (!IN_RANGE(indices[t], n))                               \
                return i;                                               \
            gemv_add_##DTYPE(bs, data + t * bs * bs,                    \
                             x + indices[t] * bs, acc);                 \
        }                                                               \
        for (long long r = 0; r < bs; ++r)                              \
            rhs[r] = x[i * bs + r] - acc[r];                            \
        gemv_set_##DTYPE(bs, inv_diag + i * bs * bs, rhs, x + i * bs);  \
    }                                                                   \
    return -1;                                                          \
}                                                                       \
long long NAME(long long n, long long bs, long long nnz,                \
    const long long *indptr, const long long *indices,                  \
    const DTYPE *data, const DTYPE *inv_diag, double *x)                \
{                                                                       \
    if (bs == 5)                                                        \
        return NAME##_n(n, 5, nnz, indptr, indices, data, inv_diag, x); \
    if (bs == 4)                                                        \
        return NAME##_n(n, 4, nnz, indptr, indices, data, inv_diag, x); \
    return NAME##_n(n, bs, nnz, indptr, indices, data, inv_diag, x);    \
}
UPPER_BSR(upper_solve_bsr_f64, double)
UPPER_BSR(upper_solve_bsr_f32, float)

/* ---- ILU(k): symbolic and numeric factorisation --------------------
 * Status codes shared with repro.kernels (its ILU_OK and
 * ILU_BAD_COLUMN constants; it declines on the others). */
enum { ILU_OK = -1, ILU_BAD_COLUMN = -2, ILU_L_FULL = -3, ILU_U_FULL = -4,
       ILU_BAD_SLOT = -5 };

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

/* ---- block ILU numeric at the vector width -------------------------
 * The working row holds each block column-major, its columns padded to
 * ld lanes (4 for bs <= 4, a multiple of 8 above) that stay zero past
 * bs; L, U and the pivot inverses leave it column-major and unpadded,
 * the layout the block trisolves read.  Every entry is the sum the
 * row-major loop formed — 0.0, then j ascending — so the factors are
 * bitwise the same at every ISA level. */

/* One multiplier of row i: l = w_t d_k^-1, its bs columns of nv
 * vectors each held in registers while it is stored over w_t and then
 * subtracted, w_p -= l u_ks, from every block p of the row whose column
 * is that of block s of U's row k (pos[col] >= 0).  inv and U's blocks
 * are column-major and unpadded; an entry of them is broadcast. */
#define ILU_ELIMINATE(NAME, VT, VTU, MAXV)                              \
ALWAYS_INLINE void NAME(long long bs, long long nv, double *lik,        \
    const double *inv, const double *u_data, const long long *u_indices,\
    long long s0, long long s1, const long long *pos, double *w)        \
{                                                                       \
    const long long lanes = (long long)(sizeof(VT) / sizeof(double));   \
    const long long ld = nv * lanes, stride = bs * ld;                  \
    VT m[MAXV];                                                         \
    UNROLL for (long long c = 0; c < bs; ++c)                           \
        for (long long v = 0; v < nv; ++v) {                            \
            VT acc = {0};                                               \
            UNROLL for (long long j = 0; j < bs; ++j)                   \
                acc += *(const VTU *)(lik + j * ld + v * lanes)         \
                       * inv[c * bs + j];                               \
            m[c * nv + v] = acc;                                        \
        }                                                               \
    UNROLL for (long long c = 0; c < bs; ++c)                           \
        for (long long v = 0; v < nv; ++v)                              \
            *(VTU *)(lik + c * ld + v * lanes) = m[c * nv + v];         \
    for (long long s = s0; s < s1; ++s) {                               \
        long long p = pos[u_indices[s]];                                \
        if (p < 0)                                                      \
            continue;                                                   \
        const double *u = u_data + s * bs * bs;                         \
        double *wp = w + p * stride;                                    \
        UNROLL for (long long c = 0; c < bs; ++c)                       \
            for (long long v = 0; v < nv; ++v) {                        \
                VT acc = {0};                                           \
                UNROLL for (long long j = 0; j < bs; ++j)               \
                    acc += m[j * nv + v] * u[c * bs + j];               \
                *(VTU *)(wp + c * ld + v * lanes) -= acc;               \
            }                                                           \
    }                                                                   \
}
ILU_ELIMINATE(ilu_eliminate_v4, v4d, v4du, 4)
ILU_ELIMINATE(ilu_eliminate_v8, v8d, v8du, MAX_BS * MAX_BS / 8)

/* inv <- d^-1 by Gauss-Jordan elimination with partial pivoting; d is
 * column-major with leading dimension ld and is overwritten, inv is
 * column-major bs x bs.  Returns 0 when a pivot column is exactly zero
 * (the block is singular, where np.linalg.inv raises). */
static int block_inverse(double *d, long long ld, double *inv, long long bs)
{
#define D(r, c) d[(c) * ld + (r)]
#define INV(r, c) inv[(c) * bs + (r)]
    for (long long c = 0; c < bs; ++c)
        for (long long r = 0; r < bs; ++r)
            INV(r, c) = r == c ? 1.0 : 0.0;
    for (long long c = 0; c < bs; ++c) {
        long long piv = c;
        for (long long r = c + 1; r < bs; ++r)
            if (fabs(D(r, c)) > fabs(D(piv, c)))
                piv = r;
        if (D(piv, c) == 0.0)
            return 0;
        if (piv != c)
            for (long long j = 0; j < bs; ++j) {
                double t = D(c, j);
                D(c, j) = D(piv, j);
                D(piv, j) = t;
                t = INV(c, j);
                INV(c, j) = INV(piv, j);
                INV(piv, j) = t;
            }
        double p = D(c, c);
        for (long long j = 0; j < bs; ++j) {
            D(c, j) /= p;
            INV(c, j) /= p;
        }
        for (long long r = 0; r < bs; ++r) {
            double f = D(r, c);
            if (r == c || f == 0.0)
                continue;
            for (long long j = 0; j < bs; ++j) {
                D(r, j) -= f * D(c, j);
                INV(r, j) -= f * INV(c, j);
            }
        }
    }
    return 1;
#undef D
#undef INV
}

/* Numeric block ILU(k) on a fixed pattern, the IKJ row loop of
 * ilu_bsr_ref.  Row i is assembled in w, laid out [L | diagonal | U]
 * like the reference's working row, ld lanes a block column, through
 * the position map pos (column -> w slot, -1 elsewhere; arrives all -1
 * and is restored).  A's row-major values are assigned to their slots
 * (entries outside the pattern are dropped), then each lower entry k,
 * in ascending order, becomes the multiplier l = w_k d_k^-1, and row
 * k's U part is subtracted, l u_kj, wherever row i's pattern has
 * column j.
 *
 * A's entry t is block a_slots[t] of a_data (block t when a_slots is
 * NULL), so a principal submatrix is read through its slot map in
 * place.  With l32 set the factor is stored in float32, each value
 * rounded as it is stored, as a cast of the float64 factor rounds it:
 * L goes straight to l32 (no later row reads it), while U's rows and
 * the pivot inverses, which later rows read, are kept in float64 in
 * u_data / inv_diag and cast to u32 / inv32.  Returns ILU_OK,
 * ILU_BAD_COLUMN for a column of A outside [0, n) or ILU_BAD_SLOT for
 * a slot outside [0, a_nblocks) (both checked before they are used;
 * the call then returns at once, storing nothing of that row and
 * leaving its marks in pos), or the row whose pivot block is
 * singular. */
ALWAYS_INLINE long long ilu_rows(long long n, long long bs, long long ld,
    const long long *l_indptr, const long long *l_indices,
    const long long *u_indptr, const long long *u_indices,
    const long long *a_indptr, const long long *a_indices,
    const long long *a_slots, long long a_nblocks,
    const double *a_data, double *l_data, double *u_data,
    double *inv_diag, float *l32, float *u32, float *inv32,
    long long *pos, double *w)
{
    long long bsq = bs * bs, stride = bs * ld;
    long long status = ILU_OK;
    for (long long i = 0; i < n && status == ILU_OK; ++i) {
        long long ls = l_indptr[i], nl = l_indptr[i + 1] - ls;
        long long us = u_indptr[i], nu = u_indptr[i + 1] - us;
        for (long long t = 0; t < nl; ++t)
            pos[l_indices[ls + t]] = t;
        pos[i] = nl;
        for (long long t = 0; t < nu; ++t)
            pos[u_indices[us + t]] = nl + 1 + t;
        memset(w, 0, (size_t)((nl + 1 + nu) * stride) * sizeof *w);
        for (long long t = a_indptr[i]; t < a_indptr[i + 1]; ++t) {
            long long c = a_indices[t], b = a_slots ? a_slots[t] : t;
            if ((unsigned long long)c >= (unsigned long long)n) {
                status = ILU_BAD_COLUMN;
                break;
            }
            if ((unsigned long long)b >= (unsigned long long)a_nblocks) {
                status = ILU_BAD_SLOT;
                break;
            }
            long long p = pos[c];
            if (p >= 0)
                for (long long r = 0; r < bs; ++r)
                    for (long long j = 0; j < bs; ++j)
                        w[p * stride + j * ld + r] = a_data[b * bsq + r * bs + j];
        }
        if (status != ILU_OK)
            break;
        for (long long t = 0; t < nl; ++t) {
            long long k = l_indices[ls + t];
            double *lik = w + t * stride;
            if (ld == 4) {
                ilu_eliminate_v4(bs, 1, lik, inv_diag + k * bsq, u_data,
                                 u_indices, u_indptr[k], u_indptr[k + 1],
                                 pos, w);
            } else {
                ilu_eliminate_v8(bs, ld / 8, lik, inv_diag + k * bsq, u_data,
                                 u_indices, u_indptr[k], u_indptr[k + 1],
                                 pos, w);
            }
        }
        if (!block_inverse(w + nl * stride, ld, inv_diag + i * bsq, bs))
            status = i;
        if (inv32)
            for (long long e = 0; e < bsq; ++e)
                inv32[i * bsq + e] = (float)inv_diag[i * bsq + e];
        for (long long t = 0; t < nl; ++t)
            for (long long c = 0; c < bs; ++c) {
                const double *src = w + t * stride + c * ld;
                if (l32)
                    for (long long r = 0; r < bs; ++r)
                        l32[(ls + t) * bsq + c * bs + r] = (float)src[r];
                else
                    memcpy(l_data + (ls + t) * bsq + c * bs, src,
                           (size_t)bs * sizeof *w);
            }
        for (long long t = 0; t < nu; ++t)
            for (long long c = 0; c < bs; ++c)
                memcpy(u_data + (us + t) * bsq + c * bs,
                       w + (nl + 1 + t) * stride + c * ld,
                       (size_t)bs * sizeof *w);
        if (u32)
            for (long long e = us * bsq; e < (us + nu) * bsq; ++e)
                u32[e] = (float)u_data[e];
        for (long long t = 0; t < nl; ++t)
            pos[l_indices[ls + t]] = -1;
        pos[i] = -1;
        for (long long t = 0; t < nu; ++t)
            pos[u_indices[us + t]] = -1;
    }
    return status;
}

/* ilu_rows with bs and ld constants for the Euler Jacobians' block
 * sizes; w holds the widest row at the widest padding: width * bs * ld
 * doubles, ld bs rounded up to a multiple of 8 lanes. */
ALWAYS_INLINE long long ilu_numeric(long long n, long long bs,
    const long long *l_indptr, const long long *l_indices,
    const long long *u_indptr, const long long *u_indices,
    const long long *a_indptr, const long long *a_indices,
    const long long *a_slots, long long a_nblocks,
    const double *a_data, double *l_data, double *u_data,
    double *inv_diag, float *l32, float *u32, float *inv32,
    long long *pos, double *w)
{
#define ILU_ROWS(BS, LD)                                                \
    ilu_rows(n, BS, LD, l_indptr, l_indices, u_indptr, u_indices,       \
             a_indptr, a_indices, a_slots, a_nblocks, a_data, l_data,   \
             u_data, inv_diag, l32, u32, inv32, pos, w)
    if (bs == 5)
        return ILU_ROWS(5, 8);
    if (bs == 4)
        return ILU_ROWS(4, 4);
    /* bs >= 1 spares gcc a false -Wmaybe-uninitialized on the
     * multiplier's columns m[] */
    if (bs >= 1 && bs < 4)
        return ILU_ROWS(bs, 4);
    return ILU_ROWS(bs, (bs + 7) / 8 * 8);
#undef ILU_ROWS
}

long long ilu_numeric_f64(long long n, long long bs,
    const long long *l_indptr, const long long *l_indices,
    const long long *u_indptr, const long long *u_indices,
    const long long *a_indptr, const long long *a_indices,
    const long long *a_slots, long long a_nblocks,
    const double *a_data, double *l_data, double *u_data,
    double *inv_diag, long long *pos, double *w)
{
    return ilu_numeric(n, bs, l_indptr, l_indices, u_indptr, u_indices,
                       a_indptr, a_indices, a_slots, a_nblocks, a_data,
                       l_data, u_data, inv_diag, NULL, NULL, NULL, pos, w);
}

/* float32 storage: scratch holds U's float64 blocks, then the pivot
 * inverses', (u_indptr[n] + n) * bs * bs doubles. */
long long ilu_numeric_f32(long long n, long long bs,
    const long long *l_indptr, const long long *l_indices,
    const long long *u_indptr, const long long *u_indices,
    const long long *a_indptr, const long long *a_indices,
    const long long *a_slots, long long a_nblocks,
    const double *a_data, float *l_data, float *u_data,
    float *inv_diag, double *scratch, long long *pos, double *w)
{
    return ilu_numeric(n, bs, l_indptr, l_indices, u_indptr, u_indices,
                       a_indptr, a_indices, a_slots, a_nblocks, a_data,
                       NULL, scratch, scratch + u_indptr[n] * bs * bs,
                       l_data, u_data, inv_diag, pos, w);
}

/* ---- Rusanov face flux over a block of edges ----------------------
 * The two flux kernels work on blocks of EDGE_BLOCK edges: the block's
 * endpoints are checked, its states gathered into struct-of-arrays
 * stack buffers (component c of the block's edge k at [c][k]), the
 * face flux is evaluated lane by lane and the block is scattered in
 * edge order.  Every lane is one edge's scalar expression, so gcc may
 * run the lane loops at the vector width without changing a bit:
 * -ffp-contract=off forbids FMA and nothing is reassociated.
 * -fno-math-errno lets sqrt vectorise (it is correctly rounded either
 * way); the max wavespeed is a select, which vectorises as a blend. */
#define EDGE_BLOCK 64
typedef double lanes_t[EDGE_BLOCK];

/* F = (F(l)+F(r))/2 - lam/2 (r-l), lam = max wavespeed, for the nb
 * edges of a block whose area vectors start at s.  Scalar operation
 * order mirrors the numpy expressions in repro.euler.fluxes statement
 * for statement; differences vs the oracle come only from SIMD pairing
 * of the length-3 dot products (ULP-level).  Both the first-order
 * scatter and the fused second-order kernel below call these, so the
 * two orders share one flux expression. */
static inline void rusanov_face_inc(int nb, lanes_t *restrict l,
    lanes_t *restrict r, const double *restrict s, double beta,
    lanes_t *restrict f)
{
    for (int k = 0; k < nb; ++k) {
        double s0 = s[k * 3], s1 = s[k * 3 + 1], s2 = s[k * 3 + 2];
        double unl = l[1][k] * s0 + l[2][k] * s1 + l[3][k] * s2;
        double unr = r[1][k] * s0 + r[2][k] * s1 + r[3][k] * s2;
        double ss = s0 * s0 + s1 * s1 + s2 * s2;
        double wsl = fabs(unl) + sqrt(unl * unl + beta * ss);
        double wsr = fabs(unr) + sqrt(unr * unr + beta * ss);
        double lam = wsl >= wsr ? wsl : wsr;
        f[0][k] = 0.5 * (beta * unl + beta * unr)
                - 0.5 * lam * (r[0][k] - l[0][k]);
        f[1][k] = 0.5 * ((l[1][k] * unl + l[0][k] * s0)
                       + (r[1][k] * unr + r[0][k] * s0))
                - 0.5 * lam * (r[1][k] - l[1][k]);
        f[2][k] = 0.5 * ((l[2][k] * unl + l[0][k] * s1)
                       + (r[2][k] * unr + r[0][k] * s1))
                - 0.5 * lam * (r[2][k] - l[2][k]);
        f[3][k] = 0.5 * ((l[3][k] * unl + l[0][k] * s2)
                       + (r[3][k] * unr + r[0][k] * s2))
                - 0.5 * lam * (r[3][k] - l[3][k]);
    }
}

static inline void rusanov_face_comp(int nb, lanes_t *restrict l,
    lanes_t *restrict r, const double *restrict s, double gamma,
    lanes_t *restrict f)
{
    double g1 = gamma - 1.0;
    for (int k = 0; k < nb; ++k) {
        double s0 = s[k * 3], s1 = s[k * 3 + 1], s2 = s[k * 3 + 2];
        double rhol = l[0][k], rhor = r[0][k];
        double vl0 = l[1][k] / rhol, vl1 = l[2][k] / rhol;
        double vl2 = l[3][k] / rhol;
        double vr0 = r[1][k] / rhor, vr1 = r[2][k] / rhor;
        double vr2 = r[3][k] / rhor;
        double kel = 0.5 * rhol * (vl0 * vl0 + vl1 * vl1 + vl2 * vl2);
        double ker = 0.5 * rhor * (vr0 * vr0 + vr1 * vr1 + vr2 * vr2);
        double pl = g1 * (l[4][k] - kel);
        double pr = g1 * (r[4][k] - ker);
        double unl = vl0 * s0 + vl1 * s1 + vl2 * s2;
        double unr = vr0 * s0 + vr1 * s1 + vr2 * s2;
        double smag = sqrt(s0 * s0 + s1 * s1 + s2 * s2);
        double al2 = gamma * pl / rhol;
        double ar2 = gamma * pr / rhor;
        double cl = sqrt(al2 > 0.0 ? al2 : 0.0);
        double cr = sqrt(ar2 > 0.0 ? ar2 : 0.0);
        double wsl = fabs(unl) + cl * smag;
        double wsr = fabs(unr) + cr * smag;
        double lam = wsl >= wsr ? wsl : wsr;
        f[0][k] = 0.5 * (rhol * unl + rhor * unr)
                - 0.5 * lam * (r[0][k] - l[0][k]);
        f[1][k] = 0.5 * ((l[1][k] * unl + pl * s0)
                       + (r[1][k] * unr + pr * s0))
                - 0.5 * lam * (r[1][k] - l[1][k]);
        f[2][k] = 0.5 * ((l[2][k] * unl + pl * s1)
                       + (r[2][k] * unr + pr * s1))
                - 0.5 * lam * (r[2][k] - l[2][k]);
        f[3][k] = 0.5 * ((l[3][k] * unl + pl * s2)
                       + (r[3][k] * unr + pr * s2))
                - 0.5 * lam * (r[3][k] - l[3][k]);
        f[4][k] = 0.5 * ((l[4][k] + pl) * unl + (r[4][k] + pr) * unr)
                - 0.5 * lam * (r[4][k] - l[4][k]);
    }
}

/* The block [m0, m0 + nb): the index of its first edge with an
 * endpoint outside [0, n), -1 when there is none. */
static inline long long block_bad_edge(long long m0, int nb,
    const long long *e0, const long long *e1, long long n)
{
    for (int k = 0; k < nb; ++k)
        if (!ENDPOINTS_IN_RANGE(e0[m0 + k], e1[m0 + k], n))
            return m0 + k;
    return -1;
}

/* The block's face fluxes f into both endpoint accumulators, in edge
 * order (the bincount order). */
static inline void block_scatter(long long m0, int nb, int nc,
    const long long *e0, const long long *e1, lanes_t *f,
    double *out_a, double *out_b)
{
    for (int k = 0; k < nb; ++k) {
        double *pa = out_a + e0[m0 + k] * nc;
        double *pb = out_b + e1[m0 + k] * nc;
        for (int c = 0; c < nc; ++c) {
            pa[c] += f[c][k];
            pb[c] += f[c][k];
        }
    }
}

#define BLOCK_SIZE(m0, ne)                                              \
    ((int)((ne) - (m0) < EDGE_BLOCK ? (ne) - (m0) : EDGE_BLOCK))

/* ---- fused Rusanov flux + two-target edge scatter -----------------
 * The face flux of precomputed edge states, block by block. */
#define RUSANOV_SCATTER(NAME, NC, FACE)                                 \
long long NAME(long long ne, long long n, const long long *e0,          \
    const long long *e1, const double *ql, const double *qr,            \
    const double *s, double param, double *out_a, double *out_b)        \
{                                                                       \
    for (long long m0 = 0; m0 < ne; m0 += EDGE_BLOCK) {                 \
        int nb = BLOCK_SIZE(m0, ne);                                    \
        long long bad = block_bad_edge(m0, nb, e0, e1, n);              \
        if (bad >= 0)                                                   \
            return bad;                                                 \
        lanes_t l[NC], r[NC], f[NC];                                    \
        for (int k = 0; k < nb; ++k)                                    \
            for (int c = 0; c < NC; ++c) {                              \
                l[c][k] = ql[(m0 + k) * NC + c];                        \
                r[c][k] = qr[(m0 + k) * NC + c];                        \
            }                                                           \
        FACE(nb, l, r, s + m0 * 3, param, f);                           \
        block_scatter(m0, nb, NC, e0, e1, f, out_a, out_b);             \
    }                                                                   \
    return -1;                                                          \
}
RUSANOV_SCATTER(rusanov_scatter_inc, 4, rusanov_face_inc)
RUSANOV_SCATTER(rusanov_scatter_comp, 5, rusanov_face_comp)

/* ---- first-order Jacobian: flux Jacobians + slot scatter -----------
 * Twin of EdgeFVDiscretization.assemble_jacobian's numpy path, bitwise:
 * every scalar is the expression repro.euler.fluxes evaluates, in its
 * order.  Two numpy idioms are mirrored exactly rather than rewritten:
 * np.einsum("ij,ij->i") over a length-3 axis, whose SIMD kernel adds
 * lanes 0 and 2, then lane 1 and the zero-filled tail, then the zeroed
 * output (dot3_einsum, signed zeros included), and np.maximum, which
 * keeps a NaN and returns its second operand on a tie (np_maximum). */
static inline double dot3_einsum(const double *a, const double *b)
{
    return 0.0 + ((a[0] * b[0] + a[2] * b[2]) + (a[1] * b[1] + 0.0));
}

static inline double np_maximum(double a, double b)
{
    return (a > b || a != a) ? a : b;
}

/* A = dF/dq of incompressible_flux_jacobian into a[16]; returns
 * incompressible_wavespeed of the same state. */
static inline double flux_jacobian_inc(const double *q, const double *s,
    double beta, double *a)
{
    double un = dot3_einsum(q + 1, s);
    a[0] = 0.0;
    for (int c = 0; c < 3; ++c)
        a[1 + c] = beta * s[c];
    for (int r = 0; r < 3; ++r) {
        a[(1 + r) * 4] = s[r];
        for (int c = 0; c < 3; ++c)
            a[(1 + r) * 4 + 1 + c] = q[1 + r] * s[c];
        a[(1 + r) * 4 + 1 + r] += un;
    }
    return fabs(un) + sqrt(un * un + beta * dot3_einsum(s, s));
}

/* A = dF/dq of compressible_flux_jacobian into a[25]; returns
 * compressible_wavespeed of the same state. */
static inline double flux_jacobian_comp(const double *q, const double *s,
    double gamma, double *a)
{
    double g1 = gamma - 1.0;
    double rho = q[0];
    double v[3] = {q[1] / rho, q[2] / rho, q[3] / rho};
    double vv = dot3_einsum(v, v);
    double p = g1 * (q[4] - 0.5 * rho * vv);
    double un = dot3_einsum(v, s);
    double phi = 0.5 * g1 * vv;
    double h = (q[4] + p) / rho;
    a[0] = 0.0;
    a[4] = 0.0;
    for (int c = 0; c < 3; ++c)
        a[1 + c] = s[c];
    for (int r = 0; r < 3; ++r) {
        double *row = a + (1 + r) * 5;
        row[0] = phi * s[r] - v[r] * un;
        for (int c = 0; c < 3; ++c)
            row[1 + c] = v[r] * s[c] - g1 * v[c] * s[r];
        row[1 + r] += un;
        row[4] = g1 * s[r];
    }
    a[20] = (phi - h) * un;
    for (int c = 0; c < 3; ++c)
        a[21 + c] = h * s[c] - g1 * v[c] * un;
    a[24] = gamma * un;
    double c2 = gamma * p / rho;
    return fabs(un) + sqrt(np_maximum(c2, 0.0)) * sqrt(dot3_einsum(s, s));
}

/* Per edge (i, j): the Rusanov Jacobians with frozen lam,
 * jl = (A(q_i) + lam I) / 2 and jr = (A(q_j) - lam I) / 2 — the
 * off-diagonal entries take lam * 0 as the oracle's eye product does —
 * then jr into block ij_slots[m] and -jl into ji_slots[m] of data, jl
 * into acc_a[i] and jr into acc_b[j] in edge order (np.bincount's,
 * so each accumulator is bitwise one segment_sum), and lam into
 * lam_a[i] and lam_b[j] the same way (the edge sums of
 * timestep_shift).  Endpoints are checked against [0, n) and
 * slots against [0, nnzb) before anything is written for an edge. */
#define RUSANOV_JACOBIAN(NAME, NC, JAC)                                 \
long long NAME(long long ne, long long n, long long nnzb,               \
    const long long *e0, const long long *e1,                           \
    const long long *ij_slots, const long long *ji_slots,               \
    const double *q, const double *s, double param, double *data,       \
    double *acc_a, double *acc_b, double *lam_a, double *lam_b)         \
{                                                                       \
    for (long long m = 0; m < ne; ++m) {                                \
        long long i = e0[m], j = e1[m];                                 \
        long long sij = ij_slots[m], sji = ji_slots[m];                 \
        if (!ENDPOINTS_IN_RANGE(i, j, n)                                \
            || !ENDPOINTS_IN_RANGE(sij, sji, nnzb))                     \
            return m;                                                   \
        double al[NC * NC], ar[NC * NC];                                \
        double lam = np_maximum(JAC(q + i * NC, s + m * 3, param, al),  \
                                JAC(q + j * NC, s + m * 3, param, ar)); \
        double lam0 = lam * 0.0;                                        \
        lam_a[i] += lam;                                                \
        lam_b[j] += lam;                                                \
        double *dij = data + sij * (NC * NC);                           \
        double *dji = data + sji * (NC * NC);                           \
        double *pa = acc_a + i * (NC * NC);                             \
        double *pb = acc_b + j * (NC * NC);                             \
        for (int r = 0; r < NC; ++r)                                    \
            for (int c = 0; c < NC; ++c) {                              \
                int k = r * NC + c;                                     \
                double e = r == c ? lam : lam0;                         \
                double jl = 0.5 * (al[k] + e);                          \
                double jr = 0.5 * (ar[k] - e);                          \
                dij[k] = jr;                                            \
                dji[k] = -jl;                                           \
                pa[k] += jl;                                            \
                pb[k] += jr;                                            \
            }                                                           \
    }                                                                   \
    return -1;                                                          \
}
RUSANOV_JACOBIAN(rusanov_jacobian_scatter_inc, 4, flux_jacobian_inc)
RUSANOV_JACOBIAN(rusanov_jacobian_scatter_comp, 5, flux_jacobian_comp)

/* ---- boundary closure: wall flux + far-field Rusanov flux ---------
 * Twin of EdgeFVDiscretization._add_boundary_residual, bitwise: the
 * family's _wall_flux and rusanov_flux against the frozen freestream,
 * each scalar the numpy expression in its order, with dot3_einsum and
 * np_maximum where numpy calls einsum and maximum.  The flux functions
 * return the wave speed of the same state. */
static inline void wall_flux_inc(const double *q, const double *nv,
    double beta, double *f)
{
    (void)beta;
    f[0] = 0.0;
    for (int c = 0; c < 3; ++c)
        f[1 + c] = q[0] * nv[c];
}

static inline void wall_flux_comp(const double *q, const double *nv,
    double gamma, double *f)
{
    double ke = 0.5 * dot3_einsum(q + 1, q + 1) / q[0];
    double p = (gamma - 1.0) * (q[4] - ke);
    f[0] = 0.0;
    for (int c = 0; c < 3; ++c)
        f[1 + c] = p * nv[c];
    f[4] = 0.0;
}

static inline double flux_inc(const double *q, const double *s,
    double beta, double *f)
{
    double un = dot3_einsum(q + 1, s);
    f[0] = beta * un;
    for (int c = 0; c < 3; ++c)
        f[1 + c] = q[1 + c] * un + q[0] * s[c];
    return fabs(un) + sqrt(un * un + beta * dot3_einsum(s, s));
}

static inline double flux_comp(const double *q, const double *s,
    double gamma, double *f)
{
    double g1 = gamma - 1.0;
    double rho = q[0];
    double v[3] = {q[1] / rho, q[2] / rho, q[3] / rho};
    double p = g1 * (q[4] - 0.5 * rho * dot3_einsum(v, v));
    double un = dot3_einsum(v, s);
    f[0] = rho * un;
    for (int c = 0; c < 3; ++c)
        f[1 + c] = q[1 + c] * un + p * s[c];
    f[4] = (q[4] + p) * un;
    double c2 = gamma * p / rho;
    return fabs(un) + sqrt(np_maximum(c2, 0.0)) * sqrt(dot3_einsum(s, s));
}

/* Wall entry k adds the wall flux through normals[wall_idx[k]] to row
 * wall_rows[k] of r, zeros included (a -0.0 entry becomes +0.0, as
 * numpy's add makes it); far-field entry k then adds
 * (F(q) + F(qinf)) / 2 - lam / 2 (qinf - q).  A row appears once in
 * each set (BoundaryCondition.row_sets).  Every row is checked against
 * [0, n) and every normal index against [0, nb) before anything is
 * written: on a bad one r is untouched and the position of the first
 * offending entry (the wall entries first) is returned. */
#define BOUNDARY_CLOSURE(NAME, NC, WALL, FLUX)                          \
long long NAME(long long n, long long nb, long long nwall,              \
    const long long *wall_rows, const long long *wall_idx,              \
    long long nfar, const long long *far_rows,                          \
    const long long *far_idx, const double *q, const double *normals,   \
    const double *qinf, double param, double *r)                        \
{                                                                       \
    for (long long k = 0; k < nwall; ++k)                               \
        if (!IN_RANGE(wall_rows[k], n) || !IN_RANGE(wall_idx[k], nb))   \
            return k;                                                   \
    for (long long k = 0; k < nfar; ++k)                                \
        if (!IN_RANGE(far_rows[k], n) || !IN_RANGE(far_idx[k], nb))     \
            return nwall + k;                                           \
    for (long long k = 0; k < nwall; ++k) {                             \
        double f[NC];                                                   \
        WALL(q + wall_rows[k] * NC, normals + wall_idx[k] * 3, param, f);\
        double *rk = r + wall_rows[k] * NC;                             \
        for (int c = 0; c < NC; ++c)                                    \
            rk[c] += f[c];                                              \
    }                                                                   \
    for (long long k = 0; k < nfar; ++k) {                              \
        const double *qi = q + far_rows[k] * NC;                        \
        const double *sk = normals + far_idx[k] * 3;                    \
        double fl[NC], fr[NC];                                          \
        double lam = np_maximum(FLUX(qi, sk, param, fl),                \
                                FLUX(qinf, sk, param, fr));             \
        double *rk = r + far_rows[k] * NC;                              \
        for (int c = 0; c < NC; ++c)                                    \
            rk[c] += 0.5 * (fl[c] + fr[c])                              \
                   - 0.5 * lam * (qinf[c] - qi[c]);                     \
    }                                                                   \
    return -1;                                                          \
}
BOUNDARY_CLOSURE(boundary_closure_inc, 4, wall_flux_inc, flux_inc)
BOUNDARY_CLOSURE(boundary_closure_comp, 5, wall_flux_comp, flux_comp)

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
 * One loop over blocks of edges: per block, dx from the vertex
 * coordinates and the central and two one-sided slopes (gathered per
 * edge), the limited states (one lane loop per limiter), the face flux
 * and the two-target scatter, with no per-edge array in between.  The
 * limited half-slope copies the scalar expression order of
 * reconstruct_edge_states, _van_albada and _minmod, as a select on
 * sl * dq > 0 rather than a branch, so its lane loop vectorises; the
 * gradient dot products are sequential where einsum may pair, so the
 * result is ULP-bounded against the numpy composition, like
 * rusanov_scatter. */
/* the codes of repro.kernels._LIMITERS */
enum { LIMITER_NONE = 0, LIMITER_VAN_ALBADA = 1, LIMITER_MINMOD = 2 };

static inline double half_slope_none(double sl, double dq)
{
    return 0.5 * (sl + dq) * 0.5;
}

static inline double half_slope_van_albada(double sl, double dq)
{
    const double eps = 1e-12;
    double num = (sl * sl + eps) * dq + (dq * dq + eps) * sl;
    double den = sl * sl + dq * dq + 2 * eps;
    return sl * dq > 0.0 ? 0.5 * (num / den) : 0.0;
}

static inline double half_slope_minmod(double sl, double dq)
{
    return sl * dq > 0.0 ? 0.5 * (fabs(sl) < fabs(dq) ? sl : dq) : 0.0;
}

/* l = qi + half(sl, dq), r = qj - half(sr, dq) with dq = qj - qi, for
 * the nb lanes of nc components. */
#define MUSCL_STATES(NAME, HALF)                                        \
static inline void NAME(int nb, int nc, lanes_t *restrict qi,           \
    lanes_t *restrict qj, lanes_t *restrict sl, lanes_t *restrict sr,   \
    lanes_t *restrict l, lanes_t *restrict r)                           \
{                                                                       \
    for (int c = 0; c < nc; ++c)                                        \
        for (int k = 0; k < nb; ++k) {                                  \
            double dq = qj[c][k] - qi[c][k];                            \
            l[c][k] = qi[c][k] + HALF(sl[c][k], dq);                    \
            r[c][k] = qj[c][k] - HALF(sr[c][k], dq);                    \
        }                                                               \
}
MUSCL_STATES(muscl_states_none, half_slope_none)
MUSCL_STATES(muscl_states_van_albada, half_slope_van_albada)
MUSCL_STATES(muscl_states_minmod, half_slope_minmod)

#define MUSCL_RUSANOV_SCATTER(NAME, NC, FACE)                           \
long long NAME(long long ne, long long n, const long long *e0,          \
    const long long *e1, const double *q, const double *grad,           \
    const double *coords, const double *s, int limiter, double param,   \
    double *out_a, double *out_b)                                       \
{                                                                       \
    for (long long m0 = 0; m0 < ne; m0 += EDGE_BLOCK) {                 \
        int nb = BLOCK_SIZE(m0, ne);                                    \
        long long bad = block_bad_edge(m0, nb, e0, e1, n);              \
        if (bad >= 0)                                                   \
            return bad;                                                 \
        lanes_t qi[NC], qj[NC], sl[NC], sr[NC], l[NC], r[NC], f[NC];    \
        for (int k = 0; k < nb; ++k) {                                  \
            long long i = e0[m0 + k], j = e1[m0 + k];                   \
            const double *xi = coords + i * 3;                          \
            const double *xj = coords + j * 3;                          \
            double dx0 = xj[0] - xi[0];                                 \
            double dx1 = xj[1] - xi[1];                                 \
            double dx2 = xj[2] - xi[2];                                 \
            const double *gi = grad + i * (NC * 3);                     \
            const double *gj = grad + j * (NC * 3);                     \
            for (int c = 0; c < NC; ++c) {                              \
                double a = q[i * NC + c], b = q[j * NC + c];            \
                double dq = b - a;                                      \
                double gl = gi[c * 3] * dx0 + gi[c * 3 + 1] * dx1       \
                          + gi[c * 3 + 2] * dx2;                        \
                double gr = gj[c * 3] * dx0 + gj[c * 3 + 1] * dx1       \
                          + gj[c * 3 + 2] * dx2;                        \
                qi[c][k] = a;                                           \
                qj[c][k] = b;                                           \
                sl[c][k] = 2.0 * gl - dq;                               \
                sr[c][k] = 2.0 * gr - dq;                               \
            }                                                           \
        }                                                               \
        if (limiter == LIMITER_NONE)                                    \
            muscl_states_none(nb, NC, qi, qj, sl, sr, l, r);            \
        else if (limiter == LIMITER_VAN_ALBADA)                         \
            muscl_states_van_albada(nb, NC, qi, qj, sl, sr, l, r);      \
        else                                                            \
            muscl_states_minmod(nb, NC, qi, qj, sl, sr, l, r);          \
        FACE(nb, l, r, s + m0 * 3, param, f);                           \
        block_scatter(m0, nb, NC, e0, e1, f, out_a, out_b);             \
    }                                                                   \
    return -1;                                                          \
}
MUSCL_RUSANOV_SCATTER(muscl_rusanov_scatter_inc, 4, rusanov_face_inc)
MUSCL_RUSANOV_SCATTER(muscl_rusanov_scatter_comp, 5, rusanov_face_comp)

/* ---- the multilevel k-way partitioner -----------------------------
 * Twins of repro.partition's numpy phases, label for label: heavy-edge
 * matching, contraction to the coarse CSR, FM refinement with its
 * rebalance, and repair_contiguity.  The random draws stay in numpy (a
 * level's visit order is an argument), and every tie is broken as the
 * numpy phase breaks it: the first maximum in adjacency order
 * (np.argmax), the lowest part, the lowest component id, and
 * candidates in ascending (key, vertex, part) order, the order a
 * stable argsort gives candidates listed by vertex, then part.  Weights
 * are integers; where numpy sums them in float64 these sum in double,
 * exact below 2**53 in any order.  The adjacency is symmetric, as
 * Graph's contract has it.  Each kernel checks every adjacency entry,
 * label and partner against its extent before it moves anything and
 * returns the first offending vertex, else -1. */

/* The first vertex with a neighbour outside [0, n), or a label outside
 * [0, nparts) when labels is given; -1 when there is none. */
static long long graph_bad_vertex(long long n, const long long *xadj,
    const long long *adjncy, const long long *labels, long long nparts)
{
    for (long long v = 0; v < n; ++v) {
        if (labels && !IN_RANGE(labels[v], nparts))
            return v;
        for (long long t = xadj[v]; t < xadj[v + 1]; ++t)
            if (!IN_RANGE(adjncy[t], n))
                return v;
    }
    return -1;
}

/* Heavy-edge matching: each vertex of order, unless matched already,
 * takes its unmatched neighbour of heaviest edge, the first such in
 * its adjacency, or itself. */
long long hem_match_i64(long long n, const long long *xadj,
    const long long *adjncy, const long long *ewgt, const long long *order,
    long long *match)
{
    long long bad = graph_bad_vertex(n, xadj, adjncy, NULL, 0);
    if (bad >= 0)
        return bad;
    for (long long k = 0; k < n; ++k) {
        if (!IN_RANGE(order[k], n))
            return k;
        match[k] = -1;
    }
    for (long long k = 0; k < n; ++k) {
        long long v = order[k];
        if (match[v] >= 0)
            continue;
        long long u = -1, wu = 0;
        for (long long t = xadj[v]; t < xadj[v + 1]; ++t) {
            long long x = adjncy[t];
            if (match[x] < 0 && (u < 0 || ewgt[t] > wu)) {
                u = x;
                wu = ewgt[t];
            }
        }
        if (u < 0)
            u = v;
        match[v] = u;
        match[u] = v;
    }
    return -1;
}

/* The coarse graph of a matching.  Coarse vertex c is the rank of
 * min(v, match[v]) among those minima; its row lists each coarse
 * neighbour once, ascending, weighted by the sum over the fine arcs
 * from the lower coarse end (graph_from_edges' merge of the arcs with
 * cs < cd, symmetrised).  cxadj holds n + 1 entries, cadjncy and cewgt
 * one per fine arc; *nc receives the coarse vertex count.  work: 5 n +
 * 2 + 2 m longs (m = xadj[n]). */
long long contract_i64(long long n, const long long *xadj,
    const long long *adjncy, const long long *vwgt, const long long *ewgt,
    const long long *match, long long *f2c, long long *nc_out,
    long long *cxadj, long long *cadjncy, long long *cvwgt,
    long long *cewgt, long long *work)
{
    long long bad = graph_bad_vertex(n, xadj, adjncy, NULL, 0);
    if (bad >= 0)
        return bad;
    long long m = xadj[n];
    long long *id = work, *start = id + n, *members = start + n + 1;
    long long *up_ptr = members + n, *acc = up_ptr + n + 1;
    long long *up_adj = acc + n, *up_w = up_adj + m;
    for (long long v = 0; v < n; ++v) {
        if (!IN_RANGE(match[v], n))
            return v;
        id[v] = -1;
    }
    for (long long v = 0; v < n; ++v)
        id[match[v] < v ? match[v] : v] = 0;
    long long nc = 0;
    for (long long v = 0; v < n; ++v)
        if (id[v] == 0)
            id[v] = nc++;
    for (long long v = 0; v < n; ++v)
        f2c[v] = id[match[v] < v ? match[v] : v];
    *nc_out = nc;
    /* members of each coarse vertex, ascending; coarse weights */
    for (long long c = 0; c <= nc; ++c)
        start[c] = 0;
    for (long long c = 0; c < nc; ++c)
        cvwgt[c] = 0;
    for (long long v = 0; v < n; ++v) {
        ++start[f2c[v] + 1];
        cvwgt[f2c[v]] += vwgt[v];
    }
    for (long long c = 0; c < nc; ++c) {
        start[c + 1] += start[c];
        up_ptr[c] = start[c];
    }
    for (long long v = 0; v < n; ++v)
        members[up_ptr[f2c[v]]++] = v;
    /* each coarse row's neighbours above it, ascending, with weights;
     * id is the stamp now: id[cd] == c once row c has met cd */
    for (long long v = 0; v < n; ++v)
        id[v] = -1;
    long long nup = 0;
    for (long long c = 0; c < nc; ++c) {
        up_ptr[c] = nup;
        for (long long k = start[c]; k < start[c + 1]; ++k) {
            long long s = members[k];
            for (long long t = xadj[s]; t < xadj[s + 1]; ++t) {
                long long cd = f2c[adjncy[t]];
                if (cd <= c)
                    continue;
                if (id[cd] != c) {
                    id[cd] = c;
                    acc[cd] = 0;
                    /* insertion into the row's ascending list */
                    long long q = nup++;
                    for (; q > up_ptr[c] && up_adj[q - 1] > cd; --q)
                        up_adj[q] = up_adj[q - 1];
                    up_adj[q] = cd;
                }
                acc[cd] += ewgt[t];
            }
        }
        for (long long k = up_ptr[c]; k < nup; ++k)
            up_w[k] = acc[up_adj[k]];
    }
    up_ptr[nc] = nup;
    /* symmetrise: row c is its neighbours below it (in ascending order
     * of the rows that list c above them), then those above it */
    for (long long c = 0; c <= nc; ++c)
        cxadj[c] = 0;
    for (long long k = 0; k < nup; ++k)
        ++cxadj[up_adj[k] + 1];
    for (long long c = 0; c < nc; ++c) {
        cxadj[c + 1] += cxadj[c] + (up_ptr[c + 1] - up_ptr[c]);
        start[c] = cxadj[c];
    }
    for (long long c = 0; c < nc; ++c) {
        for (long long k = up_ptr[c]; k < up_ptr[c + 1]; ++k) {
            cadjncy[start[c]] = up_adj[k];
            cewgt[start[c]++] = up_w[k];
        }
        for (long long k = up_ptr[c]; k < up_ptr[c + 1]; ++k) {
            long long d = up_adj[k];
            cadjncy[start[d]] = c;
            cewgt[start[d]++] = up_w[k];
        }
    }
    return -1;
}

/* The edge weight from v to each part its neighbours hold, summed in
 * adjacency order into acc; each such part once in touched, in order of
 * first appearance.  stamp[p] == tick marks the parts met this visit. */
static long long vertex_part_weights(long long v, const long long *xadj,
    const long long *adjncy, const long long *ewgt, const long long *labels,
    long long tick, long long *stamp, double *acc, long long *touched)
{
    long long nt = 0;
    for (long long t = xadj[v]; t < xadj[v + 1]; ++t) {
        long long p = labels[adjncy[t]];
        if (stamp[p] != tick) {
            stamp[p] = tick;
            acc[p] = 0.0;
            touched[nt++] = p;
        }
        acc[p] += (double)ewgt[t];
    }
    return nt;
}

/* Does candidate a come before b: ascending key, then vertex, then
 * part (no two candidates share a vertex and a part). */
static inline int cand_before(long long a, long long b, const double *key,
    const long long *cv, const long long *cp)
{
    if (key[a] != key[b])
        return key[a] < key[b];
    if (cv[a] != cv[b])
        return cv[a] < cv[b];
    return cp[a] < cp[b];
}

/* idx = 0 .. count-1 in candidate order: a bottom-up merge sort through
 * tmp (count longs); returns the array holding the result. */
static long long *sort_candidates(long long count, const double *key,
    const long long *cv, const long long *cp, long long *idx, long long *tmp)
{
    for (long long k = 0; k < count; ++k)
        idx[k] = k;
    for (long long width = 1; width < count; width *= 2) {
        for (long long lo = 0; lo < count; lo += 2 * width) {
            long long mid = lo + width < count ? lo + width : count;
            long long hi = mid + width < count ? mid + width : count;
            long long i = lo, j = mid, o = lo;
            while (i < mid && j < hi)
                tmp[o++] = cand_before(idx[j], idx[i], key, cv, cp)
                    ? idx[j++] : idx[i++];
            while (i < mid)
                tmp[o++] = idx[i++];
            while (j < hi)
                tmp[o++] = idx[j++];
        }
        long long *swap = idx;
        idx = tmp;
        tmp = swap;
    }
    return idx;
}

/* Rebalance (fm_refine's _rebalance): up to 12 sweeps, each moving
 * least-loss boundary vertices out of parts over cap while a move
 * strictly lightens the heavier side. */
static void rebalance(long long n, const long long *xadj,
    const long long *adjncy, const long long *vwgt, const long long *ewgt,
    long long nparts, double cap, long long *labels, double *part_w,
    long long *tick, long long *stamp, double *acc, long long *touched,
    long long *cv, long long *cp, double *key, long long *idx,
    long long *tmp, long long *seen)
{
    for (long long v = 0; v < n; ++v)
        seen[v] = -1;
    for (long long sweep = 0; sweep < 12; ++sweep) {
        int over = 0;
        for (long long p = 0; p < nparts; ++p)
            over |= part_w[p] > cap;
        if (!over)
            return;
        long long count = 0;
        for (long long v = 0; v < n; ++v) {
            long long h = labels[v];
            if (!(part_w[h] > cap))
                continue;
            long long nt = vertex_part_weights(v, xadj, adjncy, ewgt,
                labels, ++*tick, stamp, acc, touched);
            double internal = stamp[h] == *tick ? acc[h] : 0.0;
            for (long long k = 0; k < nt; ++k) {
                long long p = touched[k];
                if (p == h)
                    continue;
                cv[count] = v;
                cp[count] = p;
                key[count++] = internal - acc[p];
            }
        }
        if (count == 0)
            return;
        long long *order = sort_candidates(count, key, cv, cp, idx, tmp);
        long long moved = 0;
        for (long long k = 0; k < count; ++k) {
            long long v = cv[order[k]], t = cp[order[k]];
            if (seen[v] == sweep)
                continue;
            long long h = labels[v];
            double w = (double)vwgt[v];
            if (part_w[h] <= cap || part_w[t] + w >= part_w[h])
                continue;
            seen[v] = sweep;
            part_w[h] -= w;
            part_w[t] += w;
            labels[v] = t;
            ++moved;
        }
        if (moved == 0)
            return;
    }
}

/* FM refinement in place on labels.  Per pass, each vertex's best move
 * (largest positive gain, the lowest part on a tie: the first of its
 * candidates in the stable gain order) is taken in descending gain
 * order, vertex ascending on a tie, under the balance rule: no part
 * over cap, or with strict only into a part lighter than the source.
 * Then, unless strict, the rebalance.  stamp, touched: nparts longs;
 * part_w, acc: nparts doubles; cand: 4 c longs and key c doubles (c =
 * the number of arcs, at least 1); seen: n longs. */
long long fm_refine_i64(long long n, long long nparts, const long long *xadj,
    const long long *adjncy, const long long *vwgt, const long long *ewgt,
    long long max_passes, long long strict, double cap, long long *labels,
    double *part_w, long long *stamp, long long *touched, double *acc,
    long long *cand, double *key, long long *seen)
{
    long long bad = graph_bad_vertex(n, xadj, adjncy, labels, nparts);
    if (bad >= 0)
        return bad;
    long long c = xadj[n] > 0 ? xadj[n] : 1;
    long long *cv = cand, *cp = cv + c, *idx = cp + c, *tmp = idx + c;
    long long tick = -1;
    for (long long p = 0; p < nparts; ++p) {
        part_w[p] = 0.0;
        stamp[p] = -1;
    }
    for (long long v = 0; v < n; ++v)
        part_w[labels[v]] += (double)vwgt[v];
    for (long long pass = 0; pass < max_passes; ++pass) {
        long long count = 0;
        for (long long v = 0; v < n; ++v) {
            long long h = labels[v];
            long long nt = vertex_part_weights(v, xadj, adjncy, ewgt,
                labels, ++tick, stamp, acc, touched);
            double internal = stamp[h] == tick ? acc[h] : 0.0;
            long long best = -1;
            double gbest = 0.0;
            for (long long k = 0; k < nt; ++k) {
                long long p = touched[k];
                double g = acc[p] - internal;
                if (p != h && g > 0.0
                    && (best < 0 || g > gbest || (g == gbest && p < best))) {
                    best = p;
                    gbest = g;
                }
            }
            if (best >= 0) {
                cv[count] = v;
                cp[count] = best;
                key[count++] = -gbest;
            }
        }
        if (count == 0)
            break;
        long long *order = sort_candidates(count, key, cv, cp, idx, tmp);
        long long moved = 0;
        for (long long k = 0; k < count; ++k) {
            long long v = cv[order[k]], t = cp[order[k]];
            long long h = labels[v];
            double w = (double)vwgt[v];
            int ok = strict ? part_w[t] + w <= part_w[h]
                            : part_w[t] + w <= cap;
            if (ok && part_w[h] - w > 0.0) {
                part_w[h] -= w;
                part_w[t] += w;
                labels[v] = t;
                ++moved;
            }
        }
        if (moved == 0)
            break;
    }
    if (!strict)
        rebalance(n, xadj, adjncy, vwgt, ewgt, nparts, cap, labels, part_w,
                  &tick, stamp, acc, touched, cv, cp, key, idx, tmp, seen);
    return -1;
}

/* repair_contiguity in place on labels: up to four rounds, each keeping
 * the heaviest component of every part (the lowest id on a tie; a part
 * with no vertex keeps component 0) and moving every other component,
 * all at once, to the part it shares the most edge weight with (the
 * lowest on a tie).  Components are numbered by their smallest vertex.
 * work: 5 n + 1 + 3 nparts longs; dwork: n + 2 nparts doubles. */
long long repair_contiguity_i64(long long n, long long nparts,
    const long long *xadj, const long long *adjncy, const long long *vwgt,
    const long long *ewgt, long long *labels, long long *work,
    double *dwork)
{
    long long bad = graph_bad_vertex(n, xadj, adjncy, labels, nparts);
    if (bad >= 0)
        return bad;
    long long *comp = work, *verts = comp + n, *cstart = verts + n;
    long long *cpart = cstart + n + 1, *target = cpart + n;
    long long *keep = target + n, *stamp = keep + nparts;
    long long *touched = stamp + nparts;
    double *comp_w = dwork, *best_w = comp_w + n, *acc = best_w + nparts;
    long long tick = -1;
    for (long long p = 0; p < nparts; ++p)
        stamp[p] = -1;
    for (int round = 0; round < 4; ++round) {
        /* components of the label-induced subgraphs, breadth first */
        for (long long v = 0; v < n; ++v)
            comp[v] = -1;
        long long ncomp = 0, head = 0;
        for (long long v = 0; v < n; ++v) {
            if (comp[v] >= 0)
                continue;
            cstart[ncomp] = head;
            cpart[ncomp] = labels[v];
            comp[v] = ncomp;
            verts[head++] = v;
            for (long long q = cstart[ncomp]; q < head; ++q) {
                long long s = verts[q];
                for (long long t = xadj[s]; t < xadj[s + 1]; ++t) {
                    long long u = adjncy[t];
                    if (comp[u] < 0 && labels[u] == labels[s]) {
                        comp[u] = ncomp;
                        verts[head++] = u;
                    }
                }
            }
            comp_w[ncomp++] = 0.0;
        }
        cstart[ncomp] = head;
        for (long long v = 0; v < n; ++v)
            comp_w[comp[v]] += (double)vwgt[v];
        for (long long p = 0; p < nparts; ++p)
            keep[p] = -1;
        for (long long k = 0; k < ncomp; ++k) {
            long long p = cpart[k];
            if (keep[p] < 0 || comp_w[k] > best_w[p]) {
                keep[p] = k;
                best_w[p] = comp_w[k];
            }
        }
        /* target[k]: -2 for a kept component, else its new part or -1 */
        for (long long k = 0; k < ncomp; ++k)
            target[k] = -1;
        for (long long p = 0; p < nparts; ++p)
            target[keep[p] < 0 ? 0 : keep[p]] = -2;
        int fragments = 0, moves = 0;
        for (long long k = 0; k < ncomp; ++k) {
            if (target[k] == -2)
                continue;
            fragments = 1;
            long long nt = 0;
            ++tick;
            for (long long q = cstart[k]; q < cstart[k + 1]; ++q) {
                long long s = verts[q];
                for (long long t = xadj[s]; t < xadj[s + 1]; ++t) {
                    long long p = labels[adjncy[t]];
                    if (p == cpart[k])
                        continue;
                    if (stamp[p] != tick) {
                        stamp[p] = tick;
                        acc[p] = 0.0;
                        touched[nt++] = p;
                    }
                    acc[p] += (double)ewgt[t];
                }
            }
            for (long long j = 0; j < nt; ++j) {
                long long p = touched[j];
                if (target[k] < 0 || acc[p] > acc[target[k]]
                    || (acc[p] == acc[target[k]] && p < target[k]))
                    target[k] = p;
            }
            moves |= target[k] >= 0;
        }
        if (!fragments || !moves)
            break;
        for (long long v = 0; v < n; ++v)
            if (target[comp[v]] >= 0)
                labels[v] = target[comp[v]];
    }
    return -1;
}
"""

#: x86-64 levels the library can be built for, widest first, each with
#: every CPU feature it needs (psABI level table, spelt as Linux's
#: /proc/cpuinfo spells them: ``abm`` is LZCNT); x86-64-v2 is in v3.
_V3 = frozenset({"cx16", "lahf_lm", "popcnt", "sse4_1", "sse4_2",
                 "ssse3", "avx", "avx2", "bmi1", "bmi2", "f16c", "fma",
                 "abm", "movbe", "xsave"})
_X86_LEVELS = (("x86-64-v4", _V3 | {"avx512f", "avx512bw", "avx512cd",
                                    "avx512dq", "avx512vl"}),
               ("x86-64-v3", _V3))


def _host_isa(cpuinfo: str = "/proc/cpuinfo") -> str | None:
    """The widest level of :data:`_X86_LEVELS` whose features this CPU
    and kernel offer, from the ``flags`` line of Linux's ``cpuinfo``;
    None off x86-64 Linux or below x86-64-v3 (the compiler's default
    then stands)."""
    try:
        with open(cpuinfo) as f:
            flags = next((line for line in f if line.startswith("flags")),
                         None)
    except OSError:
        return None
    if flags is None:
        return None
    have = set(flags.partition(":")[2].split())
    return next((name for name, need in _X86_LEVELS if need <= have), None)


#: Flags every build shares.
BASE_ARGS = ("-O2", "-ffp-contract=off", "-fno-math-errno",
             "-fvect-cost-model=dynamic")

#: Flags of the solver's build (``load_cbackend``): the shared ones and
#: the host's level; the CI warning check compiles the source with these.
_HOST_ISA = _host_isa()
COMPILE_ARGS = BASE_ARGS + ((f"-march={_HOST_ISA}",) if _HOST_ISA else ())

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


#: The C element type of each dtype the kernels take.
_CTYPES = {np.dtype(np.float64): "double[]", np.dtype(np.float32): "float[]",
           np.dtype(np.int64): "long long[]"}


class CBackend:
    """The loaded library: its cffi ``ffi`` and ``lib``, and the ISA
    level it was built for.  The kernels' Python side — operand checks,
    output buffers, the C call and its status — is :mod:`repro.kernels`.
    """

    def __init__(self, ffi, lib, isa: str = "default") -> None:
        self.ffi = ffi
        self.lib = lib
        #: the level the library was built for: the ``-march`` of its
        #: flags (``"x86-64-v4"``, ``"x86-64-v3"``) or ``"default"``
        self.isa = isa

    def ptr(self, a, out: bool = False):
        """The C pointer to ``a``'s buffer (float64, float32 or int64,
        C-contiguous); ``out`` for a buffer the kernel writes."""
        return self.ffi.from_buffer(_CTYPES[a.dtype], a,
                                    require_writable=out)


def load_cbackend(flags=COMPILE_ARGS) -> CBackend:
    """Build (once) or import the compiled library; a failed build
    raises.

    The extension name carries a hash of the C source and of the
    compile ``flags`` (:func:`_module_name`), so editing the kernels or
    the flags automatically invalidates stale cached builds, and builds
    for different ``-march`` levels live side by side in one cache.
    The solver's library is the one built with :data:`COMPILE_ARGS`,
    or with :data:`BASE_ARGS` where the compiler rejects its ``-march``.
    """
    modname = _module_name(flags)
    isa = next((f.split("=", 1)[1] for f in reversed(flags)
                if f.startswith("-march=")), "default")
    cachedir = _cache_dir()
    if cachedir not in sys.path:
        sys.path.insert(0, cachedir)
    try:
        mod = importlib.import_module(modname)
        return CBackend(mod.ffi, mod.lib, isa)
    except ImportError:
        pass
    try:
        import cffi

        builder = cffi.FFI()
        builder.cdef(_CDEF)
        builder.set_source(modname, _SOURCE,
                           extra_compile_args=list(flags))
        builder.compile(tmpdir=cachedir, verbose=False)
        importlib.invalidate_caches()
        mod = importlib.import_module(modname)
        return CBackend(mod.ffi, mod.lib, isa)
    except Exception:
        if flags == COMPILE_ARGS != BASE_ARGS:
            # a compiler older than the level names (gcc 11, clang 12)
            return load_cbackend(BASE_ARGS)
        raise
