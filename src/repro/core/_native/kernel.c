/* Native serve kernel for the k-ary SplayNet hot loop, plus the
 * optimal-tree DP forward passes (at the end of this file).
 *
 * The serve kernel is a statement-for-statement translation of the
 * depth-2 k-splay discipline of ``repro.core.flat.FlatTree``: the batch
 * loop of ``serve_many`` (epoch-stamped LCA walk, routing/rotation/link
 * cost accounting) and the k-semi-splay and k-splay rotation groups with
 * arithmetic subtree placement (``semi_splay_fast`` / ``splay_fast``).  It operates
 * on the same flat identifier-indexed layout the Python engine owns,
 * marshalled into contiguous buffers by ``repro.core.native.NativeTree``:
 *
 *   parent[nid], pslot[nid]          int64, length n + 1 (0 = null)
 *   children[nid * k + slot]         int64, 0 = empty slot
 *   routing[nid * (k - 1) + j]       double, sorted separators per node
 *   visit[nid], vdepth[nid]          int64 scratch for the LCA walk
 *
 * Structural equivalence with the Python engines is the contract: on any
 * request batch this kernel must produce the identical topology and the
 * identical cost totals (enforced per request by tests/test_native_engine.py
 * and the tests/net hypothesis sweeps).  When editing, change flat.py
 * first, then mirror here.  The DP passes must likewise fill tables equal
 * entry for entry to their NumPy references (tests/optimal/test_native_dp.py).
 *
 * Built by repro.core._native with ``cc -O3 -shared -fPIC``; no Python.h
 * dependency, so any C toolchain works.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Mirror of repro.core.keyspace.MAX_K: the separator-value discipline
 * caps the arity at 40, so stack scratch can be statically sized. */
#define RK_MAX_K 40
#define RK_KM1_MAX (RK_MAX_K - 1)

/* Bumped whenever the entry-point signature or semantics change; the
 * Python loader refuses stale cached shared objects that report a
 * different version.  Version 2 added the resident-tree handle API
 * (repro_tree_create / load / serve_batch / serve_one / sync_out /
 * destroy); version 3 added the DP forward passes (repro_dp_general /
 * repro_dp_uniform); version 4 made repro_tree_serve_batch (and so
 * repro_tree_serve_one) reject out-of-range identifiers with status 2. */
#define RK_ABI_VERSION 4

int64_t repro_kernel_abi(void) { return RK_ABI_VERSION; }

typedef struct {
    int64_t k, km1, km2, half;
    int64_t pol_center, pol_left;
    int64_t *parent;
    int64_t *pslot;
    int64_t *children;
    double *routing;
    int64_t root;
    int64_t lk; /* link churn of the request being served */
} rk_ctx;

/* Merge two sorted runs (separator values are globally distinct, so the
 * result equals Python's sorted(a + b)). */
static void rk_merge2(const double *a, int64_t la, const double *b,
                      int64_t lb, double *out)
{
    int64_t i = 0, j = 0, o = 0;
    while (i < la && j < lb)
        out[o++] = (a[i] < b[j]) ? a[i++] : b[j++];
    while (i < la)
        out[o++] = a[i++];
    while (j < lb)
        out[o++] = b[j++];
}

/* bisect_left over a sorted run; no element ever equals v (identifiers
 * are integers, separators never are). */
static int64_t rk_count_less(const double *a, int64_t len, double v)
{
    int64_t i = 0;
    while (i < len && a[i] < v)
        i++;
    return i;
}

/* k-semi-splay: promote y above its parent x (g = x's parent, may be 0).
 * Mirror of FlatTree.semi_splay_fast.  Returns g. */
static int64_t rk_semi(rk_ctx *c, int64_t y, int64_t x, int64_t g)
{
    const int64_t k = c->k, km1 = c->km1;
    int64_t *parent = c->parent, *pslot = c->pslot, *children = c->children;
    double *routing = c->routing;
    const int64_t gslot = pslot[x];
    const int64_t sy = pslot[y];

    double merged[2 * RK_KM1_MAX];
    rk_merge2(routing + x * km1, km1, routing + y * km1, km1, merged);
    int64_t xrow[RK_MAX_K], yrow[RK_MAX_K];
    memcpy(xrow, children + x * k, (size_t)k * sizeof(int64_t));
    memcpy(yrow, children + y * k, (size_t)k * sizeof(int64_t));
    int64_t *nxrow = children + x * k;
    int64_t *nyrow = children + y * k;
    memset(nxrow, 0, (size_t)k * sizeof(int64_t));
    memset(nyrow, 0, (size_t)k * sizeof(int64_t));

    const int64_t pos_x = rk_count_less(merged, 2 * km1, (double)x);
    int64_t j;
    if (c->pol_center)
        j = pos_x - c->half;
    else if (c->pol_left)
        j = pos_x - km1;
    else
        j = pos_x;
    int64_t lo = pos_x - km1;
    if (lo < 0)
        lo = 0;
    const int64_t hi = (km1 < pos_x) ? km1 : pos_x;
    if (j < lo)
        j = lo;
    else if (j > hi)
        j = hi;
    const int64_t jhi = j + km1;

    memcpy(routing + x * km1, merged + j, (size_t)km1 * sizeof(double));
    {
        double *ry = routing + y * km1;
        memcpy(ry, merged, (size_t)j * sizeof(double));
        memcpy(ry + j, merged + jhi,
               (size_t)(2 * km1 - jhi) * sizeof(double));
    }
    nyrow[j] = x;
    parent[x] = y;
    pslot[x] = j;
    if (g)
        c->lk += 2;

    /* x's subtree below slot sy keeps merged index s, past it s + km1
     * (slot sy held y); y's subtree at slot t has merged index sy + t. */
    for (int64_t m = 0; m < sy; m++) {
        const int64_t ch = xrow[m];
        if (!ch)
            continue;
        if (m < j) {
            nyrow[m] = ch;
            parent[ch] = y;
            pslot[ch] = m;
            c->lk += 2;
        } else if (m <= jhi) {
            const int64_t slot = m - j;
            nxrow[slot] = ch;
            parent[ch] = x;
            pslot[ch] = slot;
        } else {
            const int64_t slot = m - km1;
            nyrow[slot] = ch;
            parent[ch] = y;
            pslot[ch] = slot;
            c->lk += 2;
        }
    }
    for (int64_t s = sy + 1; s < k; s++) {
        const int64_t ch = xrow[s];
        if (!ch)
            continue;
        const int64_t m = s + km1;
        if (m < j) {
            nyrow[m] = ch;
            parent[ch] = y;
            pslot[ch] = m;
            c->lk += 2;
        } else if (m <= jhi) {
            const int64_t slot = m - j;
            nxrow[slot] = ch;
            parent[ch] = x;
            pslot[ch] = slot;
        } else {
            const int64_t slot = m - km1;
            nyrow[slot] = ch;
            parent[ch] = y;
            pslot[ch] = slot;
            c->lk += 2;
        }
    }
    for (int64_t t = 0; t < k; t++) {
        const int64_t ch = yrow[t];
        if (!ch)
            continue;
        const int64_t m = sy + t;
        if (m < j) {
            nyrow[m] = ch;
            parent[ch] = y;
            pslot[ch] = m;
        } else if (m <= jhi) {
            const int64_t slot = m - j;
            nxrow[slot] = ch;
            parent[ch] = x;
            pslot[ch] = slot;
            c->lk += 2;
        } else {
            const int64_t slot = m - km1;
            nyrow[slot] = ch;
            parent[ch] = y;
            pslot[ch] = slot;
        }
    }

    if (g) {
        children[g * k + gslot] = y;
        parent[y] = g;
        pslot[y] = gslot;
    } else {
        parent[y] = 0;
        pslot[y] = -1;
        c->root = y;
    }
    return g;
}

/* k-splay: promote z above parent y and grandparent x (both rotation
 * cases).  Mirror of FlatTree.splay_fast.
 * Returns x's old parent (the climb continues from there). */
static int64_t rk_splay(rk_ctx *c, int64_t z, int64_t y, int64_t x)
{
    const int64_t k = c->k, km1 = c->km1, km2 = c->km2;
    int64_t *parent = c->parent, *pslot = c->pslot, *children = c->children;
    double *routing = c->routing;
    const int64_t grand = parent[x];
    const int64_t gslot = pslot[x];
    const int64_t sy = pslot[y];
    const int64_t sz = pslot[z];

    double tmp[2 * RK_KM1_MAX];
    double merged[3 * RK_KM1_MAX];
    rk_merge2(routing + x * km1, km1, routing + y * km1, km1, tmp);
    rk_merge2(tmp, 2 * km1, routing + z * km1, km1, merged);
    int64_t xrow[RK_MAX_K], yrow[RK_MAX_K], zrow[RK_MAX_K];
    memcpy(xrow, children + x * k, (size_t)k * sizeof(int64_t));
    memcpy(yrow, children + y * k, (size_t)k * sizeof(int64_t));
    memcpy(zrow, children + z * k, (size_t)k * sizeof(int64_t));
    int64_t *nxrow = children + x * k;
    int64_t *nyrow = children + y * k;
    int64_t *nzrow = children + z * k;
    memset(nxrow, 0, (size_t)k * sizeof(int64_t));
    memset(nyrow, 0, (size_t)k * sizeof(int64_t));
    memset(nzrow, 0, (size_t)k * sizeof(int64_t));

    const int64_t pos_x = rk_count_less(merged, 3 * km1, (double)x);
    const int64_t pos_y = rk_count_less(merged, 3 * km1, (double)y);
    const int64_t diff = pos_x - pos_y;

    if (diff > km1 || -diff > km1) {
        /* ---- Case 1 (zig-zag analogue): x and y become children of z. */
        int64_t lo_node, pos_lo, hi_node, pos_hi;
        int64_t *lo_nrow, *hi_nrow;
        int64_t x_lo_flip, x_hi_flip, y_lo_flip, y_hi_flip;
        if (diff < 0) {
            lo_node = x;
            pos_lo = pos_x;
            hi_node = y;
            pos_hi = pos_y;
            lo_nrow = nxrow;
            hi_nrow = nyrow;
            x_lo_flip = 0;
            x_hi_flip = 2;
            y_lo_flip = 2;
            y_hi_flip = 0;
        } else {
            lo_node = y;
            pos_lo = pos_y;
            hi_node = x;
            pos_hi = pos_x;
            lo_nrow = nyrow;
            hi_nrow = nxrow;
            x_lo_flip = 2;
            x_hi_flip = 0;
            y_lo_flip = 0;
            y_hi_flip = 2;
        }
        int64_t j_lo = pos_lo - km1;
        if (j_lo < 0)
            j_lo = 0;
        int64_t j_hi = km2;
        if (pos_hi < j_hi)
            j_hi = pos_hi;
        const int64_t j_lo_hi = j_lo + km1;
        const int64_t j_hi_hi = j_hi + km1;

        memcpy(routing + lo_node * km1, merged + j_lo,
               (size_t)km1 * sizeof(double));
        memcpy(routing + hi_node * km1, merged + j_hi,
               (size_t)km1 * sizeof(double));
        {
            double *rz = routing + z * km1;
            memcpy(rz, merged, (size_t)j_lo * sizeof(double));
            memcpy(rz + j_lo, merged + j_lo_hi,
                   (size_t)(j_hi - j_lo_hi) * sizeof(double));
            memcpy(rz + j_lo + (j_hi - j_lo_hi), merged + j_hi_hi,
                   (size_t)(3 * km1 - j_hi_hi) * sizeof(double));
        }
        nzrow[j_lo] = lo_node;
        parent[lo_node] = z;
        pslot[lo_node] = j_lo;
        nzrow[j_hi - km1] = hi_node;
        parent[hi_node] = z;
        pslot[hi_node] = j_hi - km1;
        c->lk += 2;

        for (int64_t s = 0; s < sy; s++) {
            const int64_t ch = xrow[s];
            if (!ch)
                continue;
            const int64_t m = s;
            if (m < j_lo) {
                nzrow[m] = ch;
                parent[ch] = z;
                pslot[ch] = m;
                c->lk += 2;
            } else if (m <= j_lo_hi) {
                const int64_t slot = m - j_lo;
                lo_nrow[slot] = ch;
                parent[ch] = lo_node;
                pslot[ch] = slot;
                c->lk += x_lo_flip;
            } else if (m < j_hi) {
                const int64_t slot = m - km1;
                nzrow[slot] = ch;
                parent[ch] = z;
                pslot[ch] = slot;
                c->lk += 2;
            } else if (m <= j_hi_hi) {
                const int64_t slot = m - j_hi;
                hi_nrow[slot] = ch;
                parent[ch] = hi_node;
                pslot[ch] = slot;
                c->lk += x_hi_flip;
            } else {
                const int64_t slot = m - km2;
                nzrow[slot] = ch;
                parent[ch] = z;
                pslot[ch] = slot;
                c->lk += 2;
            }
        }
        for (int64_t s = sy + 1; s < k; s++) {
            const int64_t ch = xrow[s];
            if (!ch)
                continue;
            const int64_t m = s + km2;
            if (m < j_lo) {
                nzrow[m] = ch;
                parent[ch] = z;
                pslot[ch] = m;
                c->lk += 2;
            } else if (m <= j_lo_hi) {
                const int64_t slot = m - j_lo;
                lo_nrow[slot] = ch;
                parent[ch] = lo_node;
                pslot[ch] = slot;
                c->lk += x_lo_flip;
            } else if (m < j_hi) {
                const int64_t slot = m - km1;
                nzrow[slot] = ch;
                parent[ch] = z;
                pslot[ch] = slot;
                c->lk += 2;
            } else if (m <= j_hi_hi) {
                const int64_t slot = m - j_hi;
                hi_nrow[slot] = ch;
                parent[ch] = hi_node;
                pslot[ch] = slot;
                c->lk += x_hi_flip;
            } else {
                const int64_t slot = m - km2;
                nzrow[slot] = ch;
                parent[ch] = z;
                pslot[ch] = slot;
                c->lk += 2;
            }
        }
        for (int64_t t = 0; t < sz; t++) {
            const int64_t ch = yrow[t];
            if (!ch)
                continue;
            const int64_t m = sy + t;
            if (m < j_lo) {
                nzrow[m] = ch;
                parent[ch] = z;
                pslot[ch] = m;
                c->lk += 2;
            } else if (m <= j_lo_hi) {
                const int64_t slot = m - j_lo;
                lo_nrow[slot] = ch;
                parent[ch] = lo_node;
                pslot[ch] = slot;
                c->lk += y_lo_flip;
            } else if (m < j_hi) {
                const int64_t slot = m - km1;
                nzrow[slot] = ch;
                parent[ch] = z;
                pslot[ch] = slot;
                c->lk += 2;
            } else if (m <= j_hi_hi) {
                const int64_t slot = m - j_hi;
                hi_nrow[slot] = ch;
                parent[ch] = hi_node;
                pslot[ch] = slot;
                c->lk += y_hi_flip;
            } else {
                const int64_t slot = m - km2;
                nzrow[slot] = ch;
                parent[ch] = z;
                pslot[ch] = slot;
                c->lk += 2;
            }
        }
        for (int64_t t = sz + 1; t < k; t++) {
            const int64_t ch = yrow[t];
            if (!ch)
                continue;
            const int64_t m = sy + t + km1;
            if (m < j_lo) {
                nzrow[m] = ch;
                parent[ch] = z;
                pslot[ch] = m;
                c->lk += 2;
            } else if (m <= j_lo_hi) {
                const int64_t slot = m - j_lo;
                lo_nrow[slot] = ch;
                parent[ch] = lo_node;
                pslot[ch] = slot;
                c->lk += y_lo_flip;
            } else if (m < j_hi) {
                const int64_t slot = m - km1;
                nzrow[slot] = ch;
                parent[ch] = z;
                pslot[ch] = slot;
                c->lk += 2;
            } else if (m <= j_hi_hi) {
                const int64_t slot = m - j_hi;
                hi_nrow[slot] = ch;
                parent[ch] = hi_node;
                pslot[ch] = slot;
                c->lk += y_hi_flip;
            } else {
                const int64_t slot = m - km2;
                nzrow[slot] = ch;
                parent[ch] = z;
                pslot[ch] = slot;
                c->lk += 2;
            }
        }
        {
            const int64_t base = sy + sz;
            for (int64_t r = 0; r < k; r++) {
                const int64_t ch = zrow[r];
                if (!ch)
                    continue;
                const int64_t m = base + r;
                if (m < j_lo) {
                    nzrow[m] = ch;
                    parent[ch] = z;
                    pslot[ch] = m;
                } else if (m <= j_lo_hi) {
                    const int64_t slot = m - j_lo;
                    lo_nrow[slot] = ch;
                    parent[ch] = lo_node;
                    pslot[ch] = slot;
                    c->lk += 2;
                } else if (m < j_hi) {
                    const int64_t slot = m - km1;
                    nzrow[slot] = ch;
                    parent[ch] = z;
                    pslot[ch] = slot;
                } else if (m <= j_hi_hi) {
                    const int64_t slot = m - j_hi;
                    hi_nrow[slot] = ch;
                    parent[ch] = hi_node;
                    pslot[ch] = slot;
                    c->lk += 2;
                } else {
                    const int64_t slot = m - km2;
                    nzrow[slot] = ch;
                    parent[ch] = z;
                    pslot[ch] = slot;
                }
            }
        }
    } else {
        /* ---- Case 2 (zig-zig analogue): chain reversed to z -> y -> x. */
        int64_t lo_pos, hi_pos;
        if (diff < 0) {
            lo_pos = pos_x;
            hi_pos = pos_y;
        } else {
            lo_pos = pos_y;
            hi_pos = pos_x;
        }
        int64_t j2 = hi_pos - km2 + (km2 - (hi_pos - lo_pos)) / 2;
        int64_t j2_lo = hi_pos - km2;
        if (j2_lo < 0)
            j2_lo = 0;
        const int64_t j2_hi = (km1 < lo_pos) ? km1 : lo_pos;
        if (j2 < j2_lo)
            j2 = j2_lo;
        else if (j2 > j2_hi)
            j2 = j2_hi;
        const int64_t j2hi = j2 + km2;

        {
            double *rz = routing + z * km1;
            memcpy(rz, merged, (size_t)j2 * sizeof(double));
            memcpy(rz + j2, merged + j2hi,
                   (size_t)(3 * km1 - j2hi) * sizeof(double));
        }
        const int64_t pos_x2 = pos_x - j2;
        int64_t j1;
        if (c->pol_center)
            j1 = pos_x2 - c->half;
        else if (c->pol_left)
            j1 = pos_x2 - km1;
        else
            j1 = pos_x2;
        int64_t lo = pos_x2 - km1;
        if (lo < 0)
            lo = 0;
        const int64_t hi = (km1 < pos_x2) ? km1 : pos_x2;
        if (j1 < lo)
            j1 = lo;
        else if (j1 > hi)
            j1 = hi;
        const int64_t j1hi = j1 + km1;
        const int64_t a1 = j2 + j1;
        const int64_t a2 = a1 + km1;
        memcpy(routing + x * km1, merged + a1, (size_t)km1 * sizeof(double));
        {
            double *ry = routing + y * km1;
            memcpy(ry, merged + j2, (size_t)j1 * sizeof(double));
            memcpy(ry + j1, merged + a2, (size_t)(j2hi - a2) * sizeof(double));
        }
        nzrow[j2] = y;
        parent[y] = z;
        pslot[y] = j2;
        nyrow[j1] = x;
        parent[x] = y;
        pslot[x] = j1;

        for (int64_t s = 0; s < sy; s++) {
            const int64_t ch = xrow[s];
            if (!ch)
                continue;
            const int64_t m = s;
            if (m < j2) {
                nzrow[m] = ch;
                parent[ch] = z;
                pslot[ch] = m;
                c->lk += 2;
            } else {
                const int64_t m2 = m - j2;
                if (m2 > km2) {
                    const int64_t slot = m - km2;
                    nzrow[slot] = ch;
                    parent[ch] = z;
                    pslot[ch] = slot;
                    c->lk += 2;
                } else if (m2 < j1) {
                    nyrow[m2] = ch;
                    parent[ch] = y;
                    pslot[ch] = m2;
                    c->lk += 2;
                } else if (m2 <= j1hi) {
                    const int64_t slot = m2 - j1;
                    nxrow[slot] = ch;
                    parent[ch] = x;
                    pslot[ch] = slot;
                } else {
                    const int64_t slot = m2 - km1;
                    nyrow[slot] = ch;
                    parent[ch] = y;
                    pslot[ch] = slot;
                    c->lk += 2;
                }
            }
        }
        for (int64_t s = sy + 1; s < k; s++) {
            const int64_t ch = xrow[s];
            if (!ch)
                continue;
            const int64_t m = s + km2;
            if (m < j2) {
                nzrow[m] = ch;
                parent[ch] = z;
                pslot[ch] = m;
                c->lk += 2;
            } else {
                const int64_t m2 = m - j2;
                if (m2 > km2) {
                    const int64_t slot = m - km2;
                    nzrow[slot] = ch;
                    parent[ch] = z;
                    pslot[ch] = slot;
                    c->lk += 2;
                } else if (m2 < j1) {
                    nyrow[m2] = ch;
                    parent[ch] = y;
                    pslot[ch] = m2;
                    c->lk += 2;
                } else if (m2 <= j1hi) {
                    const int64_t slot = m2 - j1;
                    nxrow[slot] = ch;
                    parent[ch] = x;
                    pslot[ch] = slot;
                } else {
                    const int64_t slot = m2 - km1;
                    nyrow[slot] = ch;
                    parent[ch] = y;
                    pslot[ch] = slot;
                    c->lk += 2;
                }
            }
        }
        for (int64_t t = 0; t < sz; t++) {
            const int64_t ch = yrow[t];
            if (!ch)
                continue;
            const int64_t m = sy + t;
            if (m < j2) {
                nzrow[m] = ch;
                parent[ch] = z;
                pslot[ch] = m;
                c->lk += 2;
            } else {
                const int64_t m2 = m - j2;
                if (m2 > km2) {
                    const int64_t slot = m - km2;
                    nzrow[slot] = ch;
                    parent[ch] = z;
                    pslot[ch] = slot;
                    c->lk += 2;
                } else if (m2 < j1) {
                    nyrow[m2] = ch;
                    parent[ch] = y;
                    pslot[ch] = m2;
                } else if (m2 <= j1hi) {
                    const int64_t slot = m2 - j1;
                    nxrow[slot] = ch;
                    parent[ch] = x;
                    pslot[ch] = slot;
                    c->lk += 2;
                } else {
                    const int64_t slot = m2 - km1;
                    nyrow[slot] = ch;
                    parent[ch] = y;
                    pslot[ch] = slot;
                }
            }
        }
        for (int64_t t = sz + 1; t < k; t++) {
            const int64_t ch = yrow[t];
            if (!ch)
                continue;
            const int64_t m = sy + t + km1;
            if (m < j2) {
                nzrow[m] = ch;
                parent[ch] = z;
                pslot[ch] = m;
                c->lk += 2;
            } else {
                const int64_t m2 = m - j2;
                if (m2 > km2) {
                    const int64_t slot = m - km2;
                    nzrow[slot] = ch;
                    parent[ch] = z;
                    pslot[ch] = slot;
                    c->lk += 2;
                } else if (m2 < j1) {
                    nyrow[m2] = ch;
                    parent[ch] = y;
                    pslot[ch] = m2;
                } else if (m2 <= j1hi) {
                    const int64_t slot = m2 - j1;
                    nxrow[slot] = ch;
                    parent[ch] = x;
                    pslot[ch] = slot;
                    c->lk += 2;
                } else {
                    const int64_t slot = m2 - km1;
                    nyrow[slot] = ch;
                    parent[ch] = y;
                    pslot[ch] = slot;
                }
            }
        }
        {
            const int64_t base = sy + sz;
            for (int64_t r = 0; r < k; r++) {
                const int64_t ch = zrow[r];
                if (!ch)
                    continue;
                const int64_t m = base + r;
                if (m < j2) {
                    nzrow[m] = ch;
                    parent[ch] = z;
                    pslot[ch] = m;
                } else {
                    const int64_t m2 = m - j2;
                    if (m2 > km2) {
                        const int64_t slot = m - km2;
                        nzrow[slot] = ch;
                        parent[ch] = z;
                        pslot[ch] = slot;
                    } else if (m2 < j1) {
                        nyrow[m2] = ch;
                        parent[ch] = y;
                        pslot[ch] = m2;
                        c->lk += 2;
                    } else if (m2 <= j1hi) {
                        const int64_t slot = m2 - j1;
                        nxrow[slot] = ch;
                        parent[ch] = x;
                        pslot[ch] = slot;
                        c->lk += 2;
                    } else {
                        const int64_t slot = m2 - km1;
                        nyrow[slot] = ch;
                        parent[ch] = y;
                        pslot[ch] = slot;
                        c->lk += 2;
                    }
                }
            }
        }
    }

    if (grand) {
        children[grand * k + gslot] = z;
        parent[z] = grand;
        pslot[z] = gslot;
        c->lk += 2;
    } else {
        parent[z] = 0;
        pslot[z] = -1;
        c->root = z;
    }
    return grand;
}

/* The per-request serve loop behind repro_tree_serve_batch (and so
 * repro_tree_serve_one).  ``c`` must be fully initialized (arity,
 * policy flags, buffers, root); epoch_io is a one-element in/out buffer;
 * totals is a three-element out buffer (routing, rotations, links);
 * routing_series / rotation_series are optional length-m out buffers
 * (both NULL or both set). */
static void rk_serve_requests(rk_ctx *c, int64_t *visit, int64_t *vdepth,
                              int64_t *epoch_io, const int64_t *sources,
                              const int64_t *targets, int64_t m,
                              int64_t *routing_series,
                              int64_t *rotation_series, int64_t *totals)
{
    int64_t *parent = c->parent;
    int64_t epoch = *epoch_io;
    int64_t total_r = 0, total_rot = 0, total_l = 0;
    const int rec = (routing_series != NULL);

    for (int64_t i = 0; i < m; i++) {
        const int64_t u = sources[i], v = targets[i];
        if (u == v) {
            if (rec) {
                routing_series[i] = 0;
                rotation_series[i] = 0;
            }
            continue;
        }
        if (parent[u] == v || parent[v] == u) {
            /* Already adjacent: cost 1, both splay phases are no-ops. */
            total_r += 1;
            if (rec) {
                routing_series[i] = 1;
                rotation_series[i] = 0;
            }
            continue;
        }
        /* --- LCA by stamping u's ancestor chain ---------------------- */
        epoch++;
        int64_t node = u, d = 0;
        while (node) {
            visit[node] = epoch;
            vdepth[node] = d;
            node = parent[node];
            d++;
        }
        node = v;
        int64_t dv = 0;
        while (visit[node] != epoch) {
            node = parent[node];
            dv++;
        }
        const int64_t req_routing = vdepth[node] + dv;
        total_r += req_routing;
        int64_t rot = 0;
        c->lk = 0;
        /* --- splay u into the LCA's position, then v below u --------- */
        int64_t climb, stop;
        int final;
        if (node == v) {
            climb = u;
            stop = v;
            final = 1;
        } else if (node == u) {
            climb = v;
            stop = u;
            final = 1;
        } else {
            climb = u;
            stop = parent[node];
            final = 0;
        }
        for (;;) {
            int64_t p = parent[climb];
            while (p != stop) {
                const int64_t g = parent[p];
                rot++;
                if (g == stop || g == 0)
                    p = rk_semi(c, climb, p, g);
                else
                    p = rk_splay(c, climb, p, g);
            }
            if (final)
                break;
            climb = v;
            stop = u;
            final = 1;
        }
        total_rot += rot;
        total_l += c->lk;
        if (rec) {
            routing_series[i] = req_routing;
            rotation_series[i] = rot;
        }
    }

    *epoch_io = epoch;
    totals[0] = total_r;
    totals[1] = total_rot;
    totals[2] = total_l;
}

/* Populate an rk_ctx from raw buffers; returns 0 when the arity is
 * outside the kernel's static scratch. */
static int rk_ctx_init(rk_ctx *c, int64_t k, int64_t policy, int64_t *parent,
                       int64_t *pslot, int64_t *children, double *routing,
                       int64_t root)
{
    if (k < 2 || k > RK_MAX_K)
        return 0;
    c->k = k;
    c->km1 = k - 1;
    c->km2 = 2 * (k - 1);
    c->half = (k - 1) / 2;
    c->pol_center = (policy == 0);
    c->pol_left = (policy == 1);
    c->parent = parent;
    c->pslot = pslot;
    c->children = children;
    c->routing = routing;
    c->root = root;
    c->lk = 0;
    return 1;
}

/* ====================================================================
 * Resident-tree handle API (ABI v2).
 *
 * repro_tree_create allocates a handle whose int64/double buffers the
 * kernel owns across calls, so serving costs no per-call marshalling:
 * the Python side loads the flat state once (repro_tree_load), serves
 * any mix of batches (repro_tree_serve_batch) and single requests
 * (repro_tree_serve_one) against the resident buffers, and copies the
 * state back out only on snapshot/inspection (repro_tree_sync_out).
 * ==================================================================== */

typedef struct {
    int64_t n, k, root, epoch;
    int64_t *parent;   /* one calloc block: parent, pslot, visit,   */
    int64_t *pslot;    /* vdepth, then the (n+1) x k children rows  */
    int64_t *visit;
    int64_t *vdepth;
    int64_t *children;
    double *routing;   /* (n+1) x (k-1), separate block */
} rk_tree;

void *repro_tree_create(int64_t n, int64_t k)
{
    if (n < 0 || k < 2 || k > RK_MAX_K)
        return 0;
    rk_tree *t = (rk_tree *)malloc(sizeof(rk_tree));
    if (!t)
        return 0;
    const size_t rows = (size_t)(n + 1);
    t->parent = (int64_t *)calloc(rows * (size_t)(4 + k), sizeof(int64_t));
    t->routing = (double *)calloc(rows * (size_t)(k - 1), sizeof(double));
    if (!t->parent || !t->routing) {
        free(t->parent);
        free(t->routing);
        free(t);
        return 0;
    }
    t->pslot = t->parent + rows;
    t->visit = t->pslot + rows;
    t->vdepth = t->visit + rows;
    t->children = t->vdepth + rows;
    t->n = n;
    t->k = k;
    t->root = 0;
    t->epoch = 0;
    return t;
}

/* Copy a marshalled flat state into the resident buffers.  The epoch
 * counter is *not* reset: stale visit stamps can then never collide with
 * a fresh walk. */
void repro_tree_load(void *handle, int64_t root, const int64_t *parent,
                     const int64_t *pslot, const int64_t *children,
                     const double *routing)
{
    rk_tree *t = (rk_tree *)handle;
    const size_t rows = (size_t)(t->n + 1);
    memcpy(t->parent, parent, rows * sizeof(int64_t));
    memcpy(t->pslot, pslot, rows * sizeof(int64_t));
    memcpy(t->children, children, rows * (size_t)t->k * sizeof(int64_t));
    memcpy(t->routing, routing, rows * (size_t)(t->k - 1) * sizeof(double));
    t->root = root;
}

/* Copy the resident state back out (the dirty-flag sync target). */
void repro_tree_sync_out(void *handle, int64_t *root_out, int64_t *parent,
                         int64_t *pslot, int64_t *children, double *routing)
{
    rk_tree *t = (rk_tree *)handle;
    const size_t rows = (size_t)(t->n + 1);
    memcpy(parent, t->parent, rows * sizeof(int64_t));
    memcpy(pslot, t->pslot, rows * sizeof(int64_t));
    memcpy(children, t->children, rows * (size_t)t->k * sizeof(int64_t));
    memcpy(routing, t->routing, rows * (size_t)(t->k - 1) * sizeof(double));
    *root_out = t->root;
}

/* Serve a request batch against the resident buffers.  Mirrors
 * FlatTree.serve_many (depth == 2 discipline): totals is a three-element
 * out buffer (routing, rotations, links); routing_series /
 * rotation_series are optional length-m out buffers (both NULL or both
 * set).  Returns 0 on success, 1 when the arity is outside the supported
 * range (the caller then falls back to the Python engine), 2 when a
 * non-self pair names an identifier outside 1..n.  Both failures happen
 * before anything is served: the resident state is left untouched.  A
 * self pair (u == v) is never indexed, so it serves at cost 0 whatever
 * its identifier, exactly as in the Python engines. */
int64_t repro_tree_serve_batch(void *handle, const int64_t *sources,
                               const int64_t *targets, int64_t m,
                               int64_t policy, int64_t *routing_series,
                               int64_t *rotation_series, int64_t *totals)
{
    rk_tree *t = (rk_tree *)handle;
    rk_ctx c;
    if (!rk_ctx_init(&c, t->k, policy, t->parent, t->pslot, t->children,
                     t->routing, t->root))
        return 1;
    const uint64_t n = (uint64_t)t->n;
    for (int64_t i = 0; i < m; i++) {
        const int64_t u = sources[i], v = targets[i];
        /* Unsigned wrap-around: (uint64_t)x - 1 >= n  <=>  x < 1 || x > n. */
        if (u != v && ((uint64_t)u - 1 >= n || (uint64_t)v - 1 >= n))
            return 2;
    }
    rk_serve_requests(&c, t->visit, t->vdepth, &t->epoch, sources, targets,
                      m, routing_series, rotation_series, totals);
    t->root = c.root;
    return 0;
}

/* Scalar serve: one request, no batch marshalling on either side of the
 * boundary (the Session.serve hot path). */
int64_t repro_tree_serve_one(void *handle, int64_t u, int64_t v,
                             int64_t policy, int64_t *totals)
{
    const int64_t src[1] = {u};
    const int64_t dst[1] = {v};
    return repro_tree_serve_batch(handle, src, dst, 1, policy, 0, 0, totals);
}

void repro_tree_destroy(void *handle)
{
    rk_tree *t = (rk_tree *)handle;
    if (!t)
        return;
    free(t->parent);
    free(t->routing);
    free(t);
}

/* ====================================================================
 * Optimal-tree DP forward passes (repro.optimal.general / .uniform).
 *
 * Exact int64 arithmetic with the caller's ``inf`` sentinel (2^61): the
 * demand magnitude guard in repro.optimal.context bounds every finite
 * cost by 2^60, so no sum formed below exceeds 2^62.  Both functions
 * fill caller-owned NumPy buffers in place; the NumPy passes in
 * general.py and uniform.py are the statement-for-statement reference.
 *
 * Only these two functions get an AVX2 clone: the int64 min of the inner
 * loops has no SSE2 form, and the clone runs the general pass ~1.6x
 * faster than the baseline -O3 build.  The guard
 * keeps the attribute to targets that resolve clones through ifuncs, so
 * it can never break the serve kernel's build elsewhere.
 * ==================================================================== */

#if defined(__x86_64__) && defined(__linux__) && defined(__GLIBC__) && \
    defined(__has_attribute)
#if __has_attribute(target_clones)
#define RK_DP_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef RK_DP_CLONES
#define RK_DP_CLONES
#endif

/* Theorem 2 forward pass over a zeroed length-major table:
 *
 *   b[(t * (n + 1) + L) * (n + 1) + i] = B[t, i, L]    (t < k, L, i <= n)
 *   w[i * (n + 1) + L]                 = W[i, L]
 *
 * Rows L >= 1 of planes 1 .. k - 1 are written at the starts that fit
 * (i + L <= n) before anything reads them; plane 0 is never touched and
 * B[k] is never formed (a single tree splits its arity into at most
 * k - 1 trees per side).  For each length both operands of every
 * reduction are rows contiguous in the start ``i``, so the add, the min
 * and the running min over root splits fuse into one pass over an
 * n-long ``best`` row.  Returns 0, or 1 when the scratch row cannot be
 * allocated. */
RK_DP_CLONES
int64_t repro_dp_general(int64_t *b, const int64_t *w, int64_t n, int64_t k,
                         int64_t inf)
{
    const int64_t R = n + 1;  /* one length row: every start i */
    const int64_t P = R * R;  /* one t-plane */
    /* Only ``best`` is restrict: it is the one buffer the inner loops
     * write, and every other pointer reads or writes inside ``b``. */
    int64_t *restrict best = (int64_t *)malloc((size_t)R * sizeof(int64_t));
    if (!best)
        return 1;
    for (int64_t L = 1; L <= n; L++) {
        const int64_t m = n - L + 1; /* segments [i, i + L) that fit */
        /* t = 1: a root at i + s, dl trees on the left, k - dl right. */
        for (int64_t i = 0; i < m; i++)
            best[i] = inf;
        for (int64_t s = 0; s < L; s++) {
            for (int64_t dl = 1; dl < k; dl++) {
                const int64_t *left = b + dl * P + s * R;
                const int64_t *right =
                    b + (k - dl) * P + (L - 1 - s) * R + s + 1;
                for (int64_t i = 0; i < m; i++) {
                    const int64_t v = left[i] + right[i];
                    best[i] = v < best[i] ? v : best[i];
                }
            }
        }
        int64_t *out = b + P + L * R;
        for (int64_t i = 0; i < m; i++)
            out[i] = best[i] + w[i * R + L];
        /* t >= 2: at most t - 1 trees, or a first tree of length s
         * followed by at most t - 1 trees on the rest. */
        const int64_t *first_tree = b + P;
        for (int64_t t = 2; t < k; t++) {
            const int64_t *fewer = b + (t - 1) * P;
            for (int64_t i = 0; i < m; i++)
                best[i] = fewer[L * R + i];
            for (int64_t s = 1; s < L; s++) {
                const int64_t *head = first_tree + s * R;
                const int64_t *rest = fewer + (L - s) * R + s;
                for (int64_t i = 0; i < m; i++) {
                    const int64_t v = head[i] + rest[i];
                    best[i] = v < best[i] ? v : best[i];
                }
            }
            out = b + t * P + L * R;
            for (int64_t i = 0; i < m; i++)
                out[i] = best[i];
        }
    }
    free(best);
    return 0;
}

/* Theorem 4 forward pass: tc[L] = T[L], b[t * (n + 1) + L] = B[t, L],
 * w[L] = W[L] (Lemma 18).  b arrives as ``inf`` with B[t, 0] = 0 for
 * t >= 1; T[L] = W[L] + B[k, L - 1] needs the full t <= k range. */
RK_DP_CLONES
void repro_dp_uniform(int64_t *tc, int64_t *b, const int64_t *w, int64_t n,
                      int64_t k, int64_t inf)
{
    const int64_t R = n + 1;
    for (int64_t L = 1; L <= n; L++) {
        tc[L] = w[L] + b[k * R + L - 1];
        b[R + L] = tc[L];
        for (int64_t t = 2; t <= k; t++) {
            const int64_t *fewer = b + (t - 1) * R;
            int64_t split = inf;
            for (int64_t s = 1; s < L; s++) {
                const int64_t v = tc[s] + fewer[L - s];
                split = v < split ? v : split;
            }
            b[t * R + L] = split < fewer[L] ? split : fewer[L];
        }
    }
}
