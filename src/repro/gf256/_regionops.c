/* Wide-word GF(2^8) region operations: the `wide` engine backend.
 *
 * Two kernel shapes share one lane multiply.
 *
 * * Region passes (`mul_add`, and on it `gf256_absorb_many`, the
 *   library's one Gauss-Jordan entry point): one fused `dst ^= c * src`
 *   pass per (row, nonzero coefficient), 64 bytes at a time; a length
 *   that is not a multiple of the vector finishes with one byte-masked
 *   load and store on AVX-512.
 * * `gf256_matmul` is register-blocked on AVX-512: a block of rows x
 *   64-byte lanes lives in zmm accumulators (4 x 4 with GFNI, 8 x 1
 *   with shuffles), each source vector is loaded once per block (not
 *   once per output row), and a source row whose coefficients in the
 *   block are all zero is skipped, which keeps systematic identity
 *   rows and sparse transforms cheap.  The output is written once per
 *   block.  Ragged lengths use a byte-masked last lane; leftover rows
 *   use one-row blocks.  `gf256_fold_rows` is the one-row block that
 *   starts from dst.  AVX2 and scalar run the row kernel instead: one
 *   `mul_add` per (row, coefficient).
 *
 * The lane multiply, best first:
 *
 * * GFNI `vgf2p8mulb` multiplies 64 byte pairs modulo x^8+x^4+x^3+x+1
 *   (0x11B), exactly the library's field polynomial, so one
 *   instruction replaces the whole shuffle dataflow below.
 * * The nibble shuffle of the AVX512 GF-arithmetic paper
 *   (arXiv:1909.02871): the coefficient's two 16-entry tables (low and
 *   high nibble) sit in registers and `c*x = T_lo[c][x & 0xF] ^
 *   T_hi[c][x >> 4]` resolves a vector with two byte shuffles, the XORs
 *   fused into one `vpternlogq` on AVX-512.
 * * The same two lookups per byte in scalar code.
 *
 * The file is dependency-free C compiled on demand by
 * `repro.gf256.regionops` with whatever `cc` the host has.  Dispatch
 * happens once per call at runtime via `__builtin_cpu_supports`, so one
 * shared object works on any x86-64 host: level 3 = AVX-512BW + GFNI,
 * 2 = AVX-512BW, 1 = AVX2, 0 = scalar.  Non-x86 builds keep only the
 * scalar loop, and a compiler without the GFNI intrinsics builds
 * everything but level 3.  `gf256_cap_simd_level` lowers the level so
 * tests can run every loop the host supports.
 *
 * All strides are in bytes.  Coefficient zero is skipped by every
 * entry point, which is what makes the sparse decoder reductions
 * (most factors zero) cheap.
 */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

static uint8_t TLO[256][16];
static uint8_t THI[256][16];
static uint8_t INV[256];

/* Build the per-coefficient nibble tables and the inverse table from
 * the dense 256x256 product table handed over by the Python side
 * (row-major, c*256+x). */
void gf256_init(const uint8_t *mul_table) {
    for (int c = 0; c < 256; c++) {
        for (int v = 0; v < 16; v++) {
            TLO[c][v] = mul_table[c * 256 + v];
            THI[c][v] = mul_table[c * 256 + (v << 4)];
        }
        INV[c] = 0;
        for (int x = 1; x < 256 && c; x++) {
            if (mul_table[c * 256 + x] == 1) {
                INV[c] = (uint8_t)x;
                break;
            }
        }
    }
}

static void mul_add_scalar(uint8_t *dst, const uint8_t *src, size_t len,
                           uint8_t c) {
    const uint8_t *lo = TLO[c], *hi = THI[c];
    for (size_t t = 0; t < len; t++) {
        uint8_t x = src[t];
        dst[t] ^= lo[x & 0x0F] ^ hi[x >> 4];
    }
}

/* dst ^= c * src over len bytes, at one SIMD level. */
typedef void (*mul_add_fn)(uint8_t *, const uint8_t *, size_t, uint8_t);

/* Row kernel: out = a @ b, one region pass per (output row, nonzero
 * coefficient); the accumulator row is reloaded for every pass. */
static void matmul_rows(const uint8_t *a, const uint8_t *b, uint8_t *out,
                        size_t m, size_t n, size_t k, size_t out_stride,
                        mul_add_fn madd) {
    for (size_t r = 0; r < m; r++) {
        uint8_t *acc = out + r * out_stride;
        const uint8_t *arow = a + r * n;
        memset(acc, 0, k);
        for (size_t i = 0; i < n; i++)
            if (arow[i]) madd(acc, b + i * k, k, arow[i]);
    }
}

/* Row-kernel forward reduction: one region pass per nonzero factor. */
static void fold_rows_each(uint8_t *dst, const uint8_t *rows,
                           size_t row_stride, const uint8_t *factors,
                           size_t m, size_t k, mul_add_fn madd) {
    for (size_t i = 0; i < m; i++)
        if (factors[i]) madd(dst, rows + i * row_stride, k, factors[i]);
}

enum { LEVEL_SCALAR, LEVEL_AVX2, LEVEL_AVX512, LEVEL_GFNI };

static int level_cap = LEVEL_GFNI;

/* Lower the dispatch level to at most `level` (never above what the
 * CPU supports); LEVEL_GFNI restores the detected level.  A test hook:
 * the library itself never calls it. */
void gf256_cap_simd_level(int level) {
    level_cap = level < LEVEL_SCALAR ? LEVEL_SCALAR : level;
}

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>

#if defined(__has_builtin)
#if __has_builtin(__builtin_ia32_vgf2p8mulb_v64qi)
#define HAVE_GFNI 1
#endif
#endif

#define AVX512_TARGET __attribute__((target("avx512f,avx512bw,avx512vl")))
#define INLINE static inline __attribute__((always_inline))

/* Register block of the matmul kernels: accumulators per block are
 * ROWS x LANES zmm registers, plus LANES source vectors and the
 * coefficients, within the 32 registers AVX-512 has. */
#define MAX_ROWS 8
#define MAX_LANES 4

/* Byte mask of the first `len` (1..64) bytes of a lane. */
static inline uint64_t lane_mask(size_t len) {
    return len >= 64 ? ~(uint64_t)0 : ((uint64_t)1 << len) - 1;
}

AVX512_TARGET
static void mul_add_avx512(uint8_t *dst, const uint8_t *src, size_t len,
                           uint8_t c) {
    __m512i vlo = _mm512_broadcast_i32x4(_mm_loadu_si128((const __m128i *)TLO[c]));
    __m512i vhi = _mm512_broadcast_i32x4(_mm_loadu_si128((const __m128i *)THI[c]));
    __m512i mask = _mm512_set1_epi8(0x0F);
    for (size_t t = 0; t < len; t += 64) {
        /* Whole vectors unmasked; a masked store would stall the next
         * pass's loads of the same row (no store forwarding). */
        __mmask64 keep = lane_mask(len - t);
        __m512i x, d;
        if (keep == ~(__mmask64)0) {
            x = _mm512_loadu_si512(src + t);
            d = _mm512_loadu_si512(dst + t);
        } else {
            x = _mm512_maskz_loadu_epi8(keep, src + t);
            d = _mm512_maskz_loadu_epi8(keep, dst + t);
        }
        __m512i pl = _mm512_shuffle_epi8(vlo, _mm512_and_si512(x, mask));
        __m512i ph = _mm512_shuffle_epi8(
            vhi, _mm512_and_si512(_mm512_srli_epi16(x, 4), mask));
        d = _mm512_ternarylogic_epi64(d, pl, ph, 0x96);
        if (keep == ~(__mmask64)0)
            _mm512_storeu_si512(dst + t, d);
        else
            _mm512_mask_storeu_epi8(dst + t, keep, d);
    }
}

/* Lane `l` of `lanes` keeps every byte but in the last lane. */
#define KEEP(l, lanes, last) ((l) + 1 == (lanes) ? (last) : ~(__mmask64)0)

/* One `rows` x `lanes` block of the shuffle kernel:
 *
 *     out[j] = (accumulate ? out[j] : 0) ^ XOR_i a[j*n + i] * b[i]
 *
 * for j < rows, over `lanes` 64-byte lanes starting at `b` and `out`
 * (source rows at `b_stride`, output rows at `out_stride`).  Every lane
 * but the last is a whole 64 bytes; the last keeps the bytes of
 * `last`.  With `rows`, `lanes` and `accumulate` constant at each call
 * site, the accumulators are registers and the loops unroll. */
INLINE AVX512_TARGET void block_shuffle(const uint8_t *a, size_t n,
                                         const uint8_t *b, size_t b_stride,
                                         uint8_t *out, size_t out_stride,
                                         size_t rows, size_t lanes,
                                         __mmask64 last, int accumulate) {
    const __m512i mask = _mm512_set1_epi8(0x0F);
    __m512i acc[MAX_ROWS][MAX_LANES];
    for (size_t j = 0; j < rows; j++)
        for (size_t l = 0; l < lanes; l++)
            acc[j][l] = accumulate ? _mm512_maskz_loadu_epi8(
                                         KEEP(l, lanes, last),
                                         out + j * out_stride + 64 * l)
                                   : _mm512_setzero_si512();
    for (size_t i = 0; i < n; i++) {
        uint8_t any = 0;
        for (size_t j = 0; j < rows; j++) any |= a[j * n + i];
        if (!any) continue;
        const uint8_t *src = b + i * b_stride;
        __m512i xlo[MAX_LANES], xhi[MAX_LANES];
        for (size_t l = 0; l < lanes; l++) {
            __m512i x =
                _mm512_maskz_loadu_epi8(KEEP(l, lanes, last), src + 64 * l);
            xlo[l] = _mm512_and_si512(x, mask);
            xhi[l] = _mm512_and_si512(_mm512_srli_epi16(x, 4), mask);
        }
        for (size_t j = 0; j < rows; j++) {
            uint8_t c = a[j * n + i];
            __m512i vlo = _mm512_broadcast_i32x4(
                _mm_loadu_si128((const __m128i *)TLO[c]));
            __m512i vhi = _mm512_broadcast_i32x4(
                _mm_loadu_si128((const __m128i *)THI[c]));
            for (size_t l = 0; l < lanes; l++)
                acc[j][l] = _mm512_ternarylogic_epi64(
                    acc[j][l], _mm512_shuffle_epi8(vlo, xlo[l]),
                    _mm512_shuffle_epi8(vhi, xhi[l]), 0x96);
        }
    }
    for (size_t j = 0; j < rows; j++)
        for (size_t l = 0; l < lanes; l++)
            _mm512_mask_storeu_epi8(out + j * out_stride + 64 * l,
                                    KEEP(l, lanes, last), acc[j][l]);
}

#ifdef HAVE_GFNI
#define GFNI_TARGET __attribute__((target("avx512f,avx512bw,avx512vl,gfni")))

GFNI_TARGET
static void mul_add_gfni(uint8_t *dst, const uint8_t *src, size_t len,
                         uint8_t c) {
    __m512i vc = _mm512_set1_epi8((char)c);
    for (size_t t = 0; t < len; t += 64) {
        __mmask64 keep = lane_mask(len - t);
        if (keep == ~(__mmask64)0) {
            __m512i x = _mm512_loadu_si512(src + t);
            __m512i d = _mm512_loadu_si512(dst + t);
            _mm512_storeu_si512(
                dst + t, _mm512_xor_si512(d, _mm512_gf2p8mul_epi8(x, vc)));
        } else {
            __m512i x = _mm512_maskz_loadu_epi8(keep, src + t);
            __m512i d = _mm512_maskz_loadu_epi8(keep, dst + t);
            _mm512_mask_storeu_epi8(
                dst + t, keep, _mm512_xor_si512(d, _mm512_gf2p8mul_epi8(x, vc)));
        }
    }
}

/* block_shuffle with the GFNI lane multiply. */
INLINE GFNI_TARGET void block_gfni(const uint8_t *a, size_t n,
                                   const uint8_t *b, size_t b_stride,
                                   uint8_t *out, size_t out_stride,
                                   size_t rows, size_t lanes, __mmask64 last,
                                   int accumulate) {
    __m512i acc[MAX_ROWS][MAX_LANES];
    for (size_t j = 0; j < rows; j++)
        for (size_t l = 0; l < lanes; l++)
            acc[j][l] = accumulate ? _mm512_maskz_loadu_epi8(
                                         KEEP(l, lanes, last),
                                         out + j * out_stride + 64 * l)
                                   : _mm512_setzero_si512();
    for (size_t i = 0; i < n; i++) {
        uint8_t any = 0;
        for (size_t j = 0; j < rows; j++) any |= a[j * n + i];
        if (!any) continue;
        const uint8_t *src = b + i * b_stride;
        __m512i x[MAX_LANES];
        for (size_t l = 0; l < lanes; l++)
            x[l] = _mm512_maskz_loadu_epi8(KEEP(l, lanes, last), src + 64 * l);
        for (size_t j = 0; j < rows; j++) {
            __m512i vc = _mm512_set1_epi8((char)a[j * n + i]);
            for (size_t l = 0; l < lanes; l++)
                acc[j][l] = _mm512_xor_si512(
                    acc[j][l], _mm512_gf2p8mul_epi8(x[l], vc));
        }
    }
    for (size_t j = 0; j < rows; j++)
        for (size_t l = 0; l < lanes; l++)
            _mm512_mask_storeu_epi8(out + j * out_stride + 64 * l,
                                    KEEP(l, lanes, last), acc[j][l]);
}
#endif

/* One band of `rows` output rows across k columns: blocks of LANES
 * lanes, then single lanes, the last one byte-masked. */
#define BAND(block, LANES, a, n, b, b_stride, out, out_stride, k, rows, acc) \
    do {                                                                   \
        size_t t = 0;                                                      \
        for (; t + 64 * (LANES) <= (k); t += 64 * (LANES))                 \
            block(a, n, (b) + t, b_stride, (out) + t, out_stride, rows,    \
                  LANES, ~(__mmask64)0, acc);                              \
        for (; t < (k); t += 64)                                           \
            block(a, n, (b) + t, b_stride, (out) + t, out_stride, rows, 1, \
                  lane_mask((k) - t), acc);                                \
    } while (0)

/* The blocked kernels of one lane multiply:
 *
 * * matmul_<kind>: out = a @ b in bands of ROWS rows, then one-row
 *   bands for the rest;
 * * fold_<kind>: dst ^= XOR_i factors[i] * rows[i], a one-row band
 *   that accumulates into dst in registers, so a short row is not
 *   read back through memory after every pass. */
#define BLOCKED_KERNELS(kind, target, block, ROWS, LANES)                  \
    target static void matmul_##kind(const uint8_t *a, const uint8_t *b,  \
                                     uint8_t *out, size_t m, size_t n,    \
                                     size_t k, size_t out_stride) {       \
        size_t r = 0;                                                      \
        for (; r + (ROWS) <= m; r += (ROWS)) {                             \
            BAND(block, LANES, a, n, b, k, out, out_stride, k, ROWS, 0);   \
            a += (ROWS) * n;                                               \
            out += (ROWS) * out_stride;                                    \
        }                                                                  \
        for (; r < m; r++) {                                               \
            BAND(block, LANES, a, n, b, k, out, out_stride, k, 1, 0);      \
            a += n;                                                        \
            out += out_stride;                                             \
        }                                                                  \
    }                                                                      \
    target static void fold_##kind(uint8_t *dst, const uint8_t *rows,     \
                                   size_t row_stride,                      \
                                   const uint8_t *factors, size_t m,       \
                                   size_t k) {                             \
        BAND(block, LANES, factors, m, rows, row_stride, dst, 0, k, 1, 1); \
    }

BLOCKED_KERNELS(shuffle, AVX512_TARGET, block_shuffle, 8, 1)
#ifdef HAVE_GFNI
BLOCKED_KERNELS(gfni, GFNI_TARGET, block_gfni, 4, 4)
#endif

__attribute__((target("avx2")))
static void mul_add_avx2(uint8_t *dst, const uint8_t *src, size_t len,
                         uint8_t c) {
    __m256i vlo =
        _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)TLO[c]));
    __m256i vhi =
        _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)THI[c]));
    __m256i mask = _mm256_set1_epi8(0x0F);
    size_t t = 0;
    for (; t + 32 <= len; t += 32) {
        __m256i x = _mm256_loadu_si256((const __m256i *)(src + t));
        __m256i d = _mm256_loadu_si256((const __m256i *)(dst + t));
        __m256i pl = _mm256_shuffle_epi8(vlo, _mm256_and_si256(x, mask));
        __m256i ph = _mm256_shuffle_epi8(
            vhi, _mm256_and_si256(_mm256_srli_epi16(x, 4), mask));
        d = _mm256_xor_si256(d, _mm256_xor_si256(pl, ph));
        _mm256_storeu_si256((__m256i *)(dst + t), d);
    }
    if (t < len) mul_add_scalar(dst + t, src + t, len - t, c);
}

static int cpu_level = -1;

static int detect(void) {
    if (cpu_level < 0) {
        __builtin_cpu_init();
        cpu_level = LEVEL_SCALAR;
        if (__builtin_cpu_supports("avx2")) cpu_level = LEVEL_AVX2;
        if (__builtin_cpu_supports("avx512bw") &&
            __builtin_cpu_supports("avx512vl"))
            cpu_level = LEVEL_AVX512;
#ifdef HAVE_GFNI
        if (cpu_level == LEVEL_AVX512 && __builtin_cpu_supports("gfni"))
            cpu_level = LEVEL_GFNI;
#endif
    }
    return cpu_level < level_cap ? cpu_level : level_cap;
}

static mul_add_fn pick_mul_add(void) {
    switch (detect()) {
#ifdef HAVE_GFNI
    case LEVEL_GFNI: return mul_add_gfni;
#endif
    case LEVEL_AVX512: return mul_add_avx512;
    case LEVEL_AVX2: return mul_add_avx2;
    default: return mul_add_scalar;
    }
}

static void mul_add(uint8_t *dst, const uint8_t *src, size_t len,
                    uint8_t c) {
    pick_mul_add()(dst, src, len, c);
}

/* out = a @ b over GF(2^8): (m, n) x (n, k).  `out_stride` supports
 * strided destination views (e.g. a payload sub-matrix); a and b must
 * be C-contiguous. */
void gf256_matmul(const uint8_t *a, const uint8_t *b, uint8_t *out, size_t m,
                  size_t n, size_t k, size_t out_stride) {
    switch (detect()) {
#ifdef HAVE_GFNI
    case LEVEL_GFNI: matmul_gfni(a, b, out, m, n, k, out_stride); return;
#endif
    case LEVEL_AVX512: matmul_shuffle(a, b, out, m, n, k, out_stride); return;
    default: matmul_rows(a, b, out, m, n, k, out_stride, pick_mul_add());
    }
}

/* dst ^= XOR_i factors[i] * rows[i] (forward reduction). */
void gf256_fold_rows(uint8_t *dst, const uint8_t *rows, size_t row_stride,
                     const uint8_t *factors, size_t m, size_t k) {
    switch (detect()) {
#ifdef HAVE_GFNI
    case LEVEL_GFNI: fold_gfni(dst, rows, row_stride, factors, m, k); return;
#endif
    case LEVEL_AVX512: fold_shuffle(dst, rows, row_stride, factors, m, k); return;
    default: fold_rows_each(dst, rows, row_stride, factors, m, k, pick_mul_add());
    }
}
#else
static void mul_add(uint8_t *dst, const uint8_t *src, size_t len,
                    uint8_t c) {
    mul_add_scalar(dst, src, len, c);
}

static int detect(void) { return LEVEL_SCALAR; }

void gf256_matmul(const uint8_t *a, const uint8_t *b, uint8_t *out, size_t m,
                  size_t n, size_t k, size_t out_stride) {
    matmul_rows(a, b, out, m, n, k, out_stride, mul_add_scalar);
}

void gf256_fold_rows(uint8_t *dst, const uint8_t *rows, size_t row_stride,
                     const uint8_t *factors, size_t m, size_t k) {
    fold_rows_each(dst, rows, row_stride, factors, m, k, mul_add_scalar);
}
#endif

int gf256_simd_level(void) { return detect(); }

/* Bytes a region pass over the first `used` columns of a 2n-byte row
 * covers: rounded up to whole 64-byte vectors (the columns past `used`
 * are zero on both sides, so the extra lanes change nothing), capped at
 * the row.  This keeps the passes free of partial vectors. */
static size_t span(size_t used, size_t row_bytes) {
    size_t rounded = (used + 63) & ~(size_t)63;
    return rounded < row_bytes ? rounded : row_bytes;
}

/* Progressive Gauss-Jordan intake of a batch (the paper's single-
 * segment decoder, Sec. 3), one incoming row at a time.
 *
 * `work` is the (n, 2n) control plane [C | M] with rows [0, held) in
 * RREF and rows [held, n) zero; `pivot_cols[j]` is row j's pivot.  Each
 * of the m coefficient rows (n bytes, row stride `in_stride`) is
 * copied into the free row work[held] as [C | 0] and forward-reduced
 * there against every held row, including the rows this call accepted
 * earlier -- exact in sequence because the held rows stay in RREF, so
 * one row's fold never changes another pivot's factor.  A row with no
 * nonzero coefficient left is dependent: its slot is cleared again.
 * Otherwise its first nonzero column is the pivot, transform column
 * n + held is set to 1 before normalising (so the scale factor is
 * attributed to this raw row), and the new pivot is eliminated from
 * the held rows.  Accepted row indices go to `accepted`.
 *
 * Transform columns at or beyond n + held are zero in every held row
 * and in the row being reduced, so each region pass stops at the first
 * whole vector past them (`span`).  Returns the number of rows
 * accepted; stops early at full rank. */
static size_t absorb(uint8_t *work, size_t work_stride, size_t n, size_t held,
                     const uint8_t *incoming, size_t in_stride, size_t m,
                     int64_t *pivot_cols, int64_t *accepted) {
    size_t count = 0;
    for (size_t i = 0; i < m && held < n; i++) {
        uint8_t *row = work + held * work_stride;
        memcpy(row, incoming + i * in_stride, n);
        memset(row + n, 0, n);
        size_t width = span(n + held, 2 * n);
        for (size_t j = 0; j < held; j++) {
            uint8_t c = row[pivot_cols[j]];
            if (c) mul_add(row, work + j * work_stride, width, c);
        }
        size_t pivot = 0;
        while (pivot < n && row[pivot] == 0) pivot++;
        if (pivot == n) {
            memset(row, 0, width);
            continue;
        }
        row[n + held] = 1;
        width = span(n + held + 1, 2 * n);
        uint8_t lead = row[pivot];
        if (lead != 1) {
            const uint8_t *lo = TLO[INV[lead]], *hi = THI[INV[lead]];
            for (size_t t = 0; t < width; t++)
                row[t] = lo[row[t] & 0x0F] ^ hi[row[t] >> 4];
        }
        for (size_t j = 0; j < held; j++) {
            uint8_t *dst = work + j * work_stride;
            uint8_t c = dst[pivot];
            if (c) mul_add(dst, row, width, c);
        }
        pivot_cols[held] = (int64_t)pivot;
        accepted[count++] = (int64_t)i;
        held++;
    }
    return count;
}

/* The fields of one absorb job, a row of `count` uint64 words.  All
 * addresses and strides are in bytes; HELD is read and written back
 * (it grows by the rows the job accepted). */
enum {
    JOB_WORK,
    JOB_WORK_STRIDE,
    JOB_N,
    JOB_HELD,
    JOB_INCOMING,
    JOB_IN_STRIDE,
    JOB_M,
    JOB_PIVOTS,
    JOB_ACCEPTED,
    JOB_FIELDS
};

/* The library's one elimination entry point: `absorb` for each of
 * `count` jobs in order, in one call -- a receiving cohort's decoders,
 * or one matrix.  A job with m = 0 or held = n accepts nothing.
 * Returns the rows accepted over all jobs. */
size_t gf256_absorb_many(uint64_t *jobs, size_t count) {
    size_t total = 0;
    for (size_t j = 0; j < count; j++) {
        uint64_t *job = jobs + j * JOB_FIELDS;
        size_t accepted = absorb(
            (uint8_t *)(uintptr_t)job[JOB_WORK], (size_t)job[JOB_WORK_STRIDE],
            (size_t)job[JOB_N], (size_t)job[JOB_HELD],
            (const uint8_t *)(uintptr_t)job[JOB_INCOMING],
            (size_t)job[JOB_IN_STRIDE], (size_t)job[JOB_M],
            (int64_t *)(uintptr_t)job[JOB_PIVOTS],
            (int64_t *)(uintptr_t)job[JOB_ACCEPTED]);
        job[JOB_HELD] += accepted;
        total += accepted;
    }
    return total;
}
