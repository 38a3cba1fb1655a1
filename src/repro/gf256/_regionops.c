/* Wide-word GF(2^8) region operations: the `wide` engine backend.
 *
 * One pass per output row, fused multiply-accumulate: for each source
 * row the coefficient's two 16-entry nibble tables (low nibble, high
 * nibble) are broadcast into vector registers and every 64/32-byte
 * lane of the row is resolved with two in-register shuffles and two
 * XORs -- the shuffle-mul dataflow of the AVX512 GF-arithmetic paper
 * (arXiv:1909.02871), which is itself the vector form of
 * `c*x = T_lo[c][x & 0xF] ^ T_hi[c][x >> 4]`.
 *
 * The file is dependency-free C compiled on demand by
 * `repro.gf256.regionops` with whatever `cc` the host has.  Dispatch
 * between the AVX-512BW, AVX2 and portable scalar loops happens once
 * at runtime via `__builtin_cpu_supports`, so one shared object works
 * on any x86-64 host; non-x86 builds keep only the scalar loop.
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
                           const uint8_t *lo, const uint8_t *hi) {
    for (size_t t = 0; t < len; t++) {
        uint8_t x = src[t];
        dst[t] ^= lo[x & 0x0F] ^ hi[x >> 4];
    }
}

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>

__attribute__((target("avx512bw,avx512vl")))
static void mul_add_avx512(uint8_t *dst, const uint8_t *src, size_t len,
                           const uint8_t *lo, const uint8_t *hi) {
    __m512i vlo = _mm512_broadcast_i32x4(_mm_loadu_si128((const __m128i *)lo));
    __m512i vhi = _mm512_broadcast_i32x4(_mm_loadu_si128((const __m128i *)hi));
    __m512i mask = _mm512_set1_epi8(0x0F);
    size_t t = 0;
    for (; t + 64 <= len; t += 64) {
        __m512i x = _mm512_loadu_si512((const void *)(src + t));
        __m512i d = _mm512_loadu_si512((const void *)(dst + t));
        __m512i pl = _mm512_shuffle_epi8(vlo, _mm512_and_si512(x, mask));
        __m512i ph = _mm512_shuffle_epi8(
            vhi, _mm512_and_si512(_mm512_srli_epi16(x, 4), mask));
        d = _mm512_xor_si512(d, _mm512_xor_si512(pl, ph));
        _mm512_storeu_si512((void *)(dst + t), d);
    }
    if (t < len) mul_add_scalar(dst + t, src + t, len - t, lo, hi);
}

__attribute__((target("avx2")))
static void mul_add_avx2(uint8_t *dst, const uint8_t *src, size_t len,
                         const uint8_t *lo, const uint8_t *hi) {
    __m256i vlo =
        _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)lo));
    __m256i vhi =
        _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)hi));
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
    if (t < len) mul_add_scalar(dst + t, src + t, len - t, lo, hi);
}

static int cpu_level = -1; /* 2 = AVX-512BW, 1 = AVX2, 0 = scalar */

static int detect(void) {
    if (cpu_level < 0) {
        __builtin_cpu_init();
        if (__builtin_cpu_supports("avx512bw") &&
            __builtin_cpu_supports("avx512vl"))
            cpu_level = 2;
        else if (__builtin_cpu_supports("avx2"))
            cpu_level = 1;
        else
            cpu_level = 0;
    }
    return cpu_level;
}

static void mul_add(uint8_t *dst, const uint8_t *src, size_t len,
                    const uint8_t *lo, const uint8_t *hi) {
    switch (detect()) {
    case 2: mul_add_avx512(dst, src, len, lo, hi); break;
    case 1: mul_add_avx2(dst, src, len, lo, hi); break;
    default: mul_add_scalar(dst, src, len, lo, hi); break;
    }
}
#else
static void mul_add(uint8_t *dst, const uint8_t *src, size_t len,
                    const uint8_t *lo, const uint8_t *hi) {
    mul_add_scalar(dst, src, len, lo, hi);
}

static int detect(void) { return 0; }
#endif

int gf256_simd_level(void) { return detect(); }

/* dst ^= c * src over len bytes. */
void gf256_mul_add_region(uint8_t *dst, const uint8_t *src, size_t len,
                          uint8_t c) {
    if (c == 0) return;
    mul_add(dst, src, len, TLO[c], THI[c]);
}

/* out = a @ b over GF(2^8): (m, n) x (n, k), one region pass per
 * (output row, nonzero coefficient) pair, accumulator never leaves the
 * output row.  `out_stride` supports strided destination views (e.g. a
 * payload sub-matrix); a and b must be C-contiguous. */
void gf256_matmul(const uint8_t *a, const uint8_t *b, uint8_t *out, size_t m,
                  size_t n, size_t k, size_t out_stride) {
    for (size_t r = 0; r < m; r++) {
        uint8_t *acc = out + r * out_stride;
        const uint8_t *arow = a + r * n;
        memset(acc, 0, k);
        for (size_t i = 0; i < n; i++) {
            uint8_t c = arow[i];
            if (c) mul_add(acc, b + i * k, k, TLO[c], THI[c]);
        }
    }
}

/* dst[r] ^= factors[r] * src for each of m rows (back-elimination). */
void gf256_axpy_rows(uint8_t *dst, size_t dst_stride, const uint8_t *src,
                     const uint8_t *factors, size_t m, size_t k) {
    for (size_t r = 0; r < m; r++) {
        uint8_t c = factors[r];
        if (c) mul_add(dst + r * dst_stride, src, k, TLO[c], THI[c]);
    }
}

/* dst ^= XOR_i factors[i] * rows[i] (forward reduction). */
void gf256_fold_rows(uint8_t *dst, const uint8_t *rows, size_t row_stride,
                     const uint8_t *factors, size_t m, size_t k) {
    for (size_t i = 0; i < m; i++) {
        uint8_t c = factors[i];
        if (c) mul_add(dst, rows + i * row_stride, k, TLO[c], THI[c]);
    }
}

/* Bytes a region pass over the first `used` columns of a 2n-byte row
 * covers: rounded up to whole 64-byte vectors (the columns past `used`
 * are zero on both sides, so the extra lanes change nothing), capped at
 * the row.  This keeps the passes free of scalar tails. */
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
size_t gf256_absorb(uint8_t *work, size_t work_stride, size_t n, size_t held,
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
            if (c) mul_add(row, work + j * work_stride, width, TLO[c], THI[c]);
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
            if (c) mul_add(dst, row, width, TLO[c], THI[c]);
        }
        pivot_cols[held] = (int64_t)pivot;
        accepted[count++] = (int64_t)i;
        held++;
    }
    return count;
}
