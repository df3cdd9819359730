/* SHA-256 block compression on the x86-64 SHA extensions (SHA-NI).

   Two primitives back [Sha256] in sha256.ml:

   - [rdb_sha256_ni_probe] asks CPUID whether this CPU has the SHA
     extensions and the SSSE3/SSE4.1 shuffles the kernel also needs.
     sha256.ml calls it once, at module initialisation, and keeps the
     answer in an OCaml value; nothing here is cached in a C global.
   - [rdb_sha256_ni_blocks] compresses [n] whole 64-byte blocks of a
     [bytes] value into an 8-word chaining state held in an OCaml
     [int array] (one 32-bit word per element).

   Both are [@@noalloc]: they allocate nothing, raise nothing and never
   release the runtime lock, so the block pointer stays valid for the
   whole call.  The state array only ever holds immediates, so its
   fields are written directly.  The caller checks the byte range.

   On other targets (or compilers without x86 intrinsics) the probe
   answers false and the OCaml compression function runs instead; the
   kernel entry point still exists so the library links, and is never
   called. */

#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <cpuid.h>
#include <immintrin.h>

#define RDB_SHA_NI 1

static const uint32_t k256[64] __attribute__((aligned(16))) = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

/* Four rounds on message words [m] (already big-endian-swapped) and
   round constants k256[4i .. 4i+3].  The state is kept in the layout
   sha256rnds2 wants: [abef] = (a, b, e, f), [cdgh] = (c, d, g, h). */
#define ROUNDS4(m, i)                                                        \
  do {                                                                       \
    __m128i wk_ = _mm_add_epi32((m), _mm_load_si128((const __m128i *)&k256[4 * (i)])); \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk_);                           \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk_, 0x0E));  \
  } while (0)

/* Next four schedule words from the previous sixteen, oldest first:
   W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16]. */
#define SCHEDULE(w0, w1, w2, w3)                                             \
  (w0) = _mm_sha256msg2_epu32(                                               \
      _mm_add_epi32(_mm_sha256msg1_epu32((w0), (w1)), _mm_alignr_epi8((w3), (w2), 4)), \
      (w3))

__attribute__((target("sha,sse4.1,ssse3")))
static void sha256_ni_blocks(uint32_t st[8], const uint8_t *p, intnat n)
{
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128((const __m128i *)&st[0]);
  __m128i hgfe = _mm_loadu_si128((const __m128i *)&st[4]);
  __m128i badc = _mm_shuffle_epi32(dcba, 0xB1);
  hgfe = _mm_shuffle_epi32(hgfe, 0x1B);                  /* e f g h */
  __m128i abef = _mm_alignr_epi8(badc, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, badc, 0xF0);

  for (; n > 0; n--, p += 64) {
    __m128i abef0 = abef, cdgh0 = cdgh;
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 0)), bswap);
    __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
    ROUNDS4(m0, 0);
    ROUNDS4(m1, 1);
    ROUNDS4(m2, 2);
    ROUNDS4(m3, 3);
    for (int i = 4; i < 16; i += 4) {
      SCHEDULE(m0, m1, m2, m3);
      ROUNDS4(m0, i);
      SCHEDULE(m1, m2, m3, m0);
      ROUNDS4(m1, i + 1);
      SCHEDULE(m2, m3, m0, m1);
      ROUNDS4(m2, i + 2);
      SCHEDULE(m3, m0, m1, m2);
      ROUNDS4(m3, i + 3);
    }
    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128((__m128i *)&st[0], _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128((__m128i *)&st[4], _mm_alignr_epi8(dchg, feba, 8));
}

static int sha_ni_present(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  if (!(c & bit_SSSE3) || !(c & bit_SSE4_1)) return 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  return (b & bit_SHA) != 0;
}

#else

#define RDB_SHA_NI 0

#endif

value rdb_sha256_ni_probe(value unit)
{
  (void)unit;
#if RDB_SHA_NI
  return Val_bool(sha_ni_present());
#else
  return Val_false;
#endif
}

value rdb_sha256_ni_blocks(value h, value data, intnat off, intnat n)
{
#if RDB_SHA_NI
  uint32_t st[8];
  for (int i = 0; i < 8; i++) st[i] = (uint32_t)Long_val(Field(h, i));
  sha256_ni_blocks(st, (const uint8_t *)Bytes_val(data) + off, n);
  for (int i = 0; i < 8; i++) Field(h, i) = Val_long(st[i]);
#else
  (void)h;
  (void)data;
  (void)off;
  (void)n;
#endif
  return Val_unit;
}

value rdb_sha256_ni_blocks_byte(value h, value data, value off, value n)
{
  return rdb_sha256_ni_blocks(h, data, Long_val(off), Long_val(n));
}
