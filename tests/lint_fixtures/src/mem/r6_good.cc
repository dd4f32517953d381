// R6 fixture (good): one tag compare in the build's baseline ISA. The
// words __builtin_cpu_supports and target("avx2") appear only in this
// comment, and a function merely named target() is no attribute.
// mclock_lint must exit 0.
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

struct Way
{
    std::uint32_t tag;
    std::uint32_t target() const { return tag; }
};

[[nodiscard]] __attribute__((always_inline)) inline unsigned
matchLanes(const std::uint32_t *lanes, std::uint32_t tag)
{
#if defined(__SSE2__)
    const __m128i row = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(lanes));
    return static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(
        _mm_cmpeq_epi32(row, _mm_set1_epi32(static_cast<int>(tag))))));
#else
    unsigned mask = 0;
    for (unsigned l = 0; l < 4; ++l)
        mask |= static_cast<unsigned>(lanes[l] == tag) << l;
    return mask;
#endif
}
