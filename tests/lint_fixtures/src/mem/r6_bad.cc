// R6 fixture (bad): a second, runtime-dispatched tag compare. The CPU
// check, the target attribute, a target inside an attribute list and
// a target_clones attribute must each fail citing [R6-isa-dispatch].
#include <cstdint>

__attribute__((target("avx2"))) unsigned
matchLanesAvx2(const std::uint32_t *lanes, std::uint32_t tag);

__attribute__((hot, target("avx512f"))) unsigned
matchLanesAvx512(const std::uint32_t *lanes, std::uint32_t tag);

[[gnu::target_clones("avx2", "default")]] unsigned
matchLanesCloned(const std::uint32_t *lanes, std::uint32_t tag);

unsigned
matchLanes(const std::uint32_t *lanes, std::uint32_t tag)
{
    if (__builtin_cpu_supports("avx2"))
        return matchLanesAvx2(lanes, tag);
    return lanes[0] == tag;
}
