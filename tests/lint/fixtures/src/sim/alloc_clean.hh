// Fixture: clean counterpart to alloc_bad.hh — the sanctioned
// replacements for every A-rule. Must produce zero diagnostics.
#ifndef FIXTURE_ALLOC_CLEAN_HH
#define FIXTURE_ALLOC_CLEAN_HH
#include "sim/hashing.hh"
#include "sim/inline_function.hh"
#include "sim/ring.hh"
#include "sim/types.hh"
#include <memory>
#include <unordered_map>
#include <vector>

namespace cenju
{
struct AllocClean
{
    InlineFunction<void()> onDone;
    std::unique_ptr<int> owned = std::make_unique<int>(7);
    std::unordered_map<std::uint32_t, int, U64MixHash> table;
    std::vector<char> buf = std::vector<char>(32);
    Ring<int> backlog;
};
} // namespace cenju
#endif
