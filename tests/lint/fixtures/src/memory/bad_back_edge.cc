// Fixture: the memory leaf may include sim/ only — reaching back
// into the engines that use its queues is a layering cycle (L001).
// Line numbers are asserted by test_lint.cc.
#include "protocol/home.hh"
#include "node/dsm_node.hh"
#include "sim/types.hh"

namespace cenju
{
void memoryFixture() {}
} // namespace cenju
