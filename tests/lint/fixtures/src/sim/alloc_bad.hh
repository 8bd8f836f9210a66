// Fixture: hot-path allocation rules (A001-A006) inside a
// pool-governed module (src/sim). One violation per marked line;
// test_lint.cc asserts the exact (rule, line) pairs.
#ifndef FIXTURE_ALLOC_BAD_HH
#define FIXTURE_ALLOC_BAD_HH
#include "sim/types.hh"
#include <functional>
#include <memory>
#include <unordered_map>

namespace cenju
{
struct AllocBad
{
    void touch()
    {
        void *raw = malloc(64);            // line 17: A001
        free(raw);                         // line 18: A001
        _buf = new char[32];               // line 19: A005
        delete[] _buf;                     // line 20: A005
    }

    std::function<void()> onDone;          // line 23: A002
    std::shared_ptr<int> shared = std::make_shared<int>(7); // line 24: A003
    std::unordered_map<std::uint32_t, int> table;           // line 25: A004
    std::deque<int> backlog;                                // line 26: A006
    char *_buf = nullptr;
};
} // namespace cenju
#endif
