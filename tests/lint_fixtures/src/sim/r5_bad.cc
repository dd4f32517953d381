// R5 fixture (bad): a thread object and a thread container declared
// with no audit annotation, and one with an annotation but no reason.
// mclock_lint must fail citing [R5-thread-spawn] for all three.
#include <thread>
#include <vector>

void
unauditedThreads()
{
    std::thread worker([] {});
    std::vector<std::jthread> helpers;
    helpers.emplace_back([] {});
    // mclock-lint: thread-ok()
    std::thread bare([] {});
    worker.join();
    bare.join();
}
