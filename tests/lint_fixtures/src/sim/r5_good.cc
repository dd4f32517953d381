// R5 fixture (good): every thread object and container carries an
// audit with a written reason, and a std::thread:: static call
// declares no thread. mclock_lint must exit 0.
#include <thread>
#include <vector>

unsigned
auditedThreads()
{
    // mclock-lint: thread-ok(joined below; touches nothing shared)
    std::thread worker([] {});
    // mclock-lint: thread-ok(joined when the vector dies; helpers touch only their own slot)
    std::vector<std::jthread> helpers;
    helpers.emplace_back([] {});
    worker.join();
    return std::thread::hardware_concurrency();
}
