/**
 * @file
 * A miniature persistent key-value store on top of the protected rank —
 * the workload class the paper's introduction motivates (echo,
 * memcached). Values live in protected persistent memory; every update
 * is undo-logged WHISPER-style (log block + value block). The demo
 * interleaves updates with error injection at runtime rates, crashes,
 * "reboots" with a scrub (plus a chip failure on the second crash), and
 * verifies that every committed value survives bit-exactly.
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "chipkill/pm_rank.hh"
#include "common/env.hh"
#include "reliability/error_model.hh"

using namespace nvck;

namespace {

/** Fixed-size keys/values so one pair fits a 64B block. */
struct Record
{
    char key[24];
    char value[40];
};
static_assert(sizeof(Record) == blockBytes, "record must fill a block");

/** The store: block 2i = undo log slot, block 2i+1 = record i. */
class MiniKvStore
{
  public:
    explicit MiniKvStore(unsigned capacity)
        : rank(2 * ((capacity + 31) / 32) * 32), cap(capacity)
    {
        Rng init_rng(7);
        rank.initialize(init_rng);
    }

    void
    put(const std::string &key, const std::string &value)
    {
        unsigned slot;
        auto it = directory.find(key);
        if (it != directory.end()) {
            slot = it->second;
        } else {
            slot = static_cast<unsigned>(directory.size());
            if (slot >= cap) {
                std::printf("store full\n");
                return;
            }
            directory[key] = slot;
        }
        Record rec{};
        std::snprintf(rec.key, sizeof(rec.key), "%s", key.c_str());
        std::snprintf(rec.value, sizeof(rec.value), "%s",
                      value.c_str());
        // Undo log first (old value), then the data block: the order
        // the clwb+fence discipline enforces in the real system.
        std::uint8_t old_rec[blockBytes];
        rank.goldenBlock(dataBlock(slot), old_rec);
        rank.writeBlock(logBlock(slot), old_rec);
        rank.writeBlock(dataBlock(slot),
                        reinterpret_cast<const std::uint8_t *>(&rec));
    }

    /** Get through the full runtime correction path. */
    bool
    get(const std::string &key, std::string &value_out,
        ReadPath *path_out = nullptr)
    {
        auto it = directory.find(key);
        if (it == directory.end())
            return false;
        Record rec;
        const auto res = rank.readBlock(
            dataBlock(it->second),
            reinterpret_cast<std::uint8_t *>(&rec));
        if (path_out != nullptr)
            *path_out = res.path;
        if (res.path == ReadPath::Failed)
            return false;
        value_out.assign(rec.value);
        return true;
    }

    PmRank &memory() { return rank; }

  private:
    unsigned logBlock(unsigned slot) const { return 2 * slot; }
    unsigned dataBlock(unsigned slot) const { return 2 * slot + 1; }

    PmRank rank;
    unsigned cap;
    std::map<std::string, unsigned> directory;
};

} // namespace

int
main(int argc, char **argv)
{
    rejectArguments(argc, argv);
    MiniKvStore store(256);
    Rng rng(99);

    std::printf("mini persistent KV store on the protected rank\n\n");

    // Phase 1: populate and continuously age the memory at the PCM
    // hourly-refresh RBER.
    std::vector<std::pair<std::string, std::string>> truth;
    for (int i = 0; i < 200; ++i) {
        const std::string key = "user:" + std::to_string(i);
        const std::string value =
            "balance=" + std::to_string(i * 37 % 1000);
        store.put(key, value);
        truth.emplace_back(key, value);
        if (i % 10 == 9)
            store.memory().injectErrors(rng,
                                        rber::runtimePcm3Hourly);
    }

    // Verify through the runtime read path.
    unsigned ok = 0, rs_fixed = 0, vlew_fixed = 0;
    for (const auto &[key, expect] : truth) {
        std::string got;
        ReadPath path;
        if (store.get(key, got, &path) && got == expect) {
            ++ok;
            if (path == ReadPath::RsAccepted)
                ++rs_fixed;
            if (path == ReadPath::VlewFallback)
                ++vlew_fixed;
        }
    }
    std::printf("runtime phase: %u/200 gets correct (%u via RS "
                "correction, %u via VLEW fallback)\n",
                ok, rs_fixed, vlew_fixed);

    // Phase 2: crash; a week passes unrefreshed; reboot scrubs.
    store.memory().injectErrors(
        rng, rberAfter(MemTech::Pcm3, secondsPerWeek));
    const auto scrub = store.memory().bootScrub();
    std::printf("reboot after a week offline: %llu bits scrubbed, "
                "uncorrectable=%s\n",
                static_cast<unsigned long long>(scrub.bitsCorrected),
                scrub.uncorrectable ? "YES" : "no");

    // Phase 3: a chip dies during the next outage.
    store.memory().failChip(6, rng);
    store.memory().injectErrors(rng, 1e-4);
    const auto scrub2 = store.memory().bootScrub();
    std::printf("reboot after chip 6 failure: %u chip(s) rebuilt, "
                "uncorrectable=%s\n",
                scrub2.chipsRecovered,
                scrub2.uncorrectable ? "YES" : "no");

    unsigned final_ok = 0;
    for (const auto &[key, expect] : truth) {
        std::string got;
        if (store.get(key, got) && got == expect)
            ++final_ok;
    }
    std::printf("after both outages: %u/200 committed values intact\n",
                final_ok);
    return final_ok == 200 ? 0 : 1;
}
