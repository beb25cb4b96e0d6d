/**
 * @file
 * Seeded mutation fuzzer for the sweep's cell specs, the text behind
 * `--cells Config/spec`, `--workloads` and `@scale=`.
 *
 * Valid specs are mutated by byte flips, truncations, spliced
 * `@scale=` values and swapped `app:`/`kernel:`/`trace:` prefixes.
 * Every mutant must come back as an error Status or as a cell, and
 * every cell must carry a finite, non-negative scale override: the
 * value later cast to a workload size.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/rng.hh"
#include "core/sweep.hh"

using namespace hetsim;
using namespace hetsim::core;

namespace
{

const char *const kSeeds[] = {
    "app:fft",          "app:fft@scale=2.5", "kernel:dct@scale=0.5",
    "trace:/tmp/x.trace", "lu",              "fft@scale=1e-3",
    "kernel:matrixmul", "app:lock_heavy@scale=0.2",
};

const char *const kScales[] = {
    "inf", "-inf", "nan", "1e999", "1e-400", "4.9e-324", "0", "-0",
    "-1", "", "1.5", ".5", "2.", "1e", "1abc", "+3", " 1", "0x1p-3",
    "1e308", "@", "scale=1",
};

const char *const kPrefixes[] = {"app:", "kernel:", "trace:", ""};

const char *const kConfigs[] = {"BaseCMOS", "AdvHet", "AdvHet-2X",
                                "bogus", ""};

template <size_t N>
const char *
pick(Rng &rng, const char *const (&list)[N])
{
    return list[rng.range(N)];
}

/** One random mutation of `s`. */
std::string
mutate(Rng &rng, std::string s)
{
    switch (rng.range(4)) {
      case 0: // Flip a bit, or overwrite a byte with any value.
        if (!s.empty()) {
            char &c = s[rng.range(s.size())];
            if (rng.range(2) == 0)
                c = static_cast<char>(c ^ (1 << rng.range(8)));
            else
                c = static_cast<char>(rng.range(256));
        }
        return s;
      case 1: // Truncate.
        return s.substr(0, rng.range(s.size() + 1));
      case 2: // Splice an @scale= value, replacing any option.
      {
        const size_t at = s.find('@');
        const std::string head =
            at == std::string::npos ? s : s.substr(0, at);
        return head + "@scale=" + pick(rng, kScales);
      }
      default: // Swap or add a kind prefix.
      {
        for (const char *p : kPrefixes) {
            const std::string prefix = p;
            if (!prefix.empty() && s.rfind(prefix, 0) == 0) {
                s = s.substr(prefix.size());
                break;
            }
        }
        return pick(rng, kPrefixes) + s;
      }
    }
}

/** A returned cell's scale is one a workload can be sized by. */
void
checkCell(const Result<SweepCell> &cell, const std::string &spec)
{
    if (!cell.ok()) {
        EXPECT_FALSE(cell.status().ok()) << spec;
        return;
    }
    const double scale = cell.value().scaleOverride;
    EXPECT_TRUE(std::isfinite(scale) && scale >= 0.0)
        << "spec '" << spec << "' gave scale " << scale;
    EXPECT_FALSE(cell.value().workload.empty()) << spec;
}

} // namespace

TEST(SpecFuzz, MutatedSpecsGiveAStatusOrASaneCell)
{
    size_t accepted = 0, rejected = 0;
    for (uint64_t seed = 1; seed <= 4000; ++seed) {
        Rng rng(seed);
        std::string spec = pick(rng, kSeeds);
        const int rounds = 1 + static_cast<int>(rng.range(3));
        for (int i = 0; i < rounds; ++i)
            spec = mutate(rng, spec);

        const Result<SweepCell> cell = parseWorkloadSpec(spec);
        checkCell(cell, spec);
        (cell.ok() ? accepted : rejected) += 1;
        checkCell(parseCellEntry(pick(rng, kConfigs), spec), spec);
    }
    // The mutants must exercise both the accepting and the rejecting
    // paths, or the fuzzer tests nothing.
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 100u);
}
