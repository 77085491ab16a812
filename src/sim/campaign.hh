/**
 * @file
 * The one campaign driver every oracle-checked campaign (crash,
 * syscrash, ras, spare) runs through, and the field tables that make
 * their tallies data instead of hand-summed structs.
 *
 * A tally lists each counter once in a static `fields()` table (JSON
 * key, table column label, member pointer, fold rule); its sum, its
 * violation count, its table rows and its JSON report are generated
 * from that table. runCampaign() declares one ParallelSweep point per
 * chunk of a row's trials, labelled "<row label> #<chunk>" in row
 * order, so Rng substreams and --points/--filter selection depend on
 * the row list alone.
 */

#ifndef NVCK_SIM_CAMPAIGN_HH
#define NVCK_SIM_CAMPAIGN_HH

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/table.hh"
#include "sim/parallel.hh"

namespace nvck {

/** How a tally counter folds when two tallies are added. */
enum class TallyRule
{
    Sum,       //!< counts add
    Max,       //!< a worst case: the larger value wins
    Violation, //!< counts add; any non-zero count fails the oracle
};

/** One registered counter of @p Tally. */
template <typename Tally>
struct TallyField
{
    const char *key;    //!< JSON key
    const char *column; //!< default table column label
    std::uint64_t Tally::*member;
    TallyRule rule;
};

/** CRTP base generating `+=` and the violation count from the
 *  tally's static `fields()` table. */
template <typename Tally>
struct TallyBase
{
    Tally &
    operator+=(const Tally &other)
    {
        Tally &self = static_cast<Tally &>(*this);
        for (const auto &f : Tally::fields()) {
            if (f.rule == TallyRule::Max)
                self.*f.member = std::max(self.*f.member, other.*f.member);
            else
                self.*f.member += other.*f.member;
        }
        return self;
    }

    /** Sum of every Violation-rule counter. */
    std::uint64_t
    violationCount() const
    {
        std::uint64_t n = 0;
        for (const auto &f : Tally::fields()) {
            if (f.rule == TallyRule::Violation)
                n += static_cast<const Tally &>(*this).*f.member;
        }
        return n;
    }
};

/** A table column: a registered field, optionally relabelled. */
template <typename Tally>
struct TallyColumn
{
    std::uint64_t Tally::*member;
    const char *label = nullptr; //!< nullptr = the field's own label
};

/** The row-label header and the columns; none = every field. */
template <typename Tally>
struct CampaignTable
{
    const char *rowHeader;
    std::vector<TallyColumn<Tally>> columns;
};

/** One campaign row: a table line and the trials that feed it. */
struct CampaignRow
{
    std::string label;
    std::uint64_t trials = 0;
};

/** Row @p row's share of @p trials split over @p rows rows. */
inline std::uint64_t
evenShare(std::uint64_t trials, std::size_t rows, std::size_t row)
{
    return trials / rows + (row < trials % rows ? 1 : 0);
}

/** Per-row tallies of one campaign run. */
template <typename Tally>
struct CampaignTotals
{
    std::vector<std::string> labels;
    std::vector<Tally> rows;
    /** The fields the table printed, in column order. */
    std::vector<const TallyField<Tally> *> columns;

    const Tally &
    row(const std::string &label) const
    {
        const auto it = std::find(labels.begin(), labels.end(), label);
        NVCK_ASSERT(it != labels.end(), "no campaign row ", label);
        return rows[static_cast<std::size_t>(it - labels.begin())];
    }

    Tally
    total() const
    {
        Tally sum{};
        for (const Tally &r : rows)
            sum += r;
        return sum;
    }

    std::uint64_t violations() const { return total().violationCount(); }
};

/**
 * Run @p rows through @p chunk — `Tally(row index, batch, Rng &)` on
 * at most @p chunk_trials trials — as one ParallelSweep, print the
 * table (one line per row, then "total") to @p os and return the
 * totals. Byte-identical for any worker count at a fixed seed.
 */
template <typename Tally, typename Chunk>
CampaignTotals<Tally>
runCampaign(std::ostream &os, const SweepOptions &opts,
            std::uint64_t seed, unsigned chunk_trials,
            const std::vector<CampaignRow> &rows,
            const CampaignTable<Tally> &table, const Chunk &chunk)
{
    NVCK_ASSERT(chunk_trials > 0, "empty campaign chunks");
    ParallelSweep<std::pair<std::size_t, Tally>> sweep(seed, opts);
    CampaignTotals<Tally> totals;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        totals.labels.push_back(rows[r].label);
        std::uint64_t remaining = rows[r].trials;
        for (unsigned c = 0; remaining > 0; ++c) {
            const auto batch =
                std::min<std::uint64_t>(remaining, chunk_trials);
            remaining -= batch;
            sweep.add(rows[r].label + " #" + std::to_string(c),
                      [&chunk, r, batch](Rng &rng) {
                          return std::make_pair(r, chunk(r, batch, rng));
                      });
        }
    }
    totals.rows.resize(rows.size());
    for (const auto &out : sweep.run())
        totals.rows[out.value.first] += out.value.second;

    const auto fields = Tally::fields();
    std::vector<std::string> header{table.rowHeader};
    if (table.columns.empty()) {
        for (const auto &f : fields) {
            totals.columns.push_back(&f);
            header.push_back(f.column);
        }
    }
    for (const auto &c : table.columns) {
        const auto f = std::find_if(
            fields.begin(), fields.end(),
            [&c](const auto &field) { return field.member == c.member; });
        NVCK_ASSERT(f != fields.end(), "column of an unregistered field");
        totals.columns.push_back(&*f);
        header.push_back(c.label ? c.label : f->column);
    }
    Table t(header);
    for (std::size_t r = 0; r <= rows.size(); ++r) {
        const bool total = r == rows.size();
        const Tally tally = total ? totals.total() : totals.rows[r];
        t.row().cell(total ? std::string("total") : rows[r].label);
        for (const auto *f : totals.columns)
            t.cell(tally.*f->member);
    }
    t.print(os);
    return totals;
}

} // namespace nvck

#endif // NVCK_SIM_CAMPAIGN_HH
