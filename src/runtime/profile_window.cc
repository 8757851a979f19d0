#include "runtime/profile_window.hh"

#include <algorithm>

#include "support/panic.hh"

namespace pep::runtime {

namespace {

std::vector<std::vector<std::vector<double>>>
shapedLike(const std::vector<const bytecode::MethodCfg *> &cfgs)
{
    std::vector<std::vector<std::vector<double>>> table;
    table.resize(cfgs.size());
    for (std::size_t m = 0; m < cfgs.size(); ++m) {
        const cfg::Graph &graph = cfgs[m]->graph;
        table[m].resize(graph.numBlocks());
        for (cfg::BlockId b = 0; b < graph.numBlocks(); ++b)
            table[m][b].assign(graph.succs(b).size(), 0.0);
    }
    return table;
}

} // namespace

WindowedProfile::WindowedProfile(
    const std::vector<const bytecode::MethodCfg *> &cfgs, double decay)
    : decay_(decay)
{
    PEP_ASSERT(decay >= 0.0 && decay < 1.0);
    edgeWindow_ = shapedLike(cfgs);
    edgeEpoch_ = shapedLike(cfgs);
}

void
WindowedProfile::addEdge(bytecode::MethodId method, cfg::EdgeRef edge,
                         std::uint64_t n)
{
    edgeEpoch_[method][edge.src][edge.index] +=
        static_cast<double>(n);
}

void
WindowedProfile::addPath(bytecode::MethodId method,
                         std::uint64_t path_number, std::uint64_t n)
{
    pathEpoch_[{method, path_number}] += static_cast<double>(n);
}

void
WindowedProfile::advance()
{
    double epoch_mass = 0.0;
    for (std::size_t m = 0; m < edgeEpoch_.size(); ++m)
        for (std::size_t b = 0; b < edgeEpoch_[m].size(); ++b)
            for (std::size_t i = 0; i < edgeEpoch_[m][b].size(); ++i)
                epoch_mass += edgeEpoch_[m][b][i];
    for (const auto &[key, weight] : pathEpoch_)
        epoch_mass += weight;

    // Age the held mass by one epoch, then let the fresh epoch enter
    // at age zero; the held mean age is the mass-weighted mix.
    const double aged_mass = decay_ * mass_;
    const double total = aged_mass + epoch_mass;
    meanAgeEpochs_ =
        total > 0.0 ? aged_mass * (meanAgeEpochs_ + 1.0) / total : 0.0;
    mass_ = total;

    for (std::size_t m = 0; m < edgeWindow_.size(); ++m) {
        for (std::size_t b = 0; b < edgeWindow_[m].size(); ++b) {
            for (std::size_t i = 0; i < edgeWindow_[m][b].size(); ++i) {
                double &w = edgeWindow_[m][b][i];
                w = decay_ * w + edgeEpoch_[m][b][i];
                edgeEpoch_[m][b][i] = 0.0;
            }
        }
    }

    for (auto &[key, weight] : pathWindow_)
        weight *= decay_;
    for (const auto &[key, weight] : pathEpoch_)
        pathWindow_[key] += weight;
    pathEpoch_.clear();

    // Bounded memory over indefinite runs: paths from dead phases
    // decay below epsilon and leave the table.
    for (auto it = pathWindow_.begin(); it != pathWindow_.end();) {
        if (it->second < kWindowPruneEpsilon)
            it = pathWindow_.erase(it);
        else
            ++it;
    }

    ++advances_;
}

void
WindowedProfile::merge(const WindowedProfile &other)
{
    if (edgeWindow_.empty()) {
        *this = other;
        return;
    }
    PEP_ASSERT(edgeWindow_.size() == other.edgeWindow_.size());

    const double total = mass_ + other.mass_;
    meanAgeEpochs_ = total > 0.0
                         ? (mass_ * meanAgeEpochs_ +
                            other.mass_ * other.meanAgeEpochs_) /
                               total
                         : 0.0;
    mass_ = total;
    advances_ = std::max(advances_, other.advances_);

    for (std::size_t m = 0; m < edgeWindow_.size(); ++m)
        for (std::size_t b = 0; b < edgeWindow_[m].size(); ++b)
            for (std::size_t i = 0; i < edgeWindow_[m][b].size(); ++i)
                edgeWindow_[m][b][i] += other.edgeWindow_[m][b][i];
    for (const auto &[key, weight] : other.pathWindow_)
        pathWindow_[key] += weight;
}

} // namespace pep::runtime
