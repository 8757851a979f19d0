#include "opt/profile_consumer.hh"

#include <algorithm>
#include <cmath>

#include "core/pep_profiler.hh"
#include "profile/kpath.hh"
#include "profile/reconstruct.hh"
#include "runtime/profile_window.hh"
#include "support/panic.hh"
#include "vm/machine.hh"

namespace pep::opt {

const profile::MethodEdgeProfile *
LayoutSourceConsumer::edges(bytecode::MethodId method)
{
    return source_.layoutProfile(method);
}

WindowedProfileConsumer::WindowedProfileConsumer(
    const vm::Machine &machine, const runtime::WindowedProfile &window)
    : machine_(machine), window_(window)
{
}

void
WindowedProfileConsumer::refresh()
{
    if (builtAtAdvance_ == window_.advances())
        return;
    builtAtAdvance_ = window_.advances();

    const auto &weights = window_.edgeWeights();
    materialized_.clear();
    materialized_.reserve(machine_.numMethods());
    for (std::size_t m = 0; m < machine_.numMethods(); ++m) {
        const bytecode::MethodCfg &cfg =
            machine_.info(static_cast<bytecode::MethodId>(m)).cfg;
        profile::MethodEdgeProfile profile(cfg);
        if (m < weights.size()) {
            const auto &per_block = weights[m];
            for (cfg::BlockId b = 0; b < per_block.size(); ++b) {
                for (std::uint32_t i = 0; i < per_block[b].size(); ++i) {
                    const auto n = static_cast<std::uint64_t>(
                        std::llround(per_block[b][i]));
                    if (n > 0)
                        profile.addEdge({b, i}, n);
                }
            }
        }
        materialized_.push_back(std::move(profile));
    }
}

const profile::MethodEdgeProfile *
WindowedProfileConsumer::edges(bytecode::MethodId method)
{
    refresh();
    if (method >= materialized_.size())
        return nullptr;
    const profile::MethodEdgeProfile &p = materialized_[method];
    return p.totalCount() > 0 ? &p : nullptr;
}

const profile::MethodEdgeProfile *
PepConsumer::edges(bytecode::MethodId method)
{
    return pep_.layoutProfile(method);
}

std::vector<HotPath>
PepConsumer::hotPaths(bytecode::MethodId method)
{
    // Gather (count, number, state) across the method's instrumented
    // versions, hottest first; reconstruct only the top candidates.
    struct Candidate
    {
        std::uint64_t count = 0;
        std::uint64_t number = 0;
        const core::MethodProfilingState *state = nullptr;
    };
    std::vector<Candidate> candidates;
    for (const auto &[key, vp] : pep_.versionProfiles()) {
        if (key.first != method || !vp->state->plan.enabled)
            continue;
        // Synthesized bodies record paths in their own CFG's
        // coordinates; those cannot seed method-level clone plans.
        if (vp->state->compiled && vp->state->compiled->inlinedBody)
            continue;
        for (const auto &[number, record] : vp->paths.paths()) {
            if (record.count > 0)
                candidates.push_back(
                    {record.count, number, vp->state.get()});
        }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.number < b.number;
              });
    if (candidates.size() > kMaxHotPathsPerMethod)
        candidates.resize(kMaxHotPathsPerMethod);

    std::vector<HotPath> paths;
    paths.reserve(candidates.size());
    for (const Candidate &c : candidates) {
        try {
            const profile::ReconstructedPath rec =
                profile::reconstructKPath(c.state->kpath,
                                          *c.state->reconstructor,
                                          c.number);
            if (rec.cfgEdges.empty())
                continue;
            paths.push_back({method, rec.cfgEdges, c.count});
        } catch (const support::PanicError &) {
            // A number outside the id space means a corrupted profile;
            // the verify passes report that — the optimizer just
            // declines to act on it.
        }
    }
    return paths;
}

} // namespace pep::opt
