#include "opt/reopt_driver.hh"

#include <cmath>

namespace pep::opt {

namespace {

/**
 * Hot direction of one branch block, quantized exactly like the
 * compile that a recompile would run: WindowedProfileConsumer rounds
 * decayed weights to integer counts, and layout derivation breaks a
 * Cond tie toward fall-through and keeps the first strict maximum of a
 * Switch. Deciding from the raw floats instead can disagree with the
 * installed layout at a near-tie (the epoch right after a phase
 * shift), and a snapshot recording the un-installed direction would
 * mask the *next* epoch's real shift forever.
 */
std::int32_t
quantizedHotDir(bytecode::TerminatorKind kind,
                const std::vector<double> &weights)
{
    if (kind == bytecode::TerminatorKind::Cond) {
        const std::uint64_t taken =
            weights.size() > 0
                ? static_cast<std::uint64_t>(std::llround(weights[0]))
                : 0;
        const std::uint64_t fall =
            weights.size() > 1
                ? static_cast<std::uint64_t>(std::llround(weights[1]))
                : 0;
        if (taken + fall == 0)
            return -1;
        return taken > fall ? 0 : 1;
    }
    std::uint64_t best = 0;
    std::int32_t best_index = -1;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        const auto w =
            static_cast<std::uint64_t>(std::llround(weights[i]));
        if (w > best) {
            best = w;
            best_index = static_cast<std::int32_t>(i);
        }
    }
    return best_index;
}

} // namespace

ReoptDriver::ReoptDriver(vm::Machine &machine,
                         const runtime::WindowedProfile &window)
    : machine_(machine), window_(window),
      snapshots_(machine.numMethods())
{
}

std::size_t
ReoptDriver::poll()
{
    ++stats_.polls;
    if (window_.advances() == lastPollAdvance_)
        return 0; // nothing new entered the window
    lastPollAdvance_ = window_.advances();

    const auto &weights = window_.edgeWeights();
    std::size_t recompiled = 0;

    for (std::size_t m = 0; m < machine_.numMethods(); ++m) {
        const auto method = static_cast<bytecode::MethodId>(m);
        const vm::CompiledMethod *current =
            machine_.currentVersion(method);
        // Reoptimization only applies to versions the optimizer
        // compiled; baseline code is waiting for promotion instead.
        if (!current || current->level == vm::OptLevel::Baseline)
            continue;
        if (m >= weights.size())
            continue;

        const bytecode::MethodCfg &method_cfg =
            machine_.info(method).cfg;
        const auto &per_block = weights[m];

        // Current hot direction of every branch block, and the branch
        // mass that moved against the snapshot.
        std::vector<std::int32_t> hot_dir(per_block.size(), -1);
        double total_mass = 0.0;
        double changed_mass = 0.0;
        MethodSnapshot &snap = snapshots_[m];
        for (cfg::BlockId b = 0; b < per_block.size(); ++b) {
            const auto kind = method_cfg.terminator[b];
            if (kind != bytecode::TerminatorKind::Cond &&
                kind != bytecode::TerminatorKind::Switch)
                continue;
            double block_mass = 0.0;
            for (std::size_t i = 0; i < per_block[b].size(); ++i)
                block_mass += per_block[b][i];
            const std::int32_t best_index =
                quantizedHotDir(kind, per_block[b]);
            if (block_mass <= 0.0 || best_index < 0)
                continue;
            hot_dir[b] = best_index;
            total_mass += block_mass;
            if (snap.valid && b < snap.hotDir.size() &&
                snap.hotDir[b] != best_index)
                changed_mass += block_mass;
        }
        if (total_mass < kReoptMinMass)
            continue;

        // First sighting applies the initial profile-guided layout;
        // afterwards only a real direction shift justifies the
        // recompile.
        const bool shift =
            snap.valid &&
            changed_mass > kReoptShiftThreshold * total_mass;
        if (snap.valid && !shift)
            continue;
        if (snap.valid && window_.advances() - snap.atAdvance <
                              kReoptMinAdvancesBetween)
            continue;

        machine_.compileNow(method, current->level);
        ++stats_.recompiles;
        if (shift)
            ++stats_.phaseShifts;
        snap.hotDir = std::move(hot_dir);
        snap.valid = true;
        snap.atAdvance = window_.advances();
        ++recompiled;
    }

    return recompiled;
}

} // namespace pep::opt
