#ifndef PEP_OPT_PIPELINE_HH
#define PEP_OPT_PIPELINE_HH

/**
 * @file
 * The profile-guided reoptimization pipeline (docs/OPT.md): a
 * vm::CompilePass that runs on every optimizing-tier compile and
 * applies, in order,
 *
 *   1. hot-path cloning (path_clone.hh) — replace the version's body
 *      with a synthesized copy whose hot join-crossing path is
 *      private, when the consumer knows such a path;
 *   2. chain layout (chain_layout.hh) — Pettis-Hansen block chains
 *      and the branch-direction layout derived from them, over the
 *      version's (possibly cloned) CFG with profile weights folded
 *      through BlockOrigin;
 *   3. the clone's forced directions — the on-path branch directions
 *      the clone builder pinned, overlaid last so the cloned path is
 *      straight-line regardless of what the averaged profile says.
 *
 * Because passes run inside Machine::compile() before the version is
 * installed, observed or translated, the PEP instrumentation plan and
 * the threaded engine's templates are built for the CFG the pass
 * produced.
 *
 * The PEP_OPT environment variable selects passes for a whole test
 * run: a comma list of "layout" and "clone", or "none". Unset or empty
 * means "not configured" (pipelineOptionsFromEnv returns nullopt) so
 * code paths that install the pipeline explicitly keep their own
 * defaults. Any other token is fatal.
 */

#include <cstdint>
#include <optional>

#include "opt/chain_layout.hh"
#include "opt/path_clone.hh"
#include "opt/profile_consumer.hh"
#include "vm/machine.hh"

namespace pep::opt {

/** Which passes run. */
struct PipelineOptions
{
    bool layout = true;
    bool clone = true;
};

/** Parse PEP_OPT ("layout,clone" / "layout" / "clone" / "none");
 *  nullopt when the variable is unset or empty. An unknown token is
 *  fatal (support::fatal), naming the variable and its value. */
std::optional<PipelineOptions> pipelineOptionsFromEnv();

/** The pass. Register on a Machine with addCompilePass(); the
 *  consumer must outlive the machine's last compile. */
class OptPipeline final : public vm::CompilePass
{
  public:
    struct Stats
    {
        std::uint64_t runs = 0;
        std::uint64_t layoutsApplied = 0;
        std::uint64_t clonesApplied = 0;

        /** Clone pass ran but found no valid plan. */
        std::uint64_t clonesDeclined = 0;
    };

    explicit OptPipeline(ProfileConsumer &consumer,
                         PipelineOptions options = {})
        : consumer_(consumer), options_(options)
    {
    }

    void run(vm::Machine &machine, vm::CompiledMethod &cm) override;

    const Stats &stats() const { return stats_; }
    const PipelineOptions &options() const { return options_; }

  private:
    ProfileConsumer &consumer_;
    PipelineOptions options_;
    Stats stats_;
};

} // namespace pep::opt

#endif // PEP_OPT_PIPELINE_HH
