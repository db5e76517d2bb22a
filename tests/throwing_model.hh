/**
 * @file
 * A test-only architecture model whose every block task throws: a job
 * that can never finish, for checking how the executor and the driver
 * report a failing job.
 */

#ifndef UNISTC_TESTS_THROWING_MODEL_HH
#define UNISTC_TESTS_THROWING_MODEL_HH

#include <memory>
#include <string>

#include "robust/status.hh"
#include "stc/stc_model.hh"

namespace unistc
{

class ThrowingModel : public StcModel
{
  public:
    ThrowingModel() : StcModel(MachineConfig::fp64()) {}

    std::string name() const override { return "Throwing-STC"; }

    std::unique_ptr<StcModel>
    clone() const override
    {
        return std::make_unique<ThrowingModel>();
    }

    NetworkConfig network() const override { return NetworkConfig(); }

    void
    runBlock(const BlockTask &, RunResult &, TraceSink *) const override
    {
        throw UnistcError(internalError("block task refused"));
    }
};

} // namespace unistc

#endif // UNISTC_TESTS_THROWING_MODEL_HH
