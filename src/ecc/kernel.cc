#include "kernel.hh"

#include "common/env.hh"

namespace nvck {

const char *
codecKernelName(CodecKernel kernel)
{
    return kernel == CodecKernel::Scalar ? "scalar" : "sliced";
}

CodecKernel
defaultCodecKernel()
{
    static const CodecKernel kernel = [] {
        // Strict parse: anything other than the two kernel names is
        // rejected outright rather than silently running Sliced.
        const auto idx =
            envChoice("NVCK_CODEC_KERNEL", {"scalar", "sliced"});
        if (idx && *idx == 0)
            return CodecKernel::Scalar;
        return CodecKernel::Sliced;
    }();
    return kernel;
}

} // namespace nvck
