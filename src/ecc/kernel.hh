/**
 * @file
 * Codec kernel selection. Every codec in src/ecc keeps two
 * implementations of its hot inner loops:
 *
 *  - Scalar: the bit-serial / polynomial reference implementation,
 *    structured exactly like the algebra (LFSR division one bit at a
 *    time, per-set-bit syndrome accumulation). Slow but obviously
 *    correct; the differential tests pin the Sliced kernel against it.
 *  - Sliced: table-driven word-at-a-time kernels (CRC-style
 *    slicing-by-8 remainder updates, per-byte partial-syndrome tables,
 *    precomputed Chien strides) that process 8-64 bits per step.
 *
 * Both kernels are bit-identical by construction and by test; Sliced is
 * the default everywhere (pm_rank, injector, the Monte-Carlo sweeps).
 * Set NVCK_CODEC_KERNEL=scalar to force the reference path globally.
 */

#ifndef NVCK_ECC_KERNEL_HH
#define NVCK_ECC_KERNEL_HH

namespace nvck {

/** Which implementation of the codec inner loops to run. */
enum class CodecKernel
{
    Scalar, //!< bit-serial reference implementation
    Sliced, //!< table-driven slicing-by-8 kernels (default)
};

/** Human-readable kernel name ("scalar" / "sliced"). */
const char *codecKernelName(CodecKernel kernel);

/**
 * The process-wide default kernel: Sliced, unless the environment
 * variable NVCK_CODEC_KERNEL is set to "scalar". Any other value is
 * rejected with a one-line error and exit(2) (common/env.hh). Read
 * once and cached.
 */
CodecKernel defaultCodecKernel();

} // namespace nvck

#endif // NVCK_ECC_KERNEL_HH
