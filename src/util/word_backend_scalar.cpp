// scalar64 backend: one 64-bit word per step. The reference every other
// backend must match bit for bit, and the fallback on non-x86 hosts.
#include "util/word_backend.h"
#include "util/word_backend_impl.h"

namespace poetbin {

const WordOps& scalar64_word_ops() {
  static const WordOps ops = {
      .kind = WordBackend::kScalar64,
      .lut_reduce = word_impl::lut_reduce,
      .gather_bits = word_impl::gather_bits,
      .lut_lookup = word_impl::lut_lookup,
      .hamming_words = word_impl::hamming_words,
      .argmax_update = word_impl::argmax_update,
      .scale_by_mask = word_impl::scale_by_mask,
  };
  return ops;
}

}  // namespace poetbin
