// scalar64 backend: one 64-bit word per step. The reference every other
// backend must match bit for bit, and the fallback on non-x86 hosts.
#include "util/word_backend.h"
#include "util/word_backend_impl.h"

namespace poetbin {

const WordOps& scalar64_word_ops() {
  static const WordOps ops = {
      .kind = WordBackend::kScalar64,
      .name = "scalar64",
      .block_words = 1,
      .lut_reduce = word_impl::lut_reduce,
      .gather_bits = word_impl::gather_bits,
      .lut_lookup = word_impl::lut_lookup,
      .and_words = word_impl::and_words,
      .or_words = word_impl::or_words,
      .xor_words = word_impl::xor_words,
      .not_words = word_impl::not_words,
      .popcount_words = word_impl::popcount_words,
      .hamming_words = word_impl::hamming_words,
      .argmax_update = word_impl::argmax_update,
      .scale_by_mask = word_impl::scale_by_mask,
      .entropy_sum = word_impl::entropy_sum,
  };
  return ops;
}

}  // namespace poetbin
