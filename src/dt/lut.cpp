#include "dt/lut.h"

#include <algorithm>

#include "util/check.h"
#include "util/word_backend.h"

namespace poetbin {

namespace {

struct OwnedLut {
  std::vector<std::size_t> inputs;
  BitVector table;
};

}  // namespace

Lut::Lut(std::vector<std::size_t> inputs, BitVector table) {
  POETBIN_CHECK_MSG(inputs.size() <= kMaxLutArity,
                    "LUT arity unrealistically large");
  POETBIN_CHECK(table.size() == (std::size_t{1} << inputs.size()));
  auto owned =
      std::make_shared<const OwnedLut>(OwnedLut{std::move(inputs),
                                                std::move(table)});
  inputs_ = owned->inputs.data();
  table_ = owned->table.words();
  arity_ = owned->inputs.size();
  owner_ = std::move(owned);
}

Lut Lut::view(std::shared_ptr<const void> owner, const std::size_t* inputs,
              std::size_t arity, const std::uint64_t* table,
              std::size_t stride) {
  Lut lut;
  lut.owner_ = std::move(owner);
  lut.inputs_ = inputs;
  lut.table_ = table;
  lut.arity_ = arity;
  lut.stride_ = stride;
  return lut;
}

const std::uint64_t* Lut::copy_words(std::uint64_t* scratch) const {
  const std::size_t n_words = word_count();
  POETBIN_CHECK(n_words <= kMaxStridedWords);
  for (std::size_t j = 0; j < n_words; ++j) scratch[j] = table_word(j);
  return scratch;
}

BitVector Lut::table() const {
  BitVector table(table_size());
  for (std::size_t j = 0; j < table.word_count(); ++j) {
    table.words()[j] = table_word(j);
  }
  return table;
}

bool Lut::operator==(const Lut& other) const {
  if (arity_ != other.arity_ || table_size() != other.table_size()) {
    return false;
  }
  const auto a = inputs();
  const auto b = other.inputs();
  if (!std::equal(a.begin(), a.end(), b.begin())) return false;
  for (std::size_t j = 0; j < word_count(); ++j) {
    if (table_word(j) != other.table_word(j)) return false;
  }
  return true;
}

}  // namespace poetbin
