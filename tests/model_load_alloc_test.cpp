// Heap allocations of a trusting packed load, counted by replacing the
// global operator new for this one test binary: a loaded model's LUTs view
// the file's buffer, so the count depends on the model's levels and class
// count, not on how many LUTs it holds. Also the old-version checks: v3
// and v4 headers are a typed kVersionMismatch.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "core/packed_model.h"
#include "core/serialize.h"
#include "test_util.h"

namespace {

// Counts operator new calls made by the thread that armed it.
thread_local bool counting = false;
thread_local std::size_t allocations = 0;

void* allocate(std::size_t size, std::size_t alignment) {
  if (counting) ++allocations;
  if (size == 0) size = 1;
  void* p = alignment <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(alignment,
                                     (size + alignment - 1) / alignment *
                                         alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return allocate(size, 0); }
void* operator new[](std::size_t size) { return allocate(size, 0); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return allocate(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return allocate(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace poetbin {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// 2 classes x P = 6 RINC-2 modules whose top MAT has `top_fanin` RINC-1
// children of 6 leaves each: 1 + 7 x top_fanin LUTs per module.
PoetBin rinc2_model(std::size_t top_fanin, std::uint64_t seed) {
  Rng rng(seed);
  return testing::random_classifier(6, 2, rng, [&](Rng& r) {
    std::vector<RincModule> children;
    for (std::size_t c = 0; c < top_fanin; ++c) {
      children.push_back(testing::random_rinc(1, 6, 6, 200, r));
    }
    return RincModule::make_internal(std::move(children),
                                     MatModule(std::vector<double>(
                                         top_fanin, 1.0)));
  });
}

std::size_t trusting_load_allocations(const std::string& path) {
  allocations = 0;
  counting = true;
  {
    const IoResult<LoadedModel> loaded =
        read_model_file_any(path, PackedVerify::kTrustChecksum);
    counting = false;
    EXPECT_TRUE(loaded.ok()) << loaded.error().message;
  }
  return allocations;
}

TEST(ModelLoadAllocations, DoNotScaleWithLutCount) {
  const PoetBin small = rinc2_model(2, 11);
  const PoetBin large = rinc2_model(4, 12);
  ASSERT_EQ(small.lut_count() - small.n_classes() * small.quant_bits(),
            12u * 15u);
  ASSERT_EQ(large.lut_count() - large.n_classes() * large.quant_bits(),
            12u * 29u);
  const std::string small_path = temp_path("alloc_small.pbm");
  const std::string large_path = temp_path("alloc_large.pbm");
  ASSERT_TRUE(write_packed_model_file(small, small_path).ok());
  ASSERT_TRUE(write_packed_model_file(large, large_path).ok());

  const std::size_t small_count = trusting_load_allocations(small_path);
  const std::size_t large_count = trusting_load_allocations(large_path);
  // Well under one allocation per LUT (180 and 348 LUTs: 29 each when
  // this test was written), and the same for both give or take a few.
  EXPECT_LT(small_count, 40u);
  EXPECT_LE(large_count, small_count + 4) << "small " << small_count;
  EXPECT_LE(small_count, large_count + 4) << "large " << large_count;
}

// A header of `version`: magic, the version, and the header size, section
// count and file size fields versions 3 and 4 share with the current one.
void expect_version_mismatch(std::uint32_t version) {
  std::vector<std::uint8_t> bytes(64, 0);
  std::memcpy(bytes.data(), "PoETBiNP", 8);
  const std::uint32_t header_bytes = 64;
  const std::uint32_t section_count = 10;
  const std::uint64_t file_size = bytes.size();
  std::memcpy(bytes.data() + 8, &version, sizeof version);
  std::memcpy(bytes.data() + 12, &header_bytes, sizeof header_bytes);
  std::memcpy(bytes.data() + 16, &section_count, sizeof section_count);
  std::memcpy(bytes.data() + 24, &file_size, sizeof file_size);
  const std::string named = "version " + std::to_string(version);
  for (const PackedVerify verify :
       {PackedVerify::kFull, PackedVerify::kTrustChecksum}) {
    const IoResult<LoadedModel> old =
        read_model_bytes(bytes.data(), bytes.size(), verify);
    ASSERT_FALSE(old.ok());
    EXPECT_EQ(old.error().kind, ModelIoError::Kind::kVersionMismatch);
    EXPECT_NE(old.error().message.find(named), std::string::npos)
        << old.error().message;
    EXPECT_NE(old.error().message.find("re-export"), std::string::npos)
        << old.error().message;
  }
}

TEST(PackedVersion, V3IsVersionMismatch) { expect_version_mismatch(3); }

// Version 4 stored each MAT's weights beside its table.
TEST(PackedVersion, V4IsVersionMismatch) { expect_version_mismatch(4); }

}  // namespace
}  // namespace poetbin
