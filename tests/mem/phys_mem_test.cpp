#include "mem/phys_mem.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace ptstore {
namespace {

class PhysMemTest : public ::testing::Test {
 protected:
  PhysMem mem_{kDramBase, MiB(64)};
};

TEST_F(PhysMemTest, Bounds) {
  EXPECT_TRUE(mem_.is_dram(kDramBase));
  EXPECT_TRUE(mem_.is_dram(mem_.dram_end() - 1));
  EXPECT_FALSE(mem_.is_dram(mem_.dram_end()));
  EXPECT_FALSE(mem_.is_dram(kDramBase - 1));
  EXPECT_FALSE(mem_.is_dram(mem_.dram_end() - 4, 8));  // Straddles the end.
}

TEST_F(PhysMemTest, ZeroInitialized) {
  EXPECT_EQ(mem_.read_u64(kDramBase + 0x1234 * 8), 0u);
  EXPECT_TRUE(mem_.is_zero(kDramBase, MiB(1)));
  EXPECT_EQ(mem_.resident_frames(), 0u);  // is_zero materializes nothing.
}

TEST_F(PhysMemTest, ReadWriteWidths) {
  const PhysAddr a = kDramBase + 0x1000;
  mem_.write_u8(a, 0xAB);
  EXPECT_EQ(mem_.read_u8(a), 0xAB);
  mem_.write_u16(a + 2, 0xBEEF);
  EXPECT_EQ(mem_.read_u16(a + 2), 0xBEEF);
  mem_.write_u32(a + 4, 0xDEADBEEF);
  EXPECT_EQ(mem_.read_u32(a + 4), 0xDEADBEEFu);
  mem_.write_u64(a + 8, 0x0123456789ABCDEF);
  EXPECT_EQ(mem_.read_u64(a + 8), 0x0123456789ABCDEFu);
}

TEST_F(PhysMemTest, LittleEndianComposition) {
  const PhysAddr a = kDramBase + 0x2000;
  mem_.write_u64(a, 0x0807060504030201);
  EXPECT_EQ(mem_.read_u8(a), 0x01);
  EXPECT_EQ(mem_.read_u8(a + 7), 0x08);
  EXPECT_EQ(mem_.read_u32(a + 4), 0x08070605u);
}

TEST_F(PhysMemTest, CrossFrameBlockOps) {
  const PhysAddr a = kDramBase + kPageSize - 5;  // Straddles a frame border.
  u8 in[16], out[16] = {};
  for (int i = 0; i < 16; ++i) in[i] = static_cast<u8>(0xC0 + i);
  mem_.write_block(a, in, sizeof(in));
  mem_.read_block(a, out, sizeof(out));
  EXPECT_EQ(0, std::memcmp(in, out, sizeof(in)));
}

TEST_F(PhysMemTest, CrossFrameScalar) {
  const PhysAddr a = kDramBase + kPageSize - 4;
  mem_.write_u64(a, 0x1122334455667788);
  EXPECT_EQ(mem_.read_u64(a), 0x1122334455667788u);
}

TEST_F(PhysMemTest, FillAndIsZero) {
  const PhysAddr a = kDramBase + kPageSize;
  mem_.fill(a, 0x5A, kPageSize);
  EXPECT_FALSE(mem_.is_zero(a, kPageSize));
  EXPECT_EQ(mem_.read_u8(a + 100), 0x5A);
  mem_.fill(a, 0, kPageSize);
  EXPECT_TRUE(mem_.is_zero(a, kPageSize));
  // One stray byte defeats is_zero.
  mem_.write_u8(a + kPageSize - 1, 1);
  EXPECT_FALSE(mem_.is_zero(a, kPageSize));
}

// An unmaterialized frame is zero, so zeroing one is a no-op: a 4 MiB zero
// fill over untouched DRAM (a secure-region scrub) materializes nothing.
TEST_F(PhysMemTest, ZeroFillOverUntouchedDramMaterializesNothing) {
  mem_.write_u8(kDramBase, 1);
  ASSERT_EQ(mem_.resident_frames(), 1u);
  mem_.fill(kDramBase + MiB(8), 0, MiB(4));
  EXPECT_EQ(mem_.resident_frames(), 1u);
  EXPECT_TRUE(mem_.is_zero(kDramBase + MiB(8), MiB(4)));
}

TEST_F(PhysMemTest, ZeroFillZeroesMaterializedFramesAndSkipsAbsentOnes) {
  // Frames 0, 2 and 4 of the range hold junk; 1 and 3 were never written.
  const PhysAddr base = kDramBase + MiB(1);
  std::vector<u64> gens;
  for (u64 f = 0; f < 5; f += 2) {
    mem_.fill(base + f * kPageSize, 0xEE, kPageSize);
    gens.push_back(*mem_.frame_write_gen(base + f * kPageSize));
  }
  ASSERT_EQ(mem_.resident_frames(), 3u);
  // Start and end inside the outer frames so partial chunks are exercised.
  mem_.fill(base + 16, 0, 5 * kPageSize - 32);
  EXPECT_EQ(mem_.resident_frames(), 3u);
  for (u64 f = 0; f < 5; ++f) {
    const PhysAddr frame = base + f * kPageSize;
    if (f % 2 == 1) {
      EXPECT_EQ(mem_.frame_write_gen(frame), nullptr) << "frame " << f;
      continue;
    }
    const u64* gen = mem_.frame_write_gen(frame);
    ASSERT_NE(gen, nullptr) << "frame " << f;
    EXPECT_GT(*gen, gens[f / 2]) << "frame " << f;
  }
  EXPECT_TRUE(mem_.is_zero(base + 16, 5 * kPageSize - 32));
  // The bytes outside the fill keep their junk.
  EXPECT_EQ(mem_.read_u8(base + 15), 0xEE);
  EXPECT_EQ(mem_.read_u8(base + 5 * kPageSize - 16), 0xEE);
}

TEST_F(PhysMemTest, NonZeroFillMaterializesEveryFrame) {
  mem_.fill(kDramBase + kPageSize - 8, 0x01, 2 * kPageSize);
  EXPECT_EQ(mem_.resident_frames(), 3u);
  EXPECT_NE(mem_.frame_write_gen(kDramBase + 2 * kPageSize), nullptr);
  EXPECT_EQ(mem_.read_u64(kDramBase + kPageSize - 8), 0x0101010101010101u);
}

// The one-frame scalar path and the frame-crossing read_block path agree at
// every width and every offset near the end of a frame.
TEST_F(PhysMemTest, ScalarReadsMatchReadBlockAcrossFrameEnd) {
  const PhysAddr frame = kDramBase + 7 * kPageSize;
  u8 bytes[2 * 16];
  for (unsigned i = 0; i < sizeof(bytes); ++i) {
    bytes[i] = static_cast<u8>(0x31 * (i + 1));
  }
  mem_.write_block(frame + kPageSize - 16, bytes, sizeof(bytes));
  for (u64 off = kPageSize - 8; off < kPageSize; ++off) {
    for (const unsigned size : {1u, 2u, 4u, 8u}) {
      u64 want = 0;
      mem_.read_block(frame + off, &want, size);
      EXPECT_EQ(mem_.read(frame + off, size), want)
          << "offset " << off << " size " << size;
    }
  }
}

TEST_F(PhysMemTest, ScalarReadsOfUnmaterializedFramesAreZero) {
  const PhysAddr frame = kDramBase + 11 * kPageSize;
  for (u64 off = kPageSize - 8; off < kPageSize; ++off) {
    for (const unsigned size : {1u, 2u, 4u, 8u}) {
      EXPECT_EQ(mem_.read(frame + off, size), 0u)
          << "offset " << off << " size " << size;
    }
  }
  EXPECT_EQ(mem_.resident_frames(), 0u);
}

// is_zero compares in words between bytewise heads and tails: a single
// non-zero byte anywhere in an unaligned range's first or last 16 bytes,
// or in its word-compared middle, must be seen.
TEST_F(PhysMemTest, IsZeroCatchesEveryByteOfUnalignedHeadAndTail) {
  const PhysAddr start = kDramBase + 3 * kPageSize + 5;
  const u64 len = 2 * kPageSize + 11;  // Spans three frames.
  std::vector<u64> positions;
  for (u64 i = 0; i < 16; ++i) {
    positions.push_back(i);
    positions.push_back(len - 16 + i);
  }
  positions.push_back(kPageSize);  // Inside the middle frame.
  for (const u64 pos : positions) {
    mem_.write_u8(start + pos, 0x80);
    EXPECT_FALSE(mem_.is_zero(start, len)) << "byte " << pos;
    mem_.write_u8(start + pos, 0);
    EXPECT_TRUE(mem_.is_zero(start, len)) << "byte " << pos;
  }
  // Bytes just outside the range are not its business.
  mem_.write_u8(start - 1, 0x80);
  mem_.write_u8(start + len, 0x80);
  EXPECT_TRUE(mem_.is_zero(start, len));
}

TEST_F(PhysMemTest, SparseResidency) {
  mem_.write_u8(kDramBase, 1);
  mem_.write_u8(kDramBase + MiB(32), 1);
  EXPECT_EQ(mem_.resident_frames(), 2u);
}

class CountingDevice : public MmioDevice {
 public:
  u64 mmio_read(u64 offset, unsigned size) override {
    ++reads;
    return offset + size;
  }
  void mmio_write(u64 offset, unsigned size, u64 value) override {
    ++writes;
    last = value;
    (void)offset;
    (void)size;
  }
  int reads = 0, writes = 0;
  u64 last = 0;
};

TEST_F(PhysMemTest, MmioDispatch) {
  CountingDevice dev;
  ASSERT_TRUE(mem_.map_device(0x1000'0000, 0x1000, &dev));
  EXPECT_TRUE(mem_.is_mmio(0x1000'0000));
  EXPECT_TRUE(mem_.is_valid(0x1000'0FF8, 8));
  EXPECT_FALSE(mem_.is_valid(0x1000'1000));

  EXPECT_EQ(mem_.read(0x1000'0010, 4), 0x14u);
  mem_.write(0x1000'0020, 8, 0x77);
  EXPECT_EQ(dev.reads, 1);
  EXPECT_EQ(dev.writes, 1);
  EXPECT_EQ(dev.last, 0x77u);
}

TEST_F(PhysMemTest, MmioOverlapRejected) {
  CountingDevice dev;
  EXPECT_FALSE(mem_.map_device(kDramBase, 0x1000, &dev));  // Overlaps DRAM.
  ASSERT_TRUE(mem_.map_device(0x2000'0000, 0x1000, &dev));
  EXPECT_FALSE(mem_.map_device(0x2000'0800, 0x1000, &dev));  // Overlaps device.
  EXPECT_FALSE(mem_.map_device(0x3000'0000, 0, &dev));       // Empty window.
}

// The last-frame memo must not outlive the frame table: after a restore,
// reads, writes and frame_write_gen() see the restored frames only.
TEST_F(PhysMemTest, RestoreFramesDropsLastFrameMemo) {
  const PhysAddr a = kDramBase + 3 * kPageSize + 16;
  const PhysAddr b = kDramBase + 9 * kPageSize;
  mem_.write_u64(a, 0x1111);
  const auto snap = mem_.snapshot_frames();
  mem_.write_u64(a, 0x2222);  // Memo now on a's frame.
  mem_.write_u64(b, 0x3333);  // A frame the snapshot does not have.
  EXPECT_EQ(mem_.read_u64(b), 0x3333u);
  const u64 table_gen = mem_.frame_table_gen();
  mem_.restore_frames(snap);
  EXPECT_NE(mem_.frame_table_gen(), table_gen);
  EXPECT_EQ(mem_.read_u64(b), 0u);  // Memo was on b's dropped frame.
  EXPECT_EQ(mem_.frame_write_gen(b), nullptr);
  EXPECT_EQ(mem_.read_u64(a), 0x1111u);
  mem_.write_u64(a + 8, 0x4444);
  EXPECT_EQ(mem_.read_u64(a + 8), 0x4444u);
  EXPECT_EQ(mem_.resident_frames(), 1u);
}

TEST_F(PhysMemTest, RandomizedReadbackProperty) {
  Rng rng(123);
  std::vector<std::pair<PhysAddr, u64>> writes;
  for (int i = 0; i < 500; ++i) {
    const PhysAddr a = kDramBase + align_down(rng.next_below(MiB(64) - 8), 8);
    const u64 v = rng.next_u64();
    mem_.write_u64(a, v);
    writes.emplace_back(a, v);
  }
  // Later writes win; verify final state from a replay map.
  std::map<PhysAddr, u64> final;
  for (const auto& [a, v] : writes) final[a] = v;
  for (const auto& [a, v] : final) EXPECT_EQ(mem_.read_u64(a), v);
}

}  // namespace
}  // namespace ptstore
