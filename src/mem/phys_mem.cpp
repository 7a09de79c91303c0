#include "mem/phys_mem.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace ptstore {

bool PhysMem::map_device(PhysAddr base, u64 size, MmioDevice* dev) {
  if (size == 0 || dev == nullptr) return false;
  if (ranges_overlap(base, size, dram_base_, dram_size_)) return false;
  for (const auto& w : devices_) {
    if (ranges_overlap(base, size, w.base, w.size)) return false;
  }
  devices_.push_back(Window{base, size, dev});
  return true;
}

const PhysMem::Window* PhysMem::find_device(PhysAddr pa, u64 size) const {
  for (const auto& w : devices_) {
    if (range_contains(w.base, w.size, pa, size)) return &w;
  }
  return nullptr;
}

u8* PhysMem::frame_for(PhysAddr pa) {
  const u64 frame = (pa - dram_base_) >> kPageShift;
  Frame* f = find_frame(frame);
  if (f == nullptr) {
    auto buf = std::make_unique<u8[]>(kPageSize);
    std::memset(buf.get(), 0, kPageSize);
    f = &frames_.emplace(frame, Frame{std::move(buf), 0}).first->second;
    last_index_ = frame;
    last_frame_ = f;
  }
  // Every caller is a write path (write_block/fill), so each materialized
  // pointer handed out corresponds to a mutation of the frame.
  ++f->write_gen;
  return f->data.get();
}

u64 PhysMem::read(PhysAddr pa, unsigned size) {
  assert(size == 1 || size == 2 || size == 4 || size == 8);
  if (is_dram(pa, size)) {
    const u64 off = (pa - dram_base_) & kPageMask;
    if (off + size <= kPageSize) {
      // One frame: one lookup and a fixed-size load. Reads never
      // materialize frames, and an unmaterialized frame is zero.
      const Frame* f = find_frame((pa - dram_base_) >> kPageShift);
      if (f == nullptr) return 0;
      const u8* p = f->data.get() + off;
      switch (size) {
        case 1:
          return *p;
        case 2: {
          u16 v;
          std::memcpy(&v, p, 2);
          return v;
        }
        case 4: {
          u32 v;
          std::memcpy(&v, p, 4);
          return v;
        }
        default: {
          u64 v;
          std::memcpy(&v, p, 8);
          return v;
        }
      }
    }
    u64 v = 0;
    read_block(pa, &v, size);
    return v;
  }
  // map_device keeps device windows out of DRAM, so only non-DRAM searches.
  if (const Window* w = find_device(pa, size)) {
    return w->dev->mmio_read(pa - w->base, size);
  }
  assert(false && "physical read outside backed memory");
  return 0;
}

void PhysMem::write(PhysAddr pa, unsigned size, u64 value) {
  assert(size == 1 || size == 2 || size == 4 || size == 8);
  if (!is_dram(pa, size)) {
    if (const Window* w = find_device(pa, size)) {
      w->dev->mmio_write(pa - w->base, size, value);
      return;
    }
  }
  assert(is_dram(pa, size) && "physical write outside backed memory");
  write_block(pa, &value, size);
}

void PhysMem::read_block(PhysAddr pa, void* out, u64 len) {
  assert(is_dram(pa, len));
  u8* dst = static_cast<u8*>(out);
  while (len > 0) {
    const u64 frame = (pa - dram_base_) >> kPageShift;
    const u64 off = (pa - dram_base_) & kPageMask;
    const u64 chunk = std::min<u64>(len, kPageSize - off);
    // Reads never materialize frames: untouched memory is zero.
    if (const Frame* f = find_frame(frame)) {
      std::memcpy(dst, f->data.get() + off, chunk);
    } else {
      std::memset(dst, 0, chunk);
    }
    pa += chunk;
    dst += chunk;
    len -= chunk;
  }
}

void PhysMem::write_block(PhysAddr pa, const void* in, u64 len) {
  assert(is_dram(pa, len));
  const u8* src = static_cast<const u8*>(in);
  while (len > 0) {
    const u64 off = (pa - dram_base_) & kPageMask;
    const u64 chunk = std::min<u64>(len, kPageSize - off);
    std::memcpy(frame_for(pa) + off, src, chunk);
    pa += chunk;
    src += chunk;
    len -= chunk;
  }
}

void PhysMem::fill(PhysAddr pa, u8 byte, u64 len) {
  assert(is_dram(pa, len));
  while (len > 0) {
    const u64 off = (pa - dram_base_) & kPageMask;
    const u64 chunk = std::min<u64>(len, kPageSize - off);
    if (byte != 0) {
      std::memset(frame_for(pa) + off, byte, chunk);
    } else if (Frame* f = find_frame((pa - dram_base_) >> kPageShift)) {
      // Zeroing a materialized frame is still a write: the decode cache
      // watches write_gen. The frame is kept, since only restore_frames()
      // may invalidate frame_write_gen() pointers.
      std::memset(f->data.get() + off, 0, chunk);
      ++f->write_gen;
    }
    // An unmaterialized frame already reads zero: nothing to do.
    pa += chunk;
    len -= chunk;
  }
}

namespace {

/// True if [p, p+len) is all zero: bytewise up to 8-byte alignment, then in
/// words, then bytewise over the tail.
bool bytes_zero(const u8* p, u64 len) {
  while (len > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7) != 0) {
    if (*p != 0) return false;
    ++p;
    --len;
  }
  for (; len >= 8; p += 8, len -= 8) {
    u64 w;
    std::memcpy(&w, p, 8);
    if (w != 0) return false;
  }
  for (; len > 0; ++p, --len) {
    if (*p != 0) return false;
  }
  return true;
}

}  // namespace

bool PhysMem::is_zero(PhysAddr pa, u64 len) {
  assert(is_dram(pa, len));
  while (len > 0) {
    const u64 off = (pa - dram_base_) & kPageMask;
    const u64 chunk = std::min<u64>(len, kPageSize - off);
    // Unmaterialized frames are zero by construction.
    const Frame* f = find_frame((pa - dram_base_) >> kPageShift);
    if (f != nullptr && !bytes_zero(f->data.get() + off, chunk)) return false;
    pa += chunk;
    len -= chunk;
  }
  return true;
}

std::vector<std::pair<u64, std::vector<u8>>> PhysMem::snapshot_frames() const {
  std::vector<std::pair<u64, std::vector<u8>>> out;
  out.reserve(frames_.size());
  for (const auto& [frame, f] : frames_) {
    out.emplace_back(frame,
                     std::vector<u8>(f.data.get(), f.data.get() + kPageSize));
  }
  return out;
}

void PhysMem::restore_frames(
    const std::vector<std::pair<u64, std::vector<u8>>>& frames) {
  frames_.clear();
  last_frame_ = nullptr;
  ++table_gen_;  // Old frame_write_gen() pointers are now dangling.
  for (const auto& [frame, bytes] : frames) {
    assert(bytes.size() == kPageSize);
    auto buf = std::make_unique<u8[]>(kPageSize);
    std::memcpy(buf.get(), bytes.data(), kPageSize);
    frames_.emplace(frame, Frame{std::move(buf), 0});
  }
}

u64 PhysMem::content_digest() const {
  std::vector<u64> indices;
  indices.reserve(frames_.size());
  for (const auto& [frame, f] : frames_) indices.push_back(frame);
  std::sort(indices.begin(), indices.end());

  u64 h = 0xcbf29ce484222325ULL;  // FNV offset basis.
  auto mix = [&h](const u8* p, u64 len) {
    for (u64 i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;  // FNV prime.
    }
  };
  for (const u64 frame : indices) {
    const Frame& f = frames_.at(frame);
    if (bytes_zero(f.data.get(), kPageSize)) continue;
    const u8 idx[8] = {
        static_cast<u8>(frame), static_cast<u8>(frame >> 8),
        static_cast<u8>(frame >> 16), static_cast<u8>(frame >> 24),
        static_cast<u8>(frame >> 32), static_cast<u8>(frame >> 40),
        static_cast<u8>(frame >> 48), static_cast<u8>(frame >> 56)};
    mix(idx, 8);
    mix(f.data.get(), kPageSize);
  }
  return h;
}

}  // namespace ptstore
