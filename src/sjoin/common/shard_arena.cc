#include "sjoin/common/shard_arena.h"

#include <algorithm>
#include <utility>

namespace sjoin {
namespace {

constexpr std::size_t kBlockAlign = 64;
constexpr std::size_t kMinBlockBytes = 4096;

}  // namespace

ShardArena::Block& ShardArena::NewBlock(std::size_t min_bytes) {
  Block block;
  block.size = std::max({min_bytes, capacity() * 2, kMinBlockBytes});
  block.storage = std::make_unique<std::byte[]>(block.size + kBlockAlign);
  auto raw = reinterpret_cast<std::uintptr_t>(block.storage.get());
  block.base = block.storage.get() +
               ((kBlockAlign - raw % kBlockAlign) % kBlockAlign);
  blocks_.push_back(std::move(block));
  ++growth_events_;
  return blocks_.back();
}

void* ShardArena::AllocBytes(std::size_t bytes, std::size_t align) {
  for (; current_ < blocks_.size(); ++current_) {
    Block& block = blocks_[current_];
    const std::size_t aligned = (block.used + align - 1) / align * align;
    if (aligned + bytes <= block.size) {
      block.used = aligned + bytes;
      return block.base + aligned;
    }
  }
  Block& block = NewBlock(bytes);
  current_ = blocks_.size() - 1;
  block.used = bytes;
  return block.base;
}

void ShardArena::Reserve(std::size_t bytes) {
  if (capacity() >= bytes) return;
  // One contiguous block sized for the whole shortfall, so the steady
  // state bumps within a single block.
  NewBlock(bytes - capacity());
}

void ShardArena::Reset() {
  for (Block& block : blocks_) block.used = 0;
  current_ = 0;
}

std::size_t ShardArena::capacity() const {
  std::size_t total = 0;
  for (const Block& block : blocks_) total += block.size;
  return total;
}

std::size_t ShardArena::used() const {
  std::size_t total = 0;
  for (const Block& block : blocks_) total += block.used;
  return total;
}

}  // namespace sjoin
