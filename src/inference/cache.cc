#include "inference/cache.h"

#include <algorithm>
#include <cstring>

namespace indbml::inference {

namespace {

constexpr int kWays = 8;
/// Set header, three floats wide: kWays tag bytes, the reference bits and
/// the CLOCK hand (accessed as bytes); the set's slots follow it.
constexpr int64_t kHeaderFloats = 3;
constexpr int kRefByte = kWays;
constexpr int kHandByte = kWays + 1;

/// Byte-exact hash of one key's float bits.
uint64_t HashKey(const float* key, int64_t d) {
  uint64_t h = 0x9E3779B97F4A7C15ull ^ static_cast<uint64_t>(d);
  for (int64_t f = 0; f < d; ++f) {
    uint32_t bits;
    std::memcpy(&bits, key + f, sizeof(bits));
    h = (h ^ bits) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  }
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return h;
}

/// The tag byte of a hash: never 0, which marks an empty slot.
uint8_t TagOf(uint64_t h) {
  const auto tag = static_cast<uint8_t>(h >> 56);
  return tag == 0 ? 1 : tag;
}

/// A batch's keys gathered row-major out of the feature-major input, with
/// their hashes: computed before the cache lock is taken.
struct Keys {
  Keys(const float* in, int64_t n, int64_t d)
      : rows(static_cast<size_t>(n * d)), hashes(static_cast<size_t>(n)) {
    for (int64_t f = 0; f < d; ++f) {
      for (int64_t j = 0; j < n; ++j) {
        rows[static_cast<size_t>(j * d + f)] = in[f * n + j];
      }
    }
    for (int64_t j = 0; j < n; ++j) {
      hashes[static_cast<size_t>(j)] = HashKey(rows.data() + j * d, d);
    }
  }
  std::vector<float> rows;
  std::vector<uint64_t> hashes;
};

}  // namespace

/// One model instance's slots, in one allocation of `sets` sets of
/// kHeaderFloats + kWays * (d + o) floats. The geometry is immutable; the
/// slot contents are read and written under the cache mutex only.
class InferenceCache::Table {
 public:
  Table(int64_t d, int64_t o, int64_t sets)
      : d_(d),
        o_(o),
        sets_(sets),
        set_floats_(SetFloats(d, o)),
        storage_(new float[static_cast<size_t>(sets * set_floats_)]()) {}

  static int64_t SetFloats(int64_t d, int64_t o) {
    return kHeaderFloats + kWays * (d + o);
  }
  /// Bytes a table of `sets` sets allocates: storage plus header.
  static int64_t BytesOf(int64_t sets, int64_t d, int64_t o) {
    return sets * SetFloats(d, o) * static_cast<int64_t>(sizeof(float)) +
           static_cast<int64_t>(sizeof(Table));
  }
  /// Sets a table of at most `bytes` can hold.
  static int64_t SetsFor(int64_t bytes, int64_t d, int64_t o) {
    const int64_t usable = bytes - static_cast<int64_t>(sizeof(Table));
    const int64_t set_bytes = SetFloats(d, o) * static_cast<int64_t>(sizeof(float));
    return usable > 0 ? usable / set_bytes : 0;
  }

  int64_t d() const { return d_; }
  int64_t o() const { return o_; }
  int64_t sets() const { return sets_; }
  int64_t bytes() const { return BytesOf(sets_, d_, o_); }
  int64_t entries() const { return entries_; }

  /// The set `h` maps to: the hash's low 32 bits scaled onto [0, sets).
  float* SetOf(uint64_t h) const {
    const uint64_t set = (static_cast<uint64_t>(static_cast<uint32_t>(h)) *
                          static_cast<uint64_t>(sets_)) >> 32;
    return storage_.get() + static_cast<int64_t>(set) * set_floats_;
  }

  void Prefetch(uint64_t h) const {
    const char* set = reinterpret_cast<const char*>(SetOf(h));
    const int64_t bytes = set_floats_ * static_cast<int64_t>(sizeof(float));
    for (int64_t off = 0; off < bytes; off += 64) __builtin_prefetch(set + off);
    __builtin_prefetch(set + bytes - 1);
  }

  /// The slot holding `key` in `set`, or null; a hit sets its reference bit.
  const float* Find(float* set, uint8_t tag, const float* key) {
    unsigned char* header = reinterpret_cast<unsigned char*>(set);
    for (int w = 0; w < kWays; ++w) {
      if (header[w] != tag) continue;
      const float* slot = Slot(set, w);
      if (std::memcmp(slot, key, KeyBytes()) == 0) {
        header[kRefByte] |= static_cast<uint8_t>(1u << w);
        return slot;
      }
    }
    return nullptr;
  }

  /// Stores (key, values[p * stride]) unless the key is present. Returns
  /// false, storing nothing, when the key's set is full and `evict` is off.
  bool Put(uint64_t h, const float* key, const float* values, int64_t stride,
           bool evict) {
    float* set = SetOf(h);
    unsigned char* header = reinterpret_cast<unsigned char*>(set);
    const uint8_t tag = TagOf(h);
    if (Find(set, tag, key) != nullptr) return true;
    int w = 0;
    while (w < kWays && header[w] != 0) ++w;
    if (w == kWays) {
      if (!evict) return false;
      // CLOCK: clear reference bits past the hand until a clear one.
      uint8_t ref = header[kRefByte];
      int hand = header[kHandByte];
      while ((ref >> hand) & 1) {
        ref &= static_cast<uint8_t>(~(1u << hand));
        hand = (hand + 1) % kWays;
      }
      w = hand;
      header[kRefByte] = ref;
      header[kHandByte] = static_cast<uint8_t>((hand + 1) % kWays);
    } else {
      ++entries_;
    }
    header[w] = tag;
    float* slot = Slot(set, w);
    std::memcpy(slot, key, KeyBytes());
    for (int64_t p = 0; p < o_; ++p) slot[d_ + p] = values[p * stride];
    return true;
  }

  /// A table of `sets` sets holding this one's entries, as many as fit.
  std::shared_ptr<Table> Resized(int64_t sets) const {
    auto table = std::make_shared<Table>(d_, o_, sets);
    for (int64_t s = 0; s < sets_; ++s) {
      float* set = storage_.get() + s * set_floats_;
      const unsigned char* header = reinterpret_cast<const unsigned char*>(set);
      for (int w = 0; w < kWays; ++w) {
        if (header[w] == 0) continue;
        const float* slot = Slot(set, w);
        table->Put(HashKey(slot, d_), slot, slot + d_, 1, /*evict=*/true);
      }
    }
    return table;
  }

 private:
  size_t KeyBytes() const { return static_cast<size_t>(d_) * sizeof(float); }
  float* Slot(float* set, int w) const {
    return set + kHeaderFloats + w * (d_ + o_);
  }

  const int64_t d_;
  const int64_t o_;
  const int64_t sets_;
  const int64_t set_floats_;
  const std::unique_ptr<float[]> storage_;
  int64_t entries_ = 0;
};

InferenceCache& InferenceCache::Global() {
  static InferenceCache* cache = new InferenceCache();
  return *cache;
}

InferenceCache::InferenceCache()
    : hits_metric_(metrics::Registry::Global().counter("inference.cache_hits")),
      misses_metric_(
          metrics::Registry::Global().counter("inference.cache_misses")) {}

InferenceCache::~InferenceCache() = default;

void InferenceCache::set_capacity_bytes(int64_t bytes) {
  MutexLock lock(mu_);
  capacity_bytes_ = bytes;
  if (bytes <= 0) {
    tables_.clear();
    bytes_ = 0;
  } else if (bytes_ > bytes) {
    ShrinkLocked(bytes / static_cast<int64_t>(tables_.size()), /*keep=*/-1);
  }
}

int64_t InferenceCache::capacity_bytes() const {
  MutexLock lock(mu_);
  return capacity_bytes_;
}

std::shared_ptr<InferenceCache::Table> InferenceCache::FindLocked(
    int64_t model_id, int64_t d, int64_t o) const {
  auto it = tables_.find(model_id);
  if (it == tables_.end() || it->second->d() != d || it->second->o() != o) {
    return nullptr;
  }
  return it->second;
}

std::shared_ptr<InferenceCache::Table> InferenceCache::GrowLocked(
    int64_t model_id, int64_t d, int64_t o, int64_t min_sets) {
  auto it = tables_.find(model_id);
  if (it != tables_.end() && (it->second->d() != d || it->second->o() != o)) {
    EraseLocked(it);  // a table of another shape under this id
    it = tables_.end();
  }
  const bool fresh = it == tables_.end();
  const int64_t have = fresh ? 0 : it->second->sets();
  if (!fresh && min_sets <= have) return it->second;
  // At least double, but never past this model's equal share.
  const int64_t share =
      capacity_bytes_ / (static_cast<int64_t>(tables_.size()) + (fresh ? 1 : 0));
  const int64_t sets =
      std::min(Table::SetsFor(share, d, o), std::max(min_sets, 2 * have));
  if (sets <= have) return fresh ? nullptr : it->second;
  const int64_t old_bytes = fresh ? 0 : it->second->bytes();
  if (bytes_ - old_bytes + Table::BytesOf(sets, d, o) > capacity_bytes_) {
    ShrinkLocked(share, model_id);
  }
  std::shared_ptr<Table> table =
      fresh ? std::make_shared<Table>(d, o, sets) : it->second->Resized(sets);
  bytes_ += table->bytes() - old_bytes;
  tables_[model_id] = table;
  return table;
}

InferenceCache::TableMap::iterator InferenceCache::EraseLocked(
    TableMap::iterator it) {
  bytes_ -= it->second->bytes();
  return tables_.erase(it);
}

void InferenceCache::ShrinkLocked(int64_t share, int64_t keep) {
  for (auto it = tables_.begin(); it != tables_.end();) {
    const Table& old = *it->second;
    if (it->first == keep || old.bytes() <= share) {
      ++it;
      continue;
    }
    const int64_t sets = Table::SetsFor(share, old.d(), old.o());
    if (sets == 0) {
      it = EraseLocked(it);
      continue;
    }
    std::shared_ptr<Table> shrunk = old.Resized(sets);
    bytes_ += shrunk->bytes() - old.bytes();
    it->second = std::move(shrunk);
    ++it;
  }
}

int64_t InferenceCache::Lookup(int64_t model_id, const float* in, int64_t n,
                               int64_t d, int64_t o, float* out,
                               std::vector<char>* hits) {
  int64_t hit_count = 0;
  std::shared_ptr<Table> table;
  {
    MutexLock lock(mu_);
    table = FindLocked(model_id, d, o);
  }
  if (table != nullptr && n > 0) {
    const Keys keys(in, n, d);
    for (uint64_t h : keys.hashes) table->Prefetch(h);
    MutexLock lock(mu_);
    // A resize or invalidation in between replaced the table: probe the
    // live one (the hashes do not depend on the geometry).
    table = FindLocked(model_id, d, o);
    for (int64_t j = 0; table != nullptr && j < n; ++j) {
      const uint64_t h = keys.hashes[static_cast<size_t>(j)];
      const float* slot =
          table->Find(table->SetOf(h), TagOf(h), keys.rows.data() + j * d);
      if (slot == nullptr) continue;
      for (int64_t p = 0; p < o; ++p) out[p * n + j] = slot[d + p];
      (*hits)[static_cast<size_t>(j)] = 1;
      ++hit_count;
    }
  }
  hits_metric_->Increment(hit_count);
  misses_metric_->Increment(n - hit_count);
  return hit_count;
}

void InferenceCache::Insert(int64_t model_id, const float* in, int64_t n,
                            int64_t d, int64_t o, const float* results) {
  if (n <= 0) return;
  std::shared_ptr<Table> table;
  {
    MutexLock lock(mu_);
    if (capacity_bytes_ <= 0) return;
    table = FindLocked(model_id, d, o);
  }
  const Keys keys(in, n, d);
  if (table != nullptr) {
    for (uint64_t h : keys.hashes) table->Prefetch(h);
  }
  MutexLock lock(mu_);
  if (capacity_bytes_ <= 0) return;
  // Size a new table for the batch at half load; after that a table grows
  // when a set overflows, and evicts only once it cannot grow.
  table = GrowLocked(model_id, d, o, (2 * n + kWays - 1) / kWays);
  bool evict = false;
  for (int64_t j = 0; table != nullptr && j < n;) {
    if (table->Put(keys.hashes[static_cast<size_t>(j)], keys.rows.data() + j * d,
                   results + j, n, evict)) {
      ++j;
      continue;
    }
    std::shared_ptr<Table> grown = GrowLocked(model_id, d, o, table->sets() + 1);
    evict = grown == table;
    table = std::move(grown);
  }
}

void InferenceCache::InvalidateModel(int64_t model_id) {
  MutexLock lock(mu_);
  auto it = tables_.find(model_id);
  if (it != tables_.end()) EraseLocked(it);
}

void InferenceCache::Clear() {
  MutexLock lock(mu_);
  tables_.clear();
  bytes_ = 0;
}

InferenceCache::Stats InferenceCache::GetStats() const {
  MutexLock lock(mu_);
  Stats stats;
  for (const auto& [id, table] : tables_) stats.entries += table->entries();
  stats.bytes = bytes_;
  stats.tables = static_cast<int64_t>(tables_.size());
  return stats;
}

}  // namespace indbml::inference
