#include "sim/result_cache.hh"

#include <new>

namespace fidelity
{

namespace
{

// Data-word layout.  Bit 0 marks a live entry so fingerprint 0 with a
// default outcome still differs from an empty slot; bits [8,16) hold
// the generation stamp; bits [16,64) hold the top fingerprint bits as
// a second integrity tag on top of the XOR check.
constexpr std::uint64_t kValidBit = 1ull << 0;
constexpr std::uint64_t kMaskedBit = 1ull << 1;
constexpr std::uint64_t kEarlyExitBit = 1ull << 2;
constexpr unsigned kGenerationShift = 8;
constexpr std::uint64_t kGenerationMask = 0xffull << kGenerationShift;
constexpr unsigned kTagShift = 16;

std::uint64_t packData(std::uint64_t fingerprint, CachedOutcome out, std::uint32_t generation)
{
    std::uint64_t data = kValidBit;
    if (out.masked)
        data |= kMaskedBit;
    if (out.earlyExit)
        data |= kEarlyExitBit;
    data |= (std::uint64_t{generation} & 0xff) << kGenerationShift;
    data |= (fingerprint >> kTagShift) << kTagShift;
    return data;
}

bool dataMatches(std::uint64_t fingerprint, std::uint64_t data)
{
    if (!(data & kValidBit))
        return false;
    return (data >> kTagShift) == (fingerprint >> kTagShift);
}

// splitmix64 finaliser: fingerprints are already well mixed, but the
// bucket index must not reuse the same bits as the embedded tag, and
// deliberately crafted colliding keys (the adversarial tests) should
// still spread across shards.
std::uint64_t mixIndex(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t loadWord(std::uint64_t &w)
{
    return std::atomic_ref<std::uint64_t>(w).load(std::memory_order_relaxed);
}

void storeWord(std::uint64_t &w, std::uint64_t v)
{
    std::atomic_ref<std::uint64_t>(w).store(v, std::memory_order_relaxed);
}

std::size_t floorPow2(std::size_t v)
{
    std::size_t p = 1;
    while (p * 2 <= v)
        p *= 2;
    return p;
}

} // namespace

ResultCache::ResultCache(std::size_t capacity_bytes)
{
    const std::size_t cluster_bytes = kClusterEntries * kEntryBytes;
    std::size_t clusters = capacity_bytes / (kShards * cluster_bytes);
    clustersPerShard_ = clusters == 0 ? 1 : floorPow2(clusters);
    static_assert(sizeof(Entry) == kEntryBytes);
    static_assert(std::atomic_ref<std::uint64_t>::is_always_lock_free);
    entries_.reset(static_cast<Entry *>(std::calloc(entryCount(), sizeof(Entry))));
    if (!entries_)
        throw std::bad_alloc();
    stats_ = std::make_unique<ShardStats[]>(kShards);
}

ResultCache::Entry *ResultCache::cluster(std::uint64_t fingerprint, std::size_t &shard)
{
    const std::uint64_t mixed = mixIndex(fingerprint);
    shard = static_cast<std::size_t>(mixed & (kShards - 1));
    const std::size_t cluster_idx = static_cast<std::size_t>((mixed / kShards) & (clustersPerShard_ - 1));
    return entries_.get() + (shard * clustersPerShard_ + cluster_idx) * kClusterEntries;
}

bool ResultCache::probe(std::uint64_t fingerprint, CachedOutcome &out)
{
    std::size_t shard = 0;
    Entry *c = cluster(fingerprint, shard);
    for (std::size_t i = 0; i < kClusterEntries; ++i)
    {
        const std::uint64_t xkey = loadWord(c[i].xkey);
        const std::uint64_t data = loadWord(c[i].data);
        // Both checks must pass: the XOR couples the two words (a torn
        // read fails it), the tag couples the data word to the probed
        // fingerprint.  Either alone would admit a wrong outcome under
        // a race; together a false hit needs a ~2^-112 coincidence.
        if ((xkey ^ data) == fingerprint && dataMatches(fingerprint, data))
        {
            out.masked = (data & kMaskedBit) != 0;
            out.earlyExit = (data & kEarlyExitBit) != 0;
            stats_[shard].hits.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }
    stats_[shard].misses.fetch_add(1, std::memory_order_relaxed);
    return false;
}

void ResultCache::store(std::uint64_t fingerprint, CachedOutcome out)
{
    std::size_t shard = 0;
    Entry *c = cluster(fingerprint, shard);
    const std::uint32_t generation = generation_.load(std::memory_order_relaxed);
    const std::uint64_t data = packData(fingerprint, out, generation);

    // Victim preference: refresh the same fingerprint, else take an
    // empty slot, else displace the oldest-generation entry (lowest
    // index on ties, so replaying the same sequence single-threaded
    // reproduces the same placements).
    std::size_t victim = 0;
    int victim_age = -1;
    bool victim_live = true;
    for (std::size_t i = 0; i < kClusterEntries; ++i)
    {
        const std::uint64_t xkey = loadWord(c[i].xkey);
        const std::uint64_t d = loadWord(c[i].data);
        if ((xkey ^ d) == fingerprint && dataMatches(fingerprint, d))
        {
            victim = i;
            victim_live = false; // refresh, not an eviction
            break;
        }
        if (!(d & kValidBit))
        {
            if (victim_live)
            {
                victim = i;
                victim_age = -1;
                victim_live = false;
            }
            continue;
        }
        // Age = how many generations behind the current one; wraps
        // mod 256 like the stamp itself.
        const std::uint32_t entry_gen = static_cast<std::uint32_t>((d & kGenerationMask) >> kGenerationShift);
        const int age = static_cast<int>((generation - entry_gen) & 0xff);
        if (victim_live && age > victim_age)
        {
            victim = i;
            victim_age = age;
        }
    }
    if (victim_live)
        stats_[shard].evictions.fetch_add(1, std::memory_order_relaxed);
    stats_[shard].stores.fetch_add(1, std::memory_order_relaxed);
    storeWord(c[victim].data, data);
    storeWord(c[victim].xkey, fingerprint ^ data);
}

void ResultCache::newGeneration()
{
    generation_.fetch_add(1, std::memory_order_relaxed);
}

ResultCacheStats ResultCache::stats() const
{
    ResultCacheStats s;
    for (std::size_t i = 0; i < kShards; ++i)
    {
        s.hits += stats_[i].hits.load(std::memory_order_relaxed);
        s.misses += stats_[i].misses.load(std::memory_order_relaxed);
        s.stores += stats_[i].stores.load(std::memory_order_relaxed);
        s.evictions += stats_[i].evictions.load(std::memory_order_relaxed);
    }
    return s;
}

std::size_t ResultCache::entryCount() const
{
    return kShards * clustersPerShard_ * kClusterEntries;
}

} // namespace fidelity
