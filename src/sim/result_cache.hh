/**
 * @file
 * Cross-campaign injection result cache (fault-site memo table).
 *
 * Many fault sites are architecturally equivalent: the same layer, the
 * same fault category, the same corrupted neurons with the same
 * perturbed values, propagating through the same golden state.  Such
 * injections provably produce the same outcome, yet a campaign pays a
 * full (incremental) forward pass for each of them — and adaptive
 * rounds plus repeated service-style requests re-sample the same
 * (layer, category) cells constantly.  This module memoises the
 * expensive part: keyed by a 64-bit fault-site fingerprint (see
 * core/injector.hh, faultSiteFingerprint), it records the outcome of
 * an evaluated injection so an equivalent later one can skip the
 * forward pass entirely.
 *
 * The design is the transposition-table discipline of game-tree
 * searchers (probe → compute → store), adapted to a campaign fan-out:
 *
 *  - Fixed capacity, power-of-two geometry: a bucket array of 16-byte
 *    packed entries grouped into 4-entry clusters, split into
 *    independent shards so the statistics counters of concurrent
 *    workers never contend on one cache line.
 *  - Lock-free relaxed-atomic 2-word publish: each entry stores
 *    (fingerprint XOR data, data).  A probe recomputes the XOR and
 *    additionally checks the fingerprint tag embedded in the data
 *    word, so a torn read — data from one store, key from another —
 *    fails the check and misses.  A torn read can cost a recompute,
 *    never return a wrong outcome.
 *  - Generation-based eviction: stores stamp the table's current
 *    generation into the entry; a full cluster evicts its oldest-
 *    generation entry first (ties broken by lowest slot index, so a
 *    single-threaded replay of the same probe/store sequence is
 *    deterministic).  Campaigns bump the generation once at start, so
 *    a long-lived shared table ages out entries of old requests under
 *    pressure while still serving them on a hit.
 *
 * Semantic transparency is the caller's contract: the cache returns
 * recorded outcomes only for equal fingerprints, and the fingerprint
 * (not this module) must be sound — see DESIGN.md §11 for the
 * soundness argument.
 */

#ifndef FIDELITY_SIM_RESULT_CACHE_HH
#define FIDELITY_SIM_RESULT_CACHE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>

namespace fidelity
{

/** Aggregated probe/store counters of a ResultCache. */
struct ResultCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t evictions = 0; //!< stores that displaced a live entry
};

/** Memoised outcome of one fault-injection experiment. */
struct CachedOutcome
{
    bool masked = false;
    bool earlyExit = false;
};

/** Lock-free, sharded fault-site memo table. */
class ResultCache
{
  public:
    /** Bytes of one packed entry (two 64-bit words). */
    static constexpr std::size_t kEntryBytes = 16;

    /** Entries scanned per bucket (one probe/store touches one
     *  cluster: two cache lines). */
    static constexpr std::size_t kClusterEntries = 4;

    /** Independent shards (statistics isolation + index striping). */
    static constexpr std::size_t kShards = 16;

    /**
     * Build a table of at most `capacity_bytes` of entry storage.  The
     * per-shard cluster count is rounded down to a power of two; the
     * floor is one cluster per shard (kShards * kClusterEntries
     * entries), so even a deliberately tiny table — the
     * eviction-under-pressure tests — is functional.
     */
    explicit ResultCache(std::size_t capacity_bytes);

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /**
     * Look up a fingerprint.  On a hit, `out` receives the recorded
     * outcome and the entry is untouched (no LRU maintenance — the
     * generation stamp ages whole campaigns, not individual probes).
     * Safe to call concurrently with probe() and store().
     */
    bool probe(std::uint64_t fingerprint, CachedOutcome &out);

    /**
     * Record an outcome.  Publishes with two relaxed atomic stores;
     * concurrent stores of the same fingerprint are idempotent (both
     * write the same outcome — equal fingerprints imply equal
     * outcomes), and a concurrent probe that reads a half-published
     * entry misses.
     */
    void store(std::uint64_t fingerprint, CachedOutcome out);

    /**
     * Start a new generation (wraps mod 256).  Entries of older
     * generations stay probeable but are evicted first when a cluster
     * fills; call once per campaign on a shared table.
     */
    void newGeneration();

    /** Sum of the per-shard counters (relaxed reads; exact once
     *  concurrent users have quiesced). */
    ResultCacheStats stats() const;

    /** Total entries across all shards. */
    std::size_t entryCount() const;

    /** Bytes of entry storage actually allocated. */
    std::size_t capacityBytes() const { return entryCount() * kEntryBytes; }

  private:
    /**
     * One 16-byte packed entry of plain words, every access through
     * std::atomic_ref.  `xkey` holds fingerprint ^ data; `data` packs
     * valid/masked/earlyExit bits, the generation stamp, and the top
     * 48 fingerprint bits as a second integrity tag.
     */
    struct Entry
    {
        std::uint64_t xkey;
        std::uint64_t data;
    };

    /** Releases the calloc'd entries. */
    struct FreeEntries
    {
        void operator()(Entry *p) const { std::free(p); }
    };

    /** Per-shard counter block, cache-line padded so neighbouring
     *  shards cannot false-share. */
    struct alignas(64) ShardStats
    {
        std::atomic<std::uint64_t> hits{0};
        std::atomic<std::uint64_t> misses{0};
        std::atomic<std::uint64_t> stores{0};
        std::atomic<std::uint64_t> evictions{0};
    };

    Entry *cluster(std::uint64_t fingerprint, std::size_t &shard);

    /** The entries come from calloc, so a large table is zero-filled
     *  lazily by the OS: a campaign touches (and pays for) only the
     *  pages its fingerprints land in, not the whole capacity. */
    std::unique_ptr<Entry[], FreeEntries> entries_;
    std::unique_ptr<ShardStats[]> stats_;
    std::size_t clustersPerShard_ = 0; //!< power of two
    std::atomic<std::uint32_t> generation_{0};
};

} // namespace fidelity

#endif // FIDELITY_SIM_RESULT_CACHE_HH
