#include "model/host.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "util/bits.hpp"

namespace hmm::model {

namespace {

/// One sysfs cache attribute of cpu0's `index`-th cache ("" if absent).
std::string sysfs_cache(int index, const char* attr) {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/" +
                   attr);
  std::string value;
  in >> value;
  return value;
}

/// "2048K" / "105M" / "512" -> bytes (0 when unparsable).
std::uint64_t parse_size(const std::string& text) {
  if (text.empty()) return 0;
  std::size_t used = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (...) {
    return 0;
  }
  const char unit = used < text.size() ? text[used] : ' ';
  if (unit == 'K') return value << 10;
  if (unit == 'M') return value << 20;
  if (unit == 'G') return value << 30;
  return value;
}

/// Number of CPUs in a sysfs cpulist ("0-3,8-11,15"); 0 if unparsable.
std::uint64_t cpulist_count(const std::string& list) {
  std::uint64_t count = 0;
  std::size_t pos = 0;
  while (pos < list.size()) {
    std::size_t end = list.find(',', pos);
    if (end == std::string::npos) end = list.size();
    const std::string range = list.substr(pos, end - pos);
    const std::size_t dash = range.find('-');
    const std::uint64_t lo = parse_size(range.substr(0, dash));
    const std::uint64_t hi = dash == std::string::npos ? lo : parse_size(range.substr(dash + 1));
    if (hi >= lo) count += hi - lo + 1;
    pos = end + 1;
  }
  return count;
}

/// A cold `ways`-way LRU cache of `sets` sets; each set keeps its tags
/// most-recently-used first (tag 0 = empty, so lines are stored + 1).
class LruCache {
 public:
  LruCache(std::uint64_t sets, std::uint32_t ways)
      : sets_(sets), ways_(ways), tags_(sets * ways, 0) {}

  /// Touch `line`; true on a miss.
  bool miss(std::uint64_t line) {
    const std::uint64_t tag = line + 1;
    std::uint64_t* set = tags_.data() + (line % sets_) * ways_;
    if (set[0] == tag) return false;
    std::uint32_t way = 1;
    while (way < ways_ && set[way] != tag) ++way;
    const bool missed = way == ways_;
    if (missed) way = ways_ - 1;  // evict the least recently used
    std::memmove(set + 1, set, way * sizeof(std::uint64_t));
    set[0] = tag;
    return missed;
  }

 private:
  std::uint64_t sets_;
  std::uint32_t ways_;
  std::vector<std::uint64_t> tags_;
};

}  // namespace

HostParams host_geometry(std::uint32_t workers) {
  HostParams host;
  host.workers = std::max<std::uint32_t>(1, workers);
  std::uint64_t line = 0, l2 = 0, ways = 0, llc = 0, llc_sharers = 0;
  if (const long page = ::sysconf(_SC_PAGESIZE); page > 0 && util::is_pow2(page)) {
    host.page_bytes = static_cast<std::uint32_t>(page);
  }
#if defined(_SC_LEVEL2_CACHE_SIZE)
  const auto conf = [](int name) {
    const long v = ::sysconf(name);
    return v > 0 ? static_cast<std::uint64_t>(v) : 0;
  };
  line = conf(_SC_LEVEL2_CACHE_LINESIZE);
  l2 = conf(_SC_LEVEL2_CACHE_SIZE);
  ways = conf(_SC_LEVEL2_CACHE_ASSOC);
  llc = std::max(conf(_SC_LEVEL3_CACHE_SIZE), conf(_SC_LEVEL4_CACHE_SIZE));
#endif
  // sysfs fills what sysconf left out (some libcs and VMs report 0).
  for (int index = 0; index < 8; ++index) {
    const std::string level = sysfs_cache(index, "level");
    if (level.empty()) continue;
    const std::uint64_t size = parse_size(sysfs_cache(index, "size"));
    if (line == 0) line = parse_size(sysfs_cache(index, "coherency_line_size"));
    if (level == "2" && l2 == 0) {
      l2 = size;
      ways = parse_size(sysfs_cache(index, "ways_of_associativity"));
    }
    if (level >= "3" && size >= llc) {
      llc = size;
      llc_sharers = cpulist_count(sysfs_cache(index, "shared_cpu_list"));
    }
  }
  if (util::is_pow2(line)) host.line_bytes = static_cast<std::uint32_t>(line);
  if (l2 > 0) host.l2_bytes = l2;
  if (ways > 0) host.l2_ways = static_cast<std::uint32_t>(ways);
  host.llc_bytes = std::max(llc / std::max<std::uint64_t>(1, llc_sharers), host.l2_bytes);
  return host;
}

const HostParams& pool_geometry() {
  static const HostParams host = host_geometry(util::ThreadPool::global().size());
  return host;
}

GatherMisses gather_l2_misses(std::span<const std::uint32_t> pinv, std::size_t elem_bytes,
                              const HostParams& host, util::ThreadPool& pool) {
  const std::uint64_t n = pinv.size();
  const std::uint64_t workers = std::max<std::uint32_t>(1, host.workers);
  const std::uint32_t ways = std::max<std::uint32_t>(1, host.l2_ways);
  const std::uint64_t sets =
      std::max<std::uint64_t>(1, host.l2_bytes / (std::uint64_t{host.line_bytes} * ways));
  const unsigned line_shift = util::log2_floor(host.line_bytes);
  const std::uint64_t page_mask = host.page_bytes - 1;
  std::vector<GatherMisses> misses(workers);
  pool.parallel_for(
      0, workers,
      [&](std::uint64_t c) {
        LruCache cache(sets, ways);
        GatherMisses count;
        std::uint64_t prev = ~std::uint64_t{0};
        for (std::uint64_t i = c * n / workers; i < (c + 1) * n / workers; ++i) {
          const std::uint64_t addr = std::uint64_t{pinv[i]} * elem_bytes;
          if (cache.miss(addr >> line_shift)) {
            ++count.lines;
            count.aliased += addr != prev && ((addr ^ prev) & page_mask) == 0;
          }
          prev = addr;
        }
        misses[c] = count;
      },
      1);
  GatherMisses total;
  for (const GatherMisses& m : misses) {
    total.lines += m.lines;
    total.aliased += m.aliased;
  }
  return total;
}

double conventional_ns(const GatherMisses& misses, std::uint64_t source_bytes,
                       const HostParams& host) noexcept {
  return static_cast<double>(misses.lines) * host.miss_ns(source_bytes) +
         static_cast<double>(misses.aliased) * host.alias_ns + host.forkjoin_ns;
}

double bucketed_ns(std::uint64_t n, std::size_t elem_bytes, const HostParams& host) noexcept {
  // Bytes per element over the two passes: (read e + read a u16 +
  // write e) + (read e + read a u32 + write e) = 4e + 6; 22 at e = 4.
  const double scale = (4.0 * static_cast<double>(elem_bytes) + 6.0) / 22.0;
  return static_cast<double>(n) * host.bucket_ns * scale + 2.0 * host.forkjoin_ns;
}

}  // namespace hmm::model
