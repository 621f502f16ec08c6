#include "perm/io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

namespace hmm::perm {
namespace {

constexpr char kMagic[8] = {'H', 'M', 'M', 'P', 'E', 'R', 'M', '1'};

}  // namespace

bool save(std::ostream& os, const Permutation& p) {
  os.write(kMagic, sizeof kMagic);
  const std::uint64_t n = p.size();
  os.write(reinterpret_cast<const char*>(&n), sizeof n);
  os.write(reinterpret_cast<const char*>(p.data().data()),
           static_cast<std::streamsize>(n * sizeof(std::uint32_t)));
  return static_cast<bool>(os);
}

std::optional<Permutation> load(std::istream& is) {
  char magic[8];
  if (!is.read(magic, sizeof magic) || std::memcmp(magic, kMagic, sizeof magic) != 0) {
    return std::nullopt;
  }
  std::uint64_t n = 0;
  if (!is.read(reinterpret_cast<char*>(&n), sizeof n) || n == 0 || n > (1ull << 32)) {
    return std::nullopt;
  }
  util::aligned_vector<std::uint32_t> map(n);
  if (!is.read(reinterpret_cast<char*>(map.data()),
               static_cast<std::streamsize>(n * sizeof(std::uint32_t)))) {
    return std::nullopt;
  }
  return Permutation::adopt(std::move(map));
}

bool save_file(const std::string& path, const Permutation& p) {
  std::ofstream os(path, std::ios::binary);
  return os && save(os, p);
}

std::optional<Permutation> load_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  return load(is);
}

}  // namespace hmm::perm
