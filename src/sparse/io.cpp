#include "sparse/io.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>

#include "common/error.hpp"

namespace gpa {

namespace {
constexpr char kMagic[8] = {'G', 'P', 'A', 'C', 'S', 'R', '1', '\0'};

template <typename T>
void write_vec(std::ofstream& out, const std::vector<T>& v) {
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
void read_vec(std::ifstream& in, std::vector<T>& v, std::size_t n) {
  v.resize(n);
  in.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(n * sizeof(T)));
}
}  // namespace

void save_csr(const Csr<float>& mask, const std::string& path) {
  GPA_CHECK(mask.is_canonical(), "refusing to serialise a non-canonical mask");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  GPA_CHECK(out.good(), "cannot open for writing: " + path);
  out.write(kMagic, sizeof(kMagic));
  const std::uint64_t header[3] = {static_cast<std::uint64_t>(mask.rows),
                                   static_cast<std::uint64_t>(mask.cols), mask.nnz()};
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  write_vec(out, mask.row_offsets);
  write_vec(out, mask.col_idx);
  write_vec(out, mask.values);
  GPA_CHECK(out.good(), "short write while serialising: " + path);
}

Csr<float> load_csr(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GPA_CHECK(in.good(), "cannot open for reading: " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  GPA_CHECK(in.good() && std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
            "not a GPA CSR file: " + path);
  std::uint64_t header[3];
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  GPA_CHECK(in.good(), "truncated header: " + path);

  // Every declared size is checked against the bytes the file actually
  // holds before anything is allocated: a corrupt or hostile header must
  // not drive a huge resize. The division form cannot overflow, and a
  // row count that passes it is far below the Index range.
  const std::streamoff payload_at = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff file_end = in.tellg();
  in.seekg(payload_at);
  GPA_CHECK(in.good() && payload_at >= 0 && file_end >= payload_at,
            "cannot size file: " + path);
  const auto left = static_cast<std::uint64_t>(file_end - payload_at);
  const std::uint64_t rows = header[0], cols = header[1], nnz = header[2];
  GPA_CHECK(cols <= static_cast<std::uint64_t>(INT64_MAX),
            "corrupt header (negative column count): " + path);
  GPA_CHECK(rows < left / sizeof(Index), "truncated payload: " + path);
  const std::uint64_t offsets_bytes = (rows + 1) * sizeof(Index);
  GPA_CHECK(nnz <= (left - offsets_bytes) / (sizeof(Index) + sizeof(float)),
            "truncated payload: " + path);

  Csr<float> mask;
  mask.rows = static_cast<Index>(rows);
  mask.cols = static_cast<Index>(cols);
  read_vec(in, mask.row_offsets, static_cast<std::size_t>(rows) + 1);
  read_vec(in, mask.col_idx, static_cast<std::size_t>(nnz));
  read_vec(in, mask.values, static_cast<std::size_t>(nnz));
  GPA_CHECK(in.good(), "truncated payload: " + path);
  GPA_CHECK(mask.is_canonical(), "corrupt mask payload: " + path);
  return mask;
}

}  // namespace gpa
