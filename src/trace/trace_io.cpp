#include "trace/trace_io.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>

namespace ulc {

namespace {

constexpr char kMagicV1[8] = {'U', 'L', 'C', 'T', 'R', 'C', '0', '1'};
constexpr char kMagicV2[8] = {'U', 'L', 'C', 'T', 'R', 'C', '0', '2'};
constexpr char kMagicV3[8] = {'U', 'L', 'C', 'T', 'R', 'C', '0', '3'};

bool any_sized(const Trace& trace) {
  for (const Request& r : trace) {
    if (r.size != 1) return true;
  }
  return false;
}

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void set_error(std::string* error, const std::string& msg) {
  if (error) *error = msg;
}

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

bool save_trace_text(const Trace& trace, const std::string& path, std::string* error) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (!f) {
    set_error(error, "cannot open for writing: " + path);
    return false;
  }
  std::fprintf(f.get(), "# ULC trace: %s (%zu requests)\n", trace.name().c_str(),
               trace.size());
  std::fprintf(f.get(), "# format: <client> <block> [r|w] [size_units]\n");
  for (const Request& r : trace) {
    int rc;
    if (r.size != 1) {
      // The size column needs the op column before it to stay parseable.
      rc = std::fprintf(f.get(), "%" PRIu32 " %" PRIu64 " %c %" PRIu32 "\n",
                        r.client, r.block, r.op == Op::kWrite ? 'w' : 'r',
                        r.size);
    } else if (r.op == Op::kWrite) {
      rc = std::fprintf(f.get(), "%" PRIu32 " %" PRIu64 " w\n", r.client, r.block);
    } else {
      rc = std::fprintf(f.get(), "%" PRIu32 " %" PRIu64 "\n", r.client, r.block);
    }
    if (rc < 0) {
      set_error(error, "write failure: " + path);
      return false;
    }
  }
  return true;
}

std::optional<Trace> load_trace_text(const std::string& path, std::string* error) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (!f) {
    set_error(error, "cannot open for reading: " + path);
    return std::nullopt;
  }
  Trace trace(path);
  char line[256];
  std::size_t lineno = 0;
  while (std::fgets(line, sizeof(line), f.get())) {
    ++lineno;
    const char* p = line;
    while (*p == ' ' || *p == '\t') ++p;
    if (*p == '#' || *p == '\n' || *p == '\0') continue;
    std::uint32_t client = 0;
    std::uint64_t block = 0;
    char op_ch = 'r';
    std::uint32_t size = 1;
    const int fields = std::sscanf(p, "%" SCNu32 " %" SCNu64 " %c %" SCNu32,
                                   &client, &block, &op_ch, &size);
    if (fields < 2 ||
        (fields >= 3 && op_ch != 'r' && op_ch != 'w' && op_ch != 'R' &&
         op_ch != 'W') ||
        (fields == 4 && size == 0)) {
      set_error(error, path + ":" + std::to_string(lineno) + ": malformed line");
      return std::nullopt;
    }
    trace.add(block, client,
              (op_ch == 'w' || op_ch == 'W') ? Op::kWrite : Op::kRead,
              fields == 4 ? size : 1);
  }
  return trace;
}

bool save_trace_binary(const Trace& trace, const std::string& path, std::string* error) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) {
    set_error(error, "cannot open for writing: " + path);
    return false;
  }
  // v3 (with a per-record size field) only when any request needs it, so
  // unit-size caches stay readable by older readers byte for byte.
  const bool sized = any_sized(trace);
  const std::size_t record = sized ? 17 : 13;
  std::uint8_t header[16];
  std::memcpy(header, sized ? kMagicV3 : kMagicV2, 8);
  put_u64(header + 8, trace.size());
  if (std::fwrite(header, 1, sizeof(header), f.get()) != sizeof(header)) {
    set_error(error, "write failure: " + path);
    return false;
  }
  std::vector<std::uint8_t> buf;
  buf.reserve(record * 4096);
  for (const Request& r : trace) {
    std::uint8_t rec[17];
    put_u32(rec, r.client);
    put_u64(rec + 4, r.block);
    rec[12] = static_cast<std::uint8_t>(r.op);
    if (sized) put_u32(rec + 13, r.size);
    buf.insert(buf.end(), rec, rec + record);
    if (buf.size() >= record * 4096) {
      if (std::fwrite(buf.data(), 1, buf.size(), f.get()) != buf.size()) {
        set_error(error, "write failure: " + path);
        return false;
      }
      buf.clear();
    }
  }
  if (!buf.empty() && std::fwrite(buf.data(), 1, buf.size(), f.get()) != buf.size()) {
    set_error(error, "write failure: " + path);
    return false;
  }
  return true;
}

std::optional<Trace> load_trace_binary(const std::string& path, std::string* error) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) {
    set_error(error, "cannot open for reading: " + path);
    return std::nullopt;
  }
  std::uint8_t header[16];
  if (std::fread(header, 1, sizeof(header), f.get()) != sizeof(header)) {
    set_error(error, "not a ULC binary trace: " + path);
    return std::nullopt;
  }
  std::size_t record = 0;
  if (std::memcmp(header, kMagicV3, 8) == 0) {
    record = 17;  // v3: op + per-record size units
  } else if (std::memcmp(header, kMagicV2, 8) == 0) {
    record = 13;
  } else if (std::memcmp(header, kMagicV1, 8) == 0) {
    record = 12;  // v1: reads only
  } else {
    set_error(error, "not a ULC binary trace: " + path);
    return std::nullopt;
  }
  const std::uint64_t count = get_u64(header + 8);
  // The header count is untrusted: check it against the bytes actually on
  // disk before it sizes any allocation.
  std::error_code ec;
  const std::uintmax_t file_size = std::filesystem::file_size(path, ec);
  if (ec || count > (file_size - sizeof(header)) / record) {
    set_error(error, "trace header claims " + std::to_string(count) +
                         " records, more than the file holds: " + path);
    return std::nullopt;
  }
  Trace trace(path);
  trace.reserve(static_cast<std::size_t>(count));
  std::vector<std::uint8_t> buf(record * 4096);
  std::uint64_t remaining = count;
  while (remaining > 0) {
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(remaining, 4096)) * record;
    if (std::fread(buf.data(), 1, want, f.get()) != want) {
      set_error(error, "truncated trace: " + path);
      return std::nullopt;
    }
    for (std::size_t off = 0; off < want; off += record) {
      const Op op = record >= 13 && buf[off + 12] == 1 ? Op::kWrite : Op::kRead;
      const std::uint32_t size = record == 17 ? get_u32(buf.data() + off + 13) : 1;
      if (size == 0) {
        set_error(error, "zero-size record in trace: " + path);
        return std::nullopt;
      }
      trace.add(get_u64(buf.data() + off + 4), get_u32(buf.data() + off), op, size);
    }
    remaining -= want / record;
  }
  return trace;
}

}  // namespace ulc
