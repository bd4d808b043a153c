#include "io/atomic_file.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/sysio.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace mbf {
namespace {

std::string errnoText(const char* op, int err) {
  return std::string(op) + ": " + std::strerror(err) +
         " (errno " + std::to_string(err) + ")";
}

// Capped backoff for EINTR storms: the first few retries are immediate
// (the common signal-delivery case), after that sleep 1ms doubling to a
// 64ms cap so a pathological signal source can't spin a core.
void eintrBackoff(int attempt) {
  if (attempt < 8) return;
  const long ms = std::min(64L, 1L << std::min(attempt - 8, 6));
  struct timespec ts{0, ms * 1000000L};
  nanosleep(&ts, nullptr);  // EINTR here is fine; we retry anyway
}

int openRetry(const char* path, int flags, mode_t mode = 0) {
  int fd = -1;
  int attempt = 0;
  do {
    fd = sysio::open(path, flags, mode);
    if (fd < 0 && errno == EINTR) eintrBackoff(attempt++);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

Status fsyncRetry(int fd, const char* what) {
  int attempt = 0;
  while (sysio::fsync(fd) != 0) {
    if (errno == EINTR) {
      eintrBackoff(attempt++);
      continue;
    }
    // fsync on a directory can report EINVAL on exotic filesystems
    // (tmpfs historically); durability is simply unavailable there,
    // not a data-loss condition for the bytes already written.
    if (errno == EINVAL) return Status();
    return Status(StatusCode::kIoError, errnoText(what, errno));
  }
  return Status();
}

// --- SHA-256 (FIPS 180-4) ---------------------------------------------

alignas(16) constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

// The portable block function: FIPS 180-4 section 6.2.2 as written.
void compressPortable(std::uint32_t* state, const std::uint8_t* data,
                      std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t(data[4 * i]) << 24) |
             (std::uint32_t(data[4 * i + 1]) << 16) |
             (std::uint32_t(data[4 * i + 2]) << 8) |
             std::uint32_t(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)
// The x86 SHA-extensions block function. SHA256RNDS2 runs two rounds on
// the state split as (A,B,E,F) and (C,D,G,H); each 4-word group of the
// message schedule is w[i-16] + sigma0(w[i-15]) (SHA256MSG1), plus
// w[i-7], plus sigma1(w[i-2]) (SHA256MSG2), in groups of four rounds.
__attribute__((target("sha,sse4.1"))) void compressSha(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  const __m128i byteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // (A,B,C,D), (E,F,G,H) -> (A,B,E,F), (C,D,G,H), high lane first.
  const __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i hgfe = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, dcba, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abefIn = abef;
    const __m128i cdghIn = cdgh;
    __m128i w[4];  // w[g % 4] holds schedule words 4g..4g+3
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& x = w[g & 3];
      if (g < 4) {
        x = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            byteSwap);
      } else {
        const __m128i& back1 = w[(g + 3) & 3];  // words 4g-4..4g-1
        const __m128i& back2 = w[(g + 2) & 3];  // words 4g-8..4g-5
        const __m128i& back3 = w[(g + 1) & 3];  // words 4g-12..4g-9
        x = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(x, back3),
                          _mm_alignr_epi8(back1, back2, 4)),
            back1);
      }
      const __m128i wk = _mm_add_epi32(
          x, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kSha256K) + g));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abefIn);
    cdgh = _mm_add_epi32(cdgh, cdghIn);
  }

  // Back to (A,B,C,D), (E,F,G,H).
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}
#endif

// Chosen once per process (a thread-safe static initialization).
Sha256::BlockFn bestKernel() {
  static const Sha256::BlockFn best = [] {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
      return &compressSha;
    }
#endif
    return &compressPortable;
  }();
  return best;
}

}  // namespace

std::string dirnameOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

std::string basenameOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

Sha256::Sha256(Kernel kernel)
    : compress_(kernel == Kernel::kBest ? bestKernel() : &compressPortable) {
  reset();
}

bool Sha256::hardwareKernel() { return bestKernel() != &compressPortable; }

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  totalBytes_ = 0;
  bufferUsed_ = 0;
}

void Sha256::update(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  totalBytes_ += size;
  if (bufferUsed_ > 0) {
    const std::size_t take = std::min(size, buffer_.size() - bufferUsed_);
    std::memcpy(buffer_.data() + bufferUsed_, p, take);
    bufferUsed_ += take;
    p += take;
    size -= take;
    if (bufferUsed_ < buffer_.size()) return;
    compress_(state_.data(), buffer_.data(), 1);
    bufferUsed_ = 0;
  }
  if (size >= 64) {
    compress_(state_.data(), p, size / 64);
    p += size - size % 64;
    size %= 64;
  }
  if (size > 0) {
    std::memcpy(buffer_.data(), p, size);
    bufferUsed_ = size;
  }
}

std::string Sha256::hexDigest() {
  // Padding: 0x80, zeros up to 56 mod 64, then the message bit length
  // big-endian; one block, or two when fewer than 9 bytes are free.
  const std::uint64_t bitLen = totalBytes_ * 8;
  std::uint8_t tail[128] = {};
  std::memcpy(tail, buffer_.data(), bufferUsed_);
  tail[bufferUsed_] = 0x80;
  const std::size_t tailBytes = bufferUsed_ < 56 ? 64 : 128;
  for (int i = 0; i < 8; ++i) {
    tail[tailBytes - 1 - i] = std::uint8_t(bitLen >> (8 * i));
  }
  compress_(state_.data(), tail, tailBytes / 64);
  bufferUsed_ = 0;

  static const char* hex = "0123456789abcdef";
  std::string out(64, '0');
  for (int i = 0; i < 8; ++i) {
    const std::uint32_t v = state_[i];
    for (int j = 0; j < 4; ++j) {
      const std::uint8_t byte = std::uint8_t(v >> (24 - 8 * j));
      out[8 * i + 2 * j] = hex[byte >> 4];
      out[8 * i + 2 * j + 1] = hex[byte & 0xf];
    }
  }
  return out;
}

std::string sha256Hex(std::string_view data) {
  Sha256 h;
  h.update(data.data(), data.size());
  return h.hexDigest();
}

Status sha256File(const std::string& path, std::string& hexOut) {
  hexOut.clear();
  const int fd = openRetry(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status(errno == ENOENT ? StatusCode::kNotFound
                                  : StatusCode::kIoError,
                  "cannot open '" + path + "' for hashing: " +
                      errnoText("open", errno));
  }
  Sha256 h;
  std::uint8_t buf[1 << 16];
  int attempt = 0;
  for (;;) {
    const ssize_t n = sysio::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) {
        eintrBackoff(attempt++);
        continue;
      }
      const Status st(StatusCode::kIoError,
                      "read '" + path + "': " + errnoText("read", errno));
      sysio::close(fd);
      return st;
    }
    if (n == 0) break;
    h.update(buf, static_cast<std::size_t>(n));
  }
  sysio::close(fd);
  hexOut = h.hexDigest();
  return Status();
}

Status writeAllBytes(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t done = 0;
  int attempt = 0;
  while (done < size) {
    const ssize_t n = sysio::write(fd, p + done, size - done);
    if (n < 0) {
      if (errno == EINTR) {
        eintrBackoff(attempt++);
        continue;
      }
      return Status(StatusCode::kIoError,
                    errnoText("write", errno) + " after " +
                        std::to_string(done) + "/" + std::to_string(size) +
                        " bytes");
    }
    if (n == 0) {
      // A zero-progress write() without an errno is a filesystem that
      // can't take more bytes; report it as ENOSPC-equivalent rather
      // than looping forever.
      return Status(StatusCode::kIoError,
                    "write returned 0 (no space?) after " +
                        std::to_string(done) + "/" + std::to_string(size) +
                        " bytes");
    }
    attempt = 0;
    done += static_cast<std::size_t>(n);
  }
  return Status();
}

Status fsyncParentDir(const std::string& path) {
  const std::string dir = dirnameOf(path);
  const int fd = openRetry(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status(StatusCode::kIoError,
                  "cannot open parent dir '" + dir + "': " +
                      errnoText("open", errno));
  }
  Status st = fsyncRetry(fd, "fsync(parent dir)");
  sysio::close(fd);
  return st;
}

Status atomicWriteFile(const std::string& path, std::string_view data,
                       std::string* hexOut) {
  // Temp file in the destination directory so rename() stays on one
  // filesystem; pid-qualified so concurrent writers never collide.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  // O_EXCL: the temp name embeds our pid, so an existing file can only
  // be debris from a dead writer whose pid was recycled into ours —
  // unlink it and retry once. Never silently O_TRUNC a name we did not
  // create in this call.
  int fd = openRetry(tmp.c_str(),
                     O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0 && errno == EEXIST) {
    sysio::unlink(tmp.c_str());
    fd = openRetry(tmp.c_str(),
                   O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  }
  if (fd < 0) {
    return Status(StatusCode::kIoError,
                  "cannot create temp file '" + tmp + "': " +
                      errnoText("open", errno));
  }
  Status st = writeAllBytes(fd, data.data(), data.size());
  if (st.ok()) st = fsyncRetry(fd, "fsync(file)");
  if (sysio::close(fd) != 0 && st.ok()) {
    st = Status(StatusCode::kIoError, errnoText("close", errno));
  }
  if (st.ok() && sysio::rename(tmp.c_str(), path.c_str()) != 0) {
    st = Status(StatusCode::kIoError,
                "rename '" + tmp + "' -> '" + path + "': " +
                    errnoText("rename", errno));
  }
  if (!st.ok()) {
    sysio::unlink(tmp.c_str());
    return Status(st.code(), "atomic write of '" + path + "' failed: " +
                                 st.message());
  }
  st = fsyncParentDir(path);
  if (!st.ok()) return st;
  if (hexOut != nullptr) *hexOut = sha256Hex(data);
  return Status();
}

Status readFileToString(const std::string& path, std::string& out) {
  out.clear();
  const int fd = openRetry(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status(errno == ENOENT ? StatusCode::kNotFound
                                  : StatusCode::kIoError,
                  "cannot open '" + path + "': " + errnoText("open", errno));
  }
  char buf[1 << 16];
  int attempt = 0;
  for (;;) {
    const ssize_t n = sysio::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) {
        eintrBackoff(attempt++);
        continue;
      }
      const Status st(StatusCode::kIoError,
                      "read '" + path + "': " + errnoText("read", errno));
      sysio::close(fd);
      out.clear();
      return st;
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  sysio::close(fd);
  return Status();
}

// --- Advisory liveness-lock protocol (DESIGN.md section 19) -----------
//
// Lock files are named `.mbf-live.<pid>.lck`. The flock(2) calls below
// are deliberately raw (not routed through sysio): the protocol is
// advisory hygiene, and a misreported probe must degrade toward "keep
// the file", which the fallbacks below already do.

namespace {

std::string livenessLockPath(const std::string& dir, long pid) {
  return dir + "/.mbf-live." + std::to_string(pid) + ".lck";
}

/// Parses `.mbf-live.<pid>.lck`; returns the pid or -1 on no match.
long livenessLockPid(const std::string& name) {
  constexpr std::string_view kPrefix = ".mbf-live.";
  constexpr std::string_view kSuffix = ".lck";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return -1;
  if (name.compare(0, kPrefix.size(), kPrefix) != 0) return -1;
  if (name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
      0) {
    return -1;
  }
  const std::string pidText = name.substr(
      kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
  if (pidText.empty() ||
      pidText.find_first_not_of("0123456789") != std::string::npos) {
    return -1;
  }
  const long pid = std::strtol(pidText.c_str(), nullptr, 10);
  return pid > 0 ? pid : -1;
}

int flockRetry(int fd, int operation) {
  int attempt = 0;
  int rc;
  do {
    rc = ::flock(fd, operation);
    if (rc != 0 && errno == EINTR) eintrBackoff(attempt++);
  } while (rc != 0 && errno == EINTR);
  return rc;
}

/// Probes the lock file at `path`. Returns kUnknown when the file does
/// not exist (or cannot be opened), kLive when some process holds its
/// flock, kDead when the file exists but nobody holds it.
WriterLiveness probeLockFile(const std::string& path) {
  const int fd = openRetry(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return WriterLiveness::kUnknown;
  const int rc = flockRetry(fd, LOCK_SH | LOCK_NB);
  if (rc == 0) {
    // Nobody held the exclusive lock: the writer is provably dead.
    sysio::close(fd);  // close releases our shared lock
    return WriterLiveness::kDead;
  }
  sysio::close(fd);
  if (errno == EWOULDBLOCK || errno == EAGAIN) return WriterLiveness::kLive;
  // flock unsupported or failed oddly: refuse to condemn the writer.
  return WriterLiveness::kLive;
}

}  // namespace

DirLivenessLock::~DirLivenessLock() { release(); }

void DirLivenessLock::acquire(const std::string& dir) {
  if (held()) return;
  path_ = livenessLockPath(dir, static_cast<long>(::getpid()));
  // O_TRUNC discards tokens noted by a dead writer whose pid was
  // recycled into ours (its lock cannot be held: pids are unique among
  // live processes). The loop closes a small race with a concurrent
  // sweeper: it may probe between our open and flock, see the file
  // unheld, and unlink it — leaving us locked onto an orphaned inode.
  // After locking, verify the path still names our inode; retry if not.
  for (int attempt = 0; attempt < 5; ++attempt) {
    const int fd =
        openRetry(path_.c_str(),
                  O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0) break;
    if (flockRetry(fd, LOCK_EX | LOCK_NB) != 0) {
      sysio::close(fd);
      break;
    }
    struct stat byFd{}, byPath{};
    if (::fstat(fd, &byFd) == 0 && ::stat(path_.c_str(), &byPath) == 0 &&
        byFd.st_dev == byPath.st_dev && byFd.st_ino == byPath.st_ino) {
      fd_ = fd;
      return;
    }
    sysio::close(fd);
  }
  path_.clear();
}

void DirLivenessLock::note(const std::string& token) {
  if (!held() || token.empty()) return;
  const std::string line = token + "\n";
  // Best-effort: a failed note only weakens eviction protection for
  // this key, which the conservative probes tolerate.
  (void)writeAllBytes(fd_, line.data(), line.size());
}

void DirLivenessLock::release() {
  if (!held()) return;
  // Unlink before close: a prober that already opened the file still
  // holds an fd, and after our close its flock attempt succeeds — it
  // correctly reads "dead". A prober arriving after the unlink sees no
  // file at all (kUnknown), which is also safe.
  sysio::unlink(path_.c_str());
  sysio::close(fd_);  // drops the flock
  fd_ = -1;
  path_.clear();
}

WriterLiveness probeWriterLiveness(const std::string& dir, long pid) {
  return probeLockFile(livenessLockPath(dir, pid));
}

std::vector<std::string> liveNotedTokens(const std::string& dir) {
  std::vector<std::string> tokens;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return tokens;
  for (struct dirent* ent = ::readdir(d); ent != nullptr;
       ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (livenessLockPid(name) < 0) continue;
    const std::string path = dir + "/" + name;
    const WriterLiveness liveness = probeLockFile(path);
    if (liveness == WriterLiveness::kDead) {
      sysio::unlink(path.c_str());
      continue;
    }
    if (liveness == WriterLiveness::kUnknown) continue;  // vanished
    std::string content;
    if (!readFileToString(path, content).ok()) continue;
    std::size_t start = 0;
    while (start < content.size()) {
      std::size_t end = content.find('\n', start);
      if (end == std::string::npos) end = content.size();
      if (end > start) tokens.push_back(content.substr(start, end - start));
      start = end + 1;
    }
  }
  ::closedir(d);
  return tokens;
}

int sweepStaleLivenessLocks(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  int removed = 0;
  for (struct dirent* ent = ::readdir(d); ent != nullptr;
       ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (livenessLockPid(name) < 0) continue;
    const std::string path = dir + "/" + name;
    if (probeLockFile(path) != WriterLiveness::kDead) continue;
    if (sysio::unlink(path.c_str()) == 0) ++removed;
  }
  ::closedir(d);
  return removed;
}

int sweepStaleTempFiles(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  int removed = 0;
  for (struct dirent* ent = ::readdir(d); ent != nullptr;
       ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    const std::size_t tag = name.rfind(".tmp.");
    if (tag == std::string::npos || tag == 0) continue;
    const std::string pidText = name.substr(tag + 5);
    if (pidText.empty() ||
        pidText.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    const long pid = std::strtol(pidText.c_str(), nullptr, 10);
    if (pid <= 0) continue;
    switch (probeWriterLiveness(dir, pid)) {
      case WriterLiveness::kLive:
        continue;  // held flock beats any pid-based guess
      case WriterLiveness::kDead:
        break;  // provably dead even if the pid was recycled
      case WriterLiveness::kUnknown:
        // Pre-protocol writer: fall back to the conservative pid probe.
        // kill(pid, 0) probes existence without signaling; EPERM means
        // the pid exists but belongs to someone else — leave its temp
        // alone (this can spare recycled-pid debris, never deletes a
        // live writer's temp).
        if (::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH) {
          continue;
        }
        break;
    }
    const std::string path = dir + "/" + name;
    if (sysio::unlink(path.c_str()) == 0) ++removed;
  }
  ::closedir(d);
  sweepStaleLivenessLocks(dir);
  return removed;
}

std::string sidecarPathFor(const std::string& artifactPath) {
  return artifactPath + ".sha256";
}

Status writeHashSidecar(const std::string& artifactPath,
                        const std::string& hexDigest) {
  return atomicWriteFile(sidecarPathFor(artifactPath),
                         hexDigest + "  " + basenameOf(artifactPath) + "\n");
}

Status readHashSidecar(const std::string& artifactPath, std::string& hexOut) {
  hexOut.clear();
  std::string content;
  Status st = readFileToString(sidecarPathFor(artifactPath), content);
  if (!st.ok()) return st;
  std::string token;
  for (char c : content) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') break;
    token.push_back(c);
  }
  if (token.size() != 64 ||
      token.find_first_not_of("0123456789abcdef") != std::string::npos) {
    return Status(StatusCode::kParseError,
                  "sidecar '" + sidecarPathFor(artifactPath) +
                      "' does not start with a sha256 hex digest");
  }
  hexOut = std::move(token);
  return Status();
}

namespace {

/// Reads the sidecar of `artifactPath` and compares it with the digest
/// `hashArtifact` yields.
template <typename HashFn>
Status checkSidecar(const std::string& artifactPath, HashFn hashArtifact) {
  std::string expected;
  Status st = readHashSidecar(artifactPath, expected);
  if (!st.ok()) return st;
  std::string actual;
  st = hashArtifact(actual);
  if (!st.ok()) return st;
  if (actual != expected) {
    return Status(StatusCode::kInfeasible,
                  "sha256 mismatch for '" + artifactPath + "': sidecar says " +
                      expected + ", file hashes to " + actual);
  }
  return Status();
}

}  // namespace

Status verifyHashSidecar(const std::string& artifactPath) {
  return checkSidecar(artifactPath, [&](std::string& hex) {
    return sha256File(artifactPath, hex);
  });
}

Status verifyHashSidecar(const std::string& artifactPath,
                         std::string_view bytes) {
  return checkSidecar(artifactPath, [&](std::string& hex) {
    hex = sha256Hex(bytes);
    return Status();
  });
}

}  // namespace mbf
