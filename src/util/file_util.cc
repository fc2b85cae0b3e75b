#include "util/file_util.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>

namespace doppler {

Status WriteTextFileAtomic(const std::string& path,
                           const std::string& content) {
  // Unique sibling name so concurrent writers to the same target (or a
  // crashed predecessor's leftover) never collide; rename(2) within the
  // same directory is the atomic publication step.
  static std::atomic<std::uint64_t> tmp_serial{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(::getpid())) +
      "." + std::to_string(tmp_serial.fetch_add(1, std::memory_order_relaxed));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return UnavailableError("cannot open '" + tmp + "' for writing");
  }
  std::size_t written = 0;
  while (written < content.size()) {
    const ::ssize_t n =
        ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return UnavailableError("write to '" + tmp + "' failed");
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return UnavailableError("flush of '" + tmp + "' failed");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return UnavailableError("rename '" + tmp + "' -> '" + path + "' failed");
  }
  return OkStatus();
}

}  // namespace doppler
