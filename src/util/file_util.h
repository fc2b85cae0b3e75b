#ifndef DOPPLER_UTIL_FILE_UTIL_H_
#define DOPPLER_UTIL_FILE_UTIL_H_

#include <string>

#include "util/status.h"

namespace doppler {

/// Atomically replaces `path` with `content`: writes a sibling temp file,
/// fsyncs it, then rename(2)s it over `path`, so a concurrent reader sees
/// either the previous complete file or the new complete file — never a
/// torn write — and a reader that already holds the old file open keeps
/// reading the old bytes. Every file the library writes goes through it:
/// CSV tables (traces, catalogs, group models), the CLI's reports and
/// exports, the windowed snapshotter and the flight-recorder dump.
/// UNAVAILABLE on I/O failure, with no temp file left behind.
Status WriteTextFileAtomic(const std::string& path,
                           const std::string& content);

}  // namespace doppler

#endif  // DOPPLER_UTIL_FILE_UTIL_H_
