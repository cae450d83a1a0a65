#include "storage/file_disk.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <limits>

namespace shpir::storage {

namespace {

using VectorIo = ssize_t (*)(int, const iovec*, int, off_t);

/// The file's size in bytes, refused when it would not fit in off_t.
Result<off_t> FileBytes(uint64_t num_slots, size_t slot_size) {
  if (slot_size != 0 &&
      num_slots > static_cast<uint64_t>(std::numeric_limits<off_t>::max()) /
                      slot_size) {
    return InvalidArgumentError("disk geometry exceeds the file size limit");
  }
  return static_cast<off_t>(num_slots * slot_size);
}

/// Runs one positioned transfer of `iov` to completion: `io` is preadv
/// or pwritev. Retries on EINTR, resumes a short transfer where it
/// stopped, and passes at most IOV_MAX vectors per call.
Status TransferAll(VectorIo io, const char* what, int fd, iovec* iov,
                   size_t count, off_t offset) {
  // shpir-lint-allow-next-line(secret-loop-bound): counts the slot buffers of one public run; the sealed bytes in them never reach a bound
  while (count > 0) {
    const ssize_t n =
        io(fd, iov, static_cast<int>(std::min<size_t>(count, IOV_MAX)),
           offset);
    // shpir-lint-allow-next-line(secret-compare, secret-loop-bound): n is the byte count the syscall moved, a public length; the sealed contents are never compared
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return InternalError(std::string("disk file ") + what +
                           " failed: " + std::strerror(errno));
    }
    // shpir-lint-allow-next-line(secret-compare, secret-loop-bound): n is the byte count the syscall moved, a public length; the sealed contents are never compared
    if (n == 0) {
      return DataLossError(std::string("short ") + what + " on disk file");
    }
    offset += n;
    size_t done = static_cast<size_t>(n);
    // shpir-lint-allow-next-line(secret-loop-bound): skips the buffers a short transfer filled, by public byte counts
    while (count > 0 && done >= iov->iov_len) {
      done -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<uint8_t*>(iov->iov_base) + done;
      iov->iov_len -= done;
    }
  }
  return OkStatus();
}

}  // namespace

Result<std::unique_ptr<FileDisk>> FileDisk::Create(const std::string& path,
                                                   uint64_t num_slots,
                                                   size_t slot_size) {
  SHPIR_ASSIGN_OR_RETURN(const off_t total, FileBytes(num_slots, slot_size));
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0666);
  if (fd < 0) {
    return InternalError("cannot create disk file: " + path);
  }
  if (::ftruncate(fd, total) != 0) {
    ::close(fd);
    return InternalError("cannot size disk file: " + path);
  }
  return std::unique_ptr<FileDisk>(new FileDisk(fd, num_slots, slot_size));
}

Result<std::unique_ptr<FileDisk>> FileDisk::Open(const std::string& path,
                                                 uint64_t num_slots,
                                                 size_t slot_size) {
  SHPIR_ASSIGN_OR_RETURN(const off_t total, FileBytes(num_slots, slot_size));
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    return NotFoundError("cannot open disk file: " + path);
  }
  struct stat info = {};
  if (::fstat(fd, &info) != 0) {
    ::close(fd);
    return InternalError("cannot stat disk file: " + path);
  }
  if (info.st_size != total) {
    ::close(fd);
    return InvalidArgumentError("disk file geometry mismatch: " + path);
  }
  return std::unique_ptr<FileDisk>(new FileDisk(fd, num_slots, slot_size));
}

FileDisk::~FileDisk() {
  ::close(fd_);
}

Status FileDisk::Read(Location loc, MutableByteSpan out) {
  if (loc >= num_slots_) {
    return OutOfRangeError("read past end of disk");
  }
  if (out.size() != slot_size_) {
    return InvalidArgumentError("read buffer has wrong size");
  }
  iovec iov = {out.data(), slot_size_};
  return TransferAll(::preadv, "read", fd_, &iov, 1,
                     static_cast<off_t>(loc * slot_size_));
}

Status FileDisk::Write(Location loc, ByteSpan data) {
  if (loc >= num_slots_) {
    return OutOfRangeError("write past end of disk");
  }
  if (data.size() != slot_size_) {
    return InvalidArgumentError("write data has wrong size");
  }
  iovec iov = {const_cast<uint8_t*>(data.data()), slot_size_};
  return TransferAll(::pwritev, "write", fd_, &iov, 1,
                     static_cast<off_t>(loc * slot_size_));
}

Status FileDisk::ReadRun(Location start, uint64_t count,
                         std::vector<Bytes>& out) {
  if (!RunFits(start, count, num_slots_)) {
    return OutOfRangeError("run extends past end of disk");
  }
  // shpir-lint-allow-next-line(secret-alloc): run length is a public scheme parameter (c pages per round), not secret content
  out.resize(count);
  std::vector<iovec> iov;
  iov.reserve(out.size());
  for (Bytes& slot : out) {
    slot.resize(slot_size_);
    iov.push_back({slot.data(), slot_size_});
  }
  return TransferAll(::preadv, "read", fd_, iov.data(), iov.size(),
                     static_cast<off_t>(start * slot_size_));
}

Status FileDisk::WriteRun(Location start, const std::vector<Bytes>& slots) {
  if (!RunFits(start, slots.size(), num_slots_)) {
    return OutOfRangeError("run extends past end of disk");
  }
  std::vector<iovec> iov;
  iov.reserve(slots.size());
  for (const Bytes& slot : slots) {
    if (slot.size() != slot_size_) {
      return InvalidArgumentError("write data has wrong size");
    }
    iov.push_back({const_cast<uint8_t*>(slot.data()), slot_size_});
  }
  return TransferAll(::pwritev, "write", fd_, iov.data(), iov.size(),
                     static_cast<off_t>(start * slot_size_));
}

}  // namespace shpir::storage
