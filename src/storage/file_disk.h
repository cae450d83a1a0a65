#ifndef SHPIR_STORAGE_FILE_DISK_H_
#define SHPIR_STORAGE_FILE_DISK_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/disk.h"

namespace shpir::storage {

/// File-backed disk, for databases larger than RAM or for persistence
/// across runs. Slots are stored contiguously in a single flat file.
/// Every call is positioned I/O: one pread/pwrite-family syscall per
/// slot or per run (more only on a short transfer), and no shared file
/// offset, so concurrent callers never race on a seek.
class FileDisk : public Disk {
 public:
  /// Creates (or truncates) a file sized for `num_slots` x `slot_size`.
  static Result<std::unique_ptr<FileDisk>> Create(const std::string& path,
                                                  uint64_t num_slots,
                                                  size_t slot_size);

  /// Opens an existing file created by Create() with matching geometry.
  static Result<std::unique_ptr<FileDisk>> Open(const std::string& path,
                                                uint64_t num_slots,
                                                size_t slot_size);

  ~FileDisk() override;

  FileDisk(const FileDisk&) = delete;
  FileDisk& operator=(const FileDisk&) = delete;

  uint64_t num_slots() const override { return num_slots_; }
  size_t slot_size() const override { return slot_size_; }
  Status Read(Location loc, MutableByteSpan out) override;
  Status Write(Location loc, ByteSpan data) override;
  Status ReadRun(Location start, uint64_t count,
                 std::vector<Bytes>& out) override;
  Status WriteRun(Location start, const std::vector<Bytes>& slots) override;

 private:
  FileDisk(int fd, uint64_t num_slots, size_t slot_size)
      : fd_(fd), num_slots_(num_slots), slot_size_(slot_size) {}

  int fd_;
  uint64_t num_slots_;
  size_t slot_size_;
};

}  // namespace shpir::storage

#endif  // SHPIR_STORAGE_FILE_DISK_H_
