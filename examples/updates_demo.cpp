// Database updates (paper §4.3): insertions, deletions and in-place
// modifications all look exactly like queries to the server — same
// 4 seeks, same k+1 pages read and rewritten.
//
//   ./updates_demo

#include <cstdio>
#include <string>

#include "common/check.h"
#include "core/engine_stack.h"

namespace {

shpir::Bytes Payload(const std::string& text, size_t page_size) {
  shpir::Bytes data(text.begin(), text.end());
  data.resize(page_size, 0);
  return data;
}

std::string Text(const shpir::Bytes& data) {
  return std::string(data.begin(),
                     std::find(data.begin(), data.end(), uint8_t{0}));
}

}  // namespace

int main() {
  using namespace shpir;

  constexpr size_t kPageSize = 64;
  core::CApproxPir::Options options;
  options.num_pages = 100;
  options.page_size = kPageSize;
  options.cache_pages = 16;
  options.block_size = 8;
  options.insert_reserve = 50;  // Spare dummy pages for future inserts.

  auto stack = core::EngineStack::Create(
      options, hardware::HardwareProfile::Ibm4764(), std::nullopt);
  SHPIR_CHECK(stack.ok());
  core::CApproxPir& engine = (*stack)->engine();
  hardware::SecureCoprocessor& cpu = (*stack)->cpu();

  std::vector<storage::Page> pages;
  for (uint64_t id = 0; id < options.num_pages; ++id) {
    pages.emplace_back(id, Payload("record-" + std::to_string(id),
                                   kPageSize));
  }
  SHPIR_CHECK_OK(engine.Initialize(pages));

  auto cost_of = [&](const char* label, auto&& op) {
    const auto before = cpu.cost().Snapshot();
    op();
    const auto delta = cpu.cost().Snapshot() - before;
    std::printf("%-28s %llu seeks, %6.1f KB moved\n", label,
                (unsigned long long)delta.seeks,
                static_cast<double>(delta.disk_bytes) / 1000.0);
  };

  std::printf("every operation has the identical on-disk footprint:\n\n");
  cost_of("Retrieve(7)",
          [&] { SHPIR_CHECK(engine.Retrieve(7).ok()); });
  cost_of("Modify(7, new contents)", [&] {
    SHPIR_CHECK_OK(engine.Modify(7, Payload("record-7-v2", kPageSize)));
  });
  cost_of("Retrieve(7) again",
          [&] { SHPIR_CHECK(engine.Retrieve(7).ok()); });
  cost_of("Remove(13)", [&] { SHPIR_CHECK_OK(engine.Remove(13)); });
  storage::PageId new_id = 0;
  cost_of("Insert(fresh record)", [&] {
    auto id = engine.Insert(Payload("record-new", kPageSize));
    SHPIR_CHECK(id.ok());
    new_id = *id;
  });

  std::printf("\nafter the updates:\n");
  std::printf("  page 7:  '%s'\n", Text(*engine.Retrieve(7)).c_str());
  std::printf("  page 13: %s\n",
              engine.Retrieve(13).ok() ? "still there?!" : "deleted");
  std::printf("  page %llu: '%s' (the inserted record)\n",
              (unsigned long long)new_id,
              Text(*engine.Retrieve(new_id)).c_str());
  return 0;
}
