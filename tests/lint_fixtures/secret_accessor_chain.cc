// Lint fixture: a secret-returning call reached through an accessor
// call chain. Lookup() returns a secret-derived value; the caller gets
// its Store from holder->store(), so the walk back from Lookup to the
// assignment must step over store()'s parentheses. Expected: exactly
// one secret-branch diagnostic (the `if`). Never compiled — only
// scanned by shpir_lint_test.
#include "common/secret.h"

struct Store {
  int Lookup(int id) {
    const int slot = slots_secret.ExposeSecret() + id;
    return slot;
  }
  shpir::common::Secret<int> slots_secret;
};

struct Holder {
  Store* store();
};

int CachePolicy(Holder* holder, int id) {
  const int found = holder->store()->Lookup(id);
  if (found > 4) {
    return 1;
  }
  return 0;
}
