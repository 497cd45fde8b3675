#include "comm/coll.hpp"

#include <algorithm>

namespace insitu::comm {

namespace {

int g_arity = kDefaultCollArity;

}  // namespace

int default_coll_arity() { return g_arity; }

void set_default_coll_arity(int arity) {
  g_arity = std::max(arity, kMinCollArity);
}

}  // namespace insitu::comm
