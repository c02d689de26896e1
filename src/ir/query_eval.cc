#include "ir/query_eval.h"

#include <algorithm>

namespace duplex::ir {

std::vector<DocId> Intersect(const std::vector<DocId>& a,
                             const std::vector<DocId>& b) {
  std::vector<DocId> out;
  out.reserve(std::min(a.size(), b.size()));
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      out.push_back(*ia);
      ++ia;
      ++ib;
    }
  }
  return out;
}

std::vector<DocId> Union(const std::vector<DocId>& a,
                         const std::vector<DocId>& b) {
  std::vector<DocId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

std::vector<DocId> Difference(const std::vector<DocId>& a,
                              const std::vector<DocId>& b) {
  std::vector<DocId> out;
  out.reserve(a.size());
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

}  // namespace duplex::ir
