// Correctness checks written independently of the code they check: the
// served-list properties use their own tokenizer, the reference ranking
// is an exhaustive single InvertedIndex scan, and surfaced records are
// recounted from the result pages and resolved against each site's own
// tables.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "index/inverted_index.h"
#include "index/search_index.h"
#include "synthweb/domain.h"

namespace perfbench {

/// Lower-cased alphanumeric runs of two or more characters, sorted and
/// deduplicated.
std::vector<std::string> Words(const std::string& text);

/// Checks served lists against the documents they name.
class ServedListChecker {
 public:
  /// Registers the text (title and body) of global doc id `id`.
  void SetDoc(deepsurf::index::DocId id, const std::string& text);

  /// Empty when `hits` is a valid answer to `query`: at most k hits,
  /// scores non-increasing, ties in ascending doc id, and every document
  /// known and sharing a word with the query. Otherwise the first fault.
  std::string Check(const std::string& query,
                    const std::vector<deepsurf::index::SearchHit>& hits,
                    size_t k) const;

 private:
  std::vector<std::vector<std::string>> words_;
};

/// True when both lists hold the same documents in the same order with
/// bit-identical scores.
bool SameHits(const std::vector<deepsurf::index::SearchHit>& a,
              const std::vector<deepsurf::index::SearchHit>& b);

/// The reference ranking: one InvertedIndex with pruning off, filled in
/// the given apply order.
std::unique_ptr<deepsurf::index::InvertedIndex> ExhaustiveIndex(
    const std::vector<deepsurf::index::Document>& docs);

/// Records listed on one result page, resolved to (table, row) of the
/// site that served it.
struct PageRecords {
  size_t links = 0;      ///< record links on the page
  size_t unmatched = 0;  ///< links whose content matches no row
  std::vector<std::pair<size_t, uint32_t>> records;  ///< (table, row)
};

/// Record links carry a row id but no table index, so each link is
/// resolved by content: the row of some table with that id whose every
/// cell appears in the page between this link and the next.
PageRecords ParseRecords(const deepsurf::synthweb::SiteSpec& site,
                         const std::string& body);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
