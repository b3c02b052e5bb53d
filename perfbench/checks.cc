#include "checks.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <memory>

#include "html/tokenizer.h"

namespace perfbench {

namespace dsi = deepsurf::index;

std::vector<std::string> Words(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (size_t i = 0; i <= text.size(); ++i) {
    unsigned char c = i < text.size() ? text[i] : ' ';
    if (std::isalnum(c)) {
      cur.push_back(static_cast<char>(std::tolower(c)));
      continue;
    }
    if (cur.size() >= 2) out.push_back(cur);
    cur.clear();
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void ServedListChecker::SetDoc(dsi::DocId id, const std::string& text) {
  if (words_.size() <= id) words_.resize(id + 1);
  words_[id] = Words(text);
}

std::string ServedListChecker::Check(const std::string& query,
                                     const std::vector<dsi::SearchHit>& hits,
                                     size_t k) const {
  if (hits.size() > k) return "more than k hits for \"" + query + "\"";
  std::vector<std::string> q = Words(query);
  for (size_t i = 0; i < hits.size(); ++i) {
    if (i > 0) {
      const dsi::SearchHit& a = hits[i - 1];
      const dsi::SearchHit& b = hits[i];
      if (a.score < b.score) return "scores increase for \"" + query + "\"";
      if (a.score == b.score && a.doc >= b.doc) {
        return "tie not in ascending doc id for \"" + query + "\"";
      }
    }
    if (hits[i].doc >= words_.size() || words_[hits[i].doc].empty()) {
      return "unknown document served for \"" + query + "\"";
    }
    const auto& doc = words_[hits[i].doc];
    bool shares = std::any_of(q.begin(), q.end(), [&](const std::string& w) {
      return std::binary_search(doc.begin(), doc.end(), w);
    });
    if (!shares) {
      return "document without a query word served for \"" + query + "\"";
    }
  }
  return "";
}

bool SameHits(const std::vector<dsi::SearchHit>& a,
              const std::vector<dsi::SearchHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

std::unique_ptr<dsi::InvertedIndex> ExhaustiveIndex(
    const std::vector<dsi::Document>& docs) {
  dsi::IndexOptions options;
  options.enable_pruning = false;
  auto index = std::make_unique<dsi::InvertedIndex>(options);
  for (const auto& d : docs) {
    (void)index->AddDocument(d.url, d.title, d.body, d.is_deep_web,
                             d.source_host);
  }
  return index;
}

PageRecords ParseRecords(const deepsurf::synthweb::SiteSpec& site,
                         const std::string& body) {
  static const std::string kLink = "href=\"/item?id=";
  PageRecords out;
  std::vector<size_t> starts;
  for (size_t p = body.find(kLink); p != std::string::npos;
       p = body.find(kLink, p + 1)) {
    starts.push_back(p);
  }
  for (size_t i = 0; i < starts.size(); ++i) {
    ++out.links;
    size_t id_at = starts[i] + kLink.size();
    uint32_t row = 0;
    size_t p = id_at;
    while (p < body.size() && std::isdigit(static_cast<unsigned char>(body[p]))) {
      row = row * 10 + static_cast<uint32_t>(body[p] - '0');
      ++p;
    }
    size_t end = i + 1 < starts.size() ? starts[i + 1] : body.size();
    std::string snippet = body.substr(id_at, end - id_at);
    bool matched = false;
    for (size_t t = 0; t < site.tables.size() && !matched; ++t) {
      const auto& table = *site.tables[t].second;
      if (row >= table.num_rows()) continue;
      const auto& cells = table.row(row);
      bool all = std::all_of(cells.begin(), cells.end(), [&](const auto& v) {
        return snippet.find(deepsurf::html::EscapeHtml(v.ToDisplayString())) !=
               std::string::npos;
      });
      if (all) {
        out.records.emplace_back(t, row);
        matched = true;
      }
    }
    if (!matched) ++out.unmatched;
  }
  return out;
}

}  // namespace perfbench
