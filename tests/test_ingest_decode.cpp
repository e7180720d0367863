// POST /ingest decoding: server::decode_ingest streams the body through the
// JSON grammar straight into an UpdateBatch.  The oracle below is the
// document-tree walk the service used before: parse the whole body into a
// json::Value, then read the records off the tree.  Every body, seeded or
// mutated, must get the same accept/reject, the byte-identical error
// message and, on accept, the same records.  Bodies of at least
// kParallelDecodeCutoff bytes are also decoded at several thread counts,
// where the decoder splits the updates array into chunks: every width must
// agree with one thread.  Batches are compared, never applied: a mutation
// such as "u":1e8 is a valid id the service would grow the graph for.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "snap/server/service.hpp"
#include "snap/stream/update_batch.hpp"
#include "snap/util/json.hpp"
#include "snap/util/parallel.hpp"
#include "snap/util/rng.hpp"

namespace {

using snap::vid_t;
using snap::json::Value;
using snap::server::decode_ingest;
using snap::server::kParallelDecodeCutoff;
using snap::stream::UpdateBatch;
using snap::stream::UpdateKind;
using snap::stream::UpdateRecord;

bool oracle_decode(std::string_view body, UpdateBatch* out,
                   std::string* error) {
  out->clear();
  Value doc;
  std::string err;
  if (!snap::json::parse(body, &doc, &err)) {
    *error = "malformed JSON body: " + err;
    return false;
  }
  const Value* updates = doc.find("updates");
  if (updates == nullptr || !updates->is_array()) {
    *error = "body must be {\"updates\": [...]}";
    return false;
  }
  for (std::size_t i = 0; i < updates->size(); ++i) {
    const Value& rec = (*updates)[i];
    const std::string at = "updates[" + std::to_string(i) + "]";
    if (!rec.is_object()) {
      *error = at + " is not an object";
      return false;
    }
    const std::string op = rec.get("op").as_string();
    const vid_t uu = rec.get("u").as_int64(-1);
    const vid_t vv = rec.get("v").as_int64(-1);
    if (uu < 0 || vv < 0) {
      *error = at + " needs non-negative integer \"u\" and \"v\"";
      return false;
    }
    const auto time = static_cast<std::uint64_t>(rec.get("time").as_int64(0));
    if (op == "insert") {
      out->insert(uu, vv, time);
    } else if (op == "delete") {
      out->erase(uu, vv, time);
    } else {
      *error = at + " \"op\" must be insert or delete";
      return false;
    }
  }
  return true;
}

struct Decoded {
  bool ok = false;
  std::string error;
  std::vector<UpdateRecord> records;
};

using Decoder = bool (*)(std::string_view, UpdateBatch*, std::string*);

Decoded run(Decoder decode, std::string_view body) {
  Decoded d;
  UpdateBatch b;
  d.ok = decode(body, &b, &d.error);
  d.records = b.records();
  return d;
}

Decoded streamed(std::string_view body) { return run(decode_ingest, body); }
Decoded tree_walk(std::string_view body) { return run(oracle_decode, body); }

/// Compare two decodes of the body `what` names; true when they agree.
bool agree(std::string_view what, const Decoded& got, const Decoded& want) {
  EXPECT_EQ(got.ok, want.ok) << what;
  if (got.ok != want.ok) return false;
  if (!got.ok) {
    EXPECT_EQ(got.error, want.error) << what;
    return got.error == want.error;
  }
  EXPECT_TRUE(got.records == want.records) << what;
  return got.records == want.records;
}

const std::vector<std::string>& seed_corpus() {
  static const std::vector<std::string> corpus = {
      R"({"updates":[]})",
      R"({"updates":[{"op":"insert","u":0,"v":1,"time":3},{"op":"delete","u":1,"v":0}]})",
      R"( { "updates" : [ { "op" : "insert" , "u" : 2 , "v" : 5 } ] } )",
      // Duplicate top-level keys: the last "updates" wins, either way round.
      R"({"updates":[{"op":"insert","u":1,"v":2}],"updates":5})",
      R"({"updates":5,"updates":[{"op":"insert","u":1,"v":2}]})",
      R"({"updates":[7],"updates":[{"op":"delete","u":3,"v":4}]})",
      R"({"updates":[{"op":"insert","u":3,"v":4}],"updates":[]})",
      // Duplicate keys inside a record: the last one wins.
      R"({"updates":[{"op":"insert","u":1,"u":2,"v":3,"op":"delete"}]})",
      R"({"updates":[{"op":"insert","u":-1,"v":3,"u":4,"time":1,"time":2}]})",
      // Nested values as unknown members and as u, v and op.
      R"({"updates":[{"op":"insert","u":1,"v":2,"meta":{"u":9,"x":[1,{"v":-1}]}}]})",
      R"({"updates":[{"op":"insert","u":{"a":1},"v":2}]})",
      R"({"updates":[{"op":"insert","u":1,"v":[2]}]})",
      R"({"updates":[{"op":["insert"],"u":1,"v":2}]})",
      R"({"updates":[{"op":{"op":"insert"},"u":1,"v":2}]})",
      R"({"updates":[{"u":[1],"u":1,"op":"insert","v":2}]})",
      R"({"updates":[{"op":"insert","u":1,"v":2,"v":{"x":3}}]})",
      R"({"updates":[{"op":"delete","op":null,"u":1,"v":2}]})",
      R"({"other":{"updates":[1]},"updates":[{"op":"insert","u":1,"v":2}],"x":[[{}]]})",
      R"({"updates":{"updates":[{"op":"insert","u":1,"v":2}]}})",
      // Null, number and array records.
      R"({"updates":[null]})",
      R"({"updates":[{"op":"insert","u":1,"v":2},3]})",
      R"({"updates":[[{"op":"insert","u":1,"v":2}]]})",
      R"({"updates":[true,{"op":"insert"}]})",
      // Number forms as ids and times.
      R"({"updates":[{"op":"insert","u":1e1,"v":2.0,"time":1.5}]})",
      R"({"updates":[{"op":"insert","u":1.5,"v":2}]})",
      R"({"updates":[{"op":"insert","u":-4,"v":2}]})",
      R"({"updates":[{"op":"insert","u":1e300,"v":2,"time":-4}]})",
      R"({"updates":[{"op":"delete","u":-0,"v":0,"time":-0}]})",
      R"({"updates":[{"op":"insert","u":9007199254740992,"v":9007199254740993}]})",
      R"({"updates":[{"op":"insert","u":1,"v":2,"time":1e300}]})",
      R"({"updates":[{"op":"insert","u":"1","v":2}]})",
      R"({"updates":[{"op":"insert","u":1,"v":2,"time":"7"}]})",
      // An escaped op is the same string.
      R"({"updates":[{"op":"ins\u0065rt","u":1,"v":2},{"op":"d\u0065lete","u":2,"v":1}]})",
      R"({"updates":[{"op":"INSERT","u":1,"v":2}]})",
      // Not a {"updates": [...]} document.
      R"([{"updates":[]}])",
      R"({"nope":1})",
      R"("updates")",
      R"(null)",
      // A bad record, then malformed JSON: the malformed body wins.
      R"({"updates":[{"op":"explode","u":1,"v":2},{"op":"insert","u":1,)",
  };
  return corpus;
}

TEST(IngestDecode, ContractExamples) {
  Decoded d = streamed(
      R"({"updates":[{"op":"insert","u":1e1,"v":2.0,"time":-1}]})");
  ASSERT_TRUE(d.ok) << d.error;
  ASSERT_EQ(d.records.size(), 1u);
  EXPECT_EQ(d.records[0],
            (UpdateRecord{10, 2, ~std::uint64_t{0}, UpdateKind::kInsert}));

  d = streamed(R"({"updates":[{"op":"ins\u0065rt","u":1,"v":2}]})");
  ASSERT_TRUE(d.ok) << d.error;
  EXPECT_EQ(d.records,
            (std::vector<UpdateRecord>{{1, 2, 0, UpdateKind::kInsert}}));

  d = streamed(R"({"updates":[7],"updates":[{"op":"delete","u":3,"v":4}]})");
  ASSERT_TRUE(d.ok) << d.error;
  EXPECT_EQ(d.records,
            (std::vector<UpdateRecord>{{3, 4, 0, UpdateKind::kDelete}}));

  d = streamed(R"({"updates":[{"op":"insert","u":1,"v":2}],"updates":{}})");
  EXPECT_FALSE(d.ok);
  EXPECT_EQ(d.error, "body must be {\"updates\": [...]}");
  EXPECT_TRUE(d.records.empty());

  d = streamed(R"({"updates":[{"op":"insert","u":1,"v":2},{"u":1,"v":2},5]})");
  EXPECT_FALSE(d.ok);
  EXPECT_EQ(d.error, "updates[1] \"op\" must be insert or delete");

  d = streamed(R"({"updates":[{"op":"insert","u":1.5,"op":"x"}]})");
  EXPECT_EQ(d.error, "updates[0] needs non-negative integer \"u\" and \"v\"");

  d = streamed(R"({"updates":[{"op":"x","u":1,"v":2}],)");
  EXPECT_EQ(d.error, "malformed JSON body: byte 36: expected object key");
}

TEST(IngestDecode, SeedCorpusMatchesTreeWalk) {
  for (const std::string& body : seed_corpus())
    agree(body, streamed(body), tree_walk(body));
}

constexpr std::string_view kAlphabet = "{}[],:\"0123456789.-eE \\utrfanl";

/// Apply 1-4 random single-byte edits (insert, overwrite, erase) drawn
/// from kAlphabet.
void mutate(std::string* body, snap::SplitMix64* rng) {
  auto below = [rng](std::size_t n) {
    return static_cast<std::size_t>(rng->next_bounded(n));
  };
  const std::size_t edits = 1 + below(4);
  for (std::size_t e = 0; e < edits; ++e) {
    const char c = kAlphabet[below(kAlphabet.size())];
    switch (below(3)) {
      case 0:
        body->insert(below(body->size() + 1), 1, c);
        break;
      case 1:
        if (!body->empty()) (*body)[below(body->size())] = c;
        break;
      default:
        if (!body->empty()) body->erase(below(body->size()), 1);
    }
  }
}

TEST(IngestDecode, MutatedBodiesMatchTreeWalk) {
  constexpr int kBodies = 20000;
  const std::vector<std::string>& corpus = seed_corpus();
  snap::SplitMix64 rng(20081411);
  auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_bounded(n));
  };
  int accepted = 0;
  int malformed = 0;
  int bad_record = 0;
  int mismatches = 0;
  for (int i = 0; i < kBodies; ++i) {
    std::string body = corpus[below(corpus.size())];
    mutate(&body, &rng);
    const Decoded got = streamed(body);
    if (!agree(body, got, tree_walk(body)) && ++mismatches >= 10) break;
    if (got.ok)
      ++accepted;
    else if (got.error.starts_with("malformed"))
      ++malformed;
    else if (got.error.starts_with("updates["))
      ++bad_record;
  }
  EXPECT_EQ(mismatches, 0);
  // The mutations must reach every verdict, not only the parser's errors.
  EXPECT_GT(accepted, kBodies / 50);
  EXPECT_GT(bad_record, kBodies / 50);
  EXPECT_GT(malformed, kBodies / 4);
}

// ---------------------------------------------------------------------------
// Large bodies: the chunked decode at every width against one thread.

const std::vector<int> kWidths = {1, 2, 3, 4, 8};

/// Decode `body` at every width in kWidths and check each against width 1
/// (and, with `oracle`, width 1 against the tree walk); returns width 1's.
Decoded at_every_width(std::string_view what, const std::string& body,
                       bool oracle) {
  EXPECT_GE(body.size(), static_cast<std::size_t>(kParallelDecodeCutoff))
      << what;
  Decoded first;
  for (const int t : kWidths) {
    snap::parallel::ThreadScope scope(t);
    Decoded d = streamed(body);
    if (t == kWidths.front())
      first = std::move(d);
    else
      agree(std::string(what) + " at " + std::to_string(t) + " threads", d,
            first);
  }
  if (oracle) agree(std::string(what) + " vs the tree walk", first,
                    tree_walk(body));
  return first;
}

/// A body comfortably past the cutoff, so every width > 1 splits it.
constexpr std::size_t kBigBody =
    static_cast<std::size_t>(kParallelDecodeCutoff) * 5 / 4;

/// One record as the benchmark renders it, with 5-digit ids and a 7-digit
/// time, so that every record is the same length.
std::string fixed_record(std::size_t i) {
  const std::size_t u = 10000 + (i * 7919) % 50000;
  const std::size_t v = 10000 + (i * 104729) % 50000;
  return std::string(i % 5 == 4 ? R"({"op":"delete","u":)"
                                 : R"({"op":"insert","u":)") +
         std::to_string(u) + ",\"v\":" + std::to_string(v) +
         ",\"time\":" + std::to_string(1000000 + i) + "}";
}

/// {"updates":[...]} around `records`, joined by `sep`.
std::string wrap(const std::vector<std::string>& records,
                 std::string_view sep = ",") {
  std::string body = R"({"updates":[)";
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i != 0) body += sep;
    body += records[i];
  }
  return body + "]}";
}

/// Records from `make(i)` until the wrapped body reaches kBigBody bytes.
template <typename Make>
std::vector<std::string> records_to_fill(Make&& make) {
  std::vector<std::string> records;
  std::size_t bytes = 0;
  while (bytes < kBigBody) {
    records.push_back(make(records.size()));
    bytes += records.back().size() + 1;
  }
  return records;
}

TEST(IngestDecodeChunked, FlatRecordsAtEveryWidth) {
  const std::vector<std::string> records = records_to_fill(fixed_record);
  const std::string body = wrap(records);
  const Decoded d = at_every_width("flat records", body, /*oracle=*/true);
  ASSERT_TRUE(d.ok) << d.error;
  ASSERT_EQ(d.records.size(), records.size());
  EXPECT_EQ(d.records[1], (UpdateRecord{10000 + 7919, 10000 + 104729 % 50000,
                                        1000001, UpdateKind::kInsert}));
  EXPECT_EQ(d.records[4].kind, UpdateKind::kDelete);

  // The daemon's own preload shape: no time, varying id widths.
  snap::SplitMix64 rng(7);
  const std::string preload = wrap(records_to_fill([&rng](std::size_t) {
    return R"({"op":"insert","u":)" + std::to_string(rng.next_bounded(70000)) +
           ",\"v\":" + std::to_string(rng.next_bounded(9)) + "}";
  }));
  EXPECT_TRUE(at_every_width("preload records", preload, true).ok);
}

TEST(IngestDecodeChunked, BodiesThatDefeatTheBoundaryGuess) {
  // Decoys: a string holding ",{", "}" and "]"; a nested record; a nested
  // object and array after a comma; whitespace around every token.
  const std::vector<std::string> decoys = {
      R"(,"note":",{ } ] ,{ }} ]] ,{")",
      R"(,"meta":[1,{"u":9}])",
      R"(,"meta":[1,{"u":9,"v":8,"op":"insert"}])",
      R"(,"meta":{"a":[1,{"u":1,"v":2,"op":"delete"},{}]})",
  };
  for (std::size_t k = 0; k < decoys.size(); ++k) {
    for (const std::size_t every : {1, 3}) {
      const std::vector<std::string> records =
          records_to_fill([&](std::size_t i) {
            std::string r = fixed_record(i);
            if (i % every == 0) r.insert(r.size() - 1, decoys[k]);
            return r;
          });
      const Decoded d =
          at_every_width("decoy " + std::to_string(k) + " every " +
                             std::to_string(every),
                         wrap(records), /*oracle=*/true);
      ASSERT_TRUE(d.ok) << d.error;
      EXPECT_EQ(d.records.size(), records.size());
    }
  }
  // A record longer than a chunk, with a nested value after its padding:
  // every width's guess lands on the nested '{', and the chunk before it
  // ends inside the long record, one record past its slot bound (its '}'
  // bytes lie beyond the guess).  Mid-array, the next chunk writes the
  // nested record; at the end, the last chunk has no slots at all.
  const std::vector<std::string> flat = records_to_fill(fixed_record);
  const std::string pad(kBigBody / 4, 'x');
  for (const bool at_end : {false, true}) {
    std::vector<std::string> records = flat;
    const std::string r = R"({"op":"insert","u":1,"v":2,"pad":")" + pad +
                          (at_end ? R"(","meta":[1,{"u":9}]})"
                                  : R"(","meta":[1,{"u":9,"v":8,"op":"insert"}]})");
    records.insert(records.begin() + static_cast<std::ptrdiff_t>(
                                          at_end ? flat.size() : flat.size() / 2),
                   r);
    const Decoded d = at_every_width(
        at_end ? "long last record" : "long middle record", wrap(records),
        /*oracle=*/true);
    ASSERT_TRUE(d.ok) << d.error;
    EXPECT_EQ(d.records.size(), records.size());
  }

  // Newlines and spaces around every token.
  const std::vector<std::string> records = records_to_fill([](std::size_t i) {
    std::string spaced;
    for (const char c : fixed_record(i)) {
      if (c == '{' || c == '}' || c == ':' || c == ',') spaced += "\n ";
      spaced += c;
      if (c == '{' || c == '}' || c == ':' || c == ',') spaced += " \n";
    }
    return spaced;
  });
  const std::string body = " \n{ \"updates\"\n:\t[\n" +
                           wrap(records, "\n,\n").substr(12) + "\n";
  const Decoded d = at_every_width("whitespace", body, /*oracle=*/true);
  ASSERT_TRUE(d.ok) << d.error;
  EXPECT_EQ(d.records.size(), records.size());
}

TEST(IngestDecodeChunked, ShapesAtTheEdgeOfTheFastPath) {
  const std::vector<std::string> records = records_to_fill(fixed_record);
  const std::string array = wrap(records).substr(11);  // "[...]}"
  const std::string items = array.substr(0, array.size() - 1);  // "[...]"
  const std::string one = R"({"op":"insert","u":1,"v":2})";
  const std::string pad(kBigBody, ' ');
  const std::string pad_str(kBigBody, 'x');
  const std::vector<std::pair<std::string, std::string>> bodies = {
      {"second updates key after the array",
       R"({"updates":)" + items + R"(,"updates":[)" + one + "]}"},
      {"second updates key, not an array",
       R"({"updates":)" + items + R"(,"updates":{}})"},
      {"member before the array", R"({"x":1,"updates":)" + array},
      {"member after the array", R"({"updates":)" + items + R"(,"x":[1]})"},
      {"scalar member after the array", R"({"updates":)" + items + R"(,"x":1})"},
      {"escaped updates key", R"({"upd\u0061tes":)" + array},
      {"empty array", R"({"updates":[)" + pad + "]}"},
      {"one record", R"({"updates":[{"op":"insert","u":1,"v":2,"pad":")" +
                         pad_str + "\"}]}"},
      {"trailing garbage", R"({"updates":)" + array + "x"},
      {"trailing array close", R"({"updates":)" + array + "]}"},
      {"trailing whitespace", R"({"updates":)" + array + " \n\t\r"},
      {"updates is an object", R"({"updates":{"a":)" + items + "}}"},
      {"root is an array", std::string("[") + R"({"updates":)" + array + "]"},
      {"unterminated array", R"({"updates":)" + items.substr(0, items.size() - 1) + "}"},
  };
  for (const auto& [what, body] : bodies) at_every_width(what, body, true);
}

TEST(IngestDecodeChunked, OneBadByteAnywhere) {
  const std::vector<std::string> records = records_to_fill(fixed_record);
  const std::size_t n = records.size();
  // Record k starts at byte 12 + k * (len + 1); the decoder cuts the array
  // at 4 * threads equal offsets, so chunk c of d starts on record
  // ceil(len_array * c / d / (len + 1)).  Spoil the records on both sides
  // of those starts, and the first, a middle and the last record.
  const std::size_t len = records[0].size();
  const std::size_t array = n * (len + 1) - 1;
  std::set<std::size_t> near_starts;
  for (const int t : kWidths) {
    const std::size_t d = 4 * static_cast<std::size_t>(t);
    for (const std::size_t c : {std::size_t{1}, d / 2, d - 1}) {
      const std::size_t k = (array * c / d + len) / (len + 1);
      for (const std::size_t j : {k - 1, k, k + 1})
        if (j < n) near_starts.insert(j);
    }
  }
  const std::vector<std::pair<std::string, std::string>> spoilers = {
      {"op", R"({"op":"explode","u":1,"v":2})"},
      {"negative id", R"({"op":"insert","u":-1,"v":2})"},
      {"not an object", "7"},
      {"missing brace", R"({"op":"insert","u":1,"v":2)"},
      {"bad separator", R"({"op":"insert","u":1;"v":2})"},
      {"empty object", "{}"},
  };
  const auto spoil = [&](std::size_t k, std::size_t s, bool oracle) {
    ASSERT_EQ(records[k].size(), len);
    std::vector<std::string> spoilt = records;
    spoilt[k] = spoilers[s].second;
    const Decoded d = at_every_width(
        spoilers[s].first + " at record " + std::to_string(k), wrap(spoilt),
        oracle);
    EXPECT_FALSE(d.ok);
  };
  // Every spoiler at the first, a middle and the last record; one each,
  // in turn, next to the chunk starts.
  for (const std::size_t k : {std::size_t{0}, n / 2, n - 1})
    for (std::size_t s = 0; s < spoilers.size(); ++s) spoil(k, s, true);
  std::size_t turn = 0;
  for (const std::size_t k : near_starts)
    spoil(k, turn++ % spoilers.size(), false);
}

TEST(IngestDecodeChunked, MutatedLargeBodiesAtEveryWidth) {
  const std::vector<std::string> bases = {
      wrap(records_to_fill(fixed_record)),
      wrap(records_to_fill([](std::size_t i) {
        std::string r = fixed_record(i);
        if (i % 2 == 0) r.insert(r.size() - 1, R"(,"meta":[1,{"u":9}])");
        return r;
      })),
  };
  snap::SplitMix64 rng(20260418);
  int accepted = 0;
  for (int i = 0; i < 48; ++i) {
    std::string body = bases[static_cast<std::size_t>(i) % bases.size()];
    mutate(&body, &rng);
    if (at_every_width("mutant " + std::to_string(i), body, i % 4 == 0).ok)
      ++accepted;
  }
  // Some edits land in a digit or in whitespace, and the body still parses.
  EXPECT_GT(accepted, 0);
}

}  // namespace
