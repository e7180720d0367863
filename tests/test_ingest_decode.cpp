// POST /ingest decoding: server::decode_ingest streams the body through the
// JSON grammar straight into an UpdateBatch.  The oracle below is the
// document-tree walk the service used before: parse the whole body into a
// json::Value, then read the records off the tree.  Every body, seeded or
// mutated, must get the same accept/reject, the byte-identical error
// message and, on accept, the same records.  Batches are compared, never
// applied: a mutation such as "u":1e8 is a valid id the service would grow
// the graph for.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "snap/server/service.hpp"
#include "snap/stream/update_batch.hpp"
#include "snap/util/json.hpp"
#include "snap/util/rng.hpp"

namespace {

using snap::vid_t;
using snap::json::Value;
using snap::server::decode_ingest;
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

/// Compare the two decoders on `body`; true when they agree.
bool agree(const std::string& body, const Decoded& got, const Decoded& want) {
  EXPECT_EQ(got.ok, want.ok) << body;
  if (got.ok != want.ok) return false;
  if (!got.ok) {
    EXPECT_EQ(got.error, want.error) << body;
    return got.error == want.error;
  }
  EXPECT_TRUE(got.records == want.records) << body;
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

TEST(IngestDecode, MutatedBodiesMatchTreeWalk) {
  constexpr std::string_view kAlphabet = "{}[],:\"0123456789.-eE \\utrfanl";
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
    const std::size_t edits = 1 + below(4);
    for (std::size_t e = 0; e < edits; ++e) {
      const char c = kAlphabet[below(kAlphabet.size())];
      switch (below(3)) {
        case 0:
          body.insert(below(body.size() + 1), 1, c);
          break;
        case 1:
          if (!body.empty()) body[below(body.size())] = c;
          break;
        default:
          if (!body.empty()) body.erase(below(body.size()), 1);
      }
    }
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

}  // namespace
