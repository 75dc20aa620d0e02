// Protocol-fuzz suite for the `xmem serve` wire layer (server/protocol.h).
//
// The daemon's framing contract: for ANY byte stream a client puts on the
// wire, the server either answers an actionable error frame or closes the
// connection cleanly — it never crashes, never hangs, and never wedges the
// listener for other clients. The suite pins that three ways:
//
//   * targeted malformations — truncated headers and payloads, oversized
//     length prefixes, garbage JSON, non-object envelopes, unknown types,
//     unknown fields, zero-length frames — each with its exact expected
//     error code (protocol.h kErr* constants) or close behavior;
//   * a seeded random frame mutator (util::Rng, the alloc_parity_test
//     recipe): 10,000 mutations of a small corpus — bit flips, truncations,
//     header corruption, garbage injection, frame duplication — against ONE
//     server; every connection must resolve (reply frames or clean close)
//     before a receive timeout, and the server must still answer a clean
//     ping afterwards;
//   * the shrinker pattern from alloc_parity_test: when a mutated byte
//     string misbehaves, shrink_failing_bytes() reduces it to a minimal
//     reproducer before reporting, so a fuzz failure arrives debuggable.
//
// Requests in the corpus are cheap by construction (control-plane types and
// a fast-failing sweep), so the 10k campaign exercises admission + framing,
// not the estimation pipeline.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/estimation_service.h"
#include "sched/fleet_planner.h"
#include "server/client.h"
#include "server/server.h"
#include "util/json.h"
#include "util/rng.h"

namespace xmem {
namespace {

std::string socket_path_for(const std::string& name) {
  return "/tmp/xmem_" + name + "_" + std::to_string(::getpid()) + ".sock";
}

server::ServerConfig protocol_config(const std::string& name) {
  server::ServerConfig config;
  config.socket_path = socket_path_for(name);
  config.workers = 2;
  // Small enough that the oversized path is cheap to trip, large enough
  // for every legitimate frame in this suite.
  config.max_frame_bytes = 1 << 20;
  return config;
}

/// Drain one connection: read frames until the server closes. Returns the
/// terminal status (kClosed for a clean close) and appends every payload
/// received on the way.
server::FrameStatus drain_replies(server::Client& client,
                                  std::vector<std::string>* replies = nullptr) {
  std::string payload;
  while (true) {
    const server::FrameStatus status = client.read_reply(payload);
    if (status != server::FrameStatus::kOk) return status;
    if (replies != nullptr) replies->push_back(payload);
  }
}

/// True when the error envelope carries `code` (and parses at all).
bool has_error_code(const std::string& payload, const std::string& code) {
  try {
    const util::Json reply = util::Json::parse(payload);
    return reply.is_object() && reply.contains("error") &&
           reply.at("error").get_string_or("code", "") == code;
  } catch (const std::exception&) {
    return false;
  }
}

// --- shrinker (the alloc_parity_test pattern, on raw bytes) -----------------

/// Greedy chunk-removal shrinker: while any removal of a chunk (halving
/// sizes down to one byte) still fails the predicate, keep the smaller
/// string. Returns the minimal failing byte string, or "" if `bytes`
/// does not fail to begin with.
std::string shrink_failing_bytes(
    std::string bytes, const std::function<bool(const std::string&)>& fails) {
  if (!fails(bytes)) return std::string();
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t chunk = bytes.size() / 2; chunk >= 1; chunk /= 2) {
      for (std::size_t start = 0; start + chunk <= bytes.size();) {
        std::string candidate = bytes.substr(0, start) +
                                bytes.substr(start + chunk);
        if (fails(candidate)) {
          bytes = std::move(candidate);
          progress = true;
          // Retry the same offset: the next chunk slid into place.
        } else {
          start += chunk;
        }
      }
      if (chunk == 1) break;
    }
  }
  return bytes;
}

std::string hex_dump(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
    out.push_back(' ');
  }
  return out;
}

// --- targeted malformations -------------------------------------------------

TEST(ServerProtocol, TruncatedHeaderClosesCleanly) {
  server::Server daemon(protocol_config("trunc_header"));
  daemon.start();
  {
    server::Client client(daemon.config().socket_path, /*timeout_ms=*/15000);
    ASSERT_TRUE(client.send_bytes(std::string("\x00\x00", 2)));
    client.half_close();
    EXPECT_EQ(drain_replies(client), server::FrameStatus::kClosed);
  }
  EXPECT_EQ(daemon.stats().protocol_errors, 1u);
  // The listener survived: a fresh client gets real service.
  server::Client after(daemon.config().socket_path, /*timeout_ms=*/15000);
  EXPECT_NO_THROW(after.ping());
  daemon.stop();
}

TEST(ServerProtocol, TruncatedPayloadClosesCleanly) {
  server::Server daemon(protocol_config("trunc_payload"));
  daemon.start();
  server::Client client(daemon.config().socket_path, /*timeout_ms=*/15000);
  // Announce 100 bytes, deliver 3, hang up. The server must treat the EOF
  // as a truncation and close — not wait forever for the missing 97.
  const std::string frame = server::encode_frame(std::string(100, 'x'));
  ASSERT_TRUE(client.send_bytes(frame.substr(0, 4 + 3)));
  client.half_close();
  EXPECT_EQ(drain_replies(client), server::FrameStatus::kClosed);
  EXPECT_EQ(daemon.stats().protocol_errors, 1u);
  daemon.stop();
}

TEST(ServerProtocol, OversizedLengthPrefixGetsErrorFrameThenClose) {
  server::Server daemon(protocol_config("oversized"));
  daemon.start();
  server::Client client(daemon.config().socket_path, /*timeout_ms=*/15000);
  // 0xFFFFFFFF announced bytes: answer, do not allocate, do not wait.
  ASSERT_TRUE(client.send_bytes(std::string("\xFF\xFF\xFF\xFF", 4)));
  std::vector<std::string> replies;
  EXPECT_EQ(drain_replies(client, &replies), server::FrameStatus::kClosed);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(has_error_code(replies[0], server::kErrFrameTooLarge))
      << replies[0];
  // The message names both the announced size and the limit.
  EXPECT_NE(replies[0].find("4294967295"), std::string::npos) << replies[0];
  EXPECT_EQ(daemon.stats().protocol_errors, 1u);
  daemon.stop();
}

TEST(ServerProtocol, GarbageJsonGetsParseErrorAndConnectionSurvives) {
  server::Server daemon(protocol_config("garbage"));
  daemon.start();
  server::Client client(daemon.config().socket_path, /*timeout_ms=*/15000);
  ASSERT_TRUE(client.send_frame("{\"type\": \"sweep\", oops"));
  std::string reply;
  ASSERT_EQ(client.read_reply(reply), server::FrameStatus::kOk);
  EXPECT_TRUE(has_error_code(reply, server::kErrParse)) << reply;
  // Framing is intact after a payload-level error: the SAME connection
  // still serves a valid request.
  EXPECT_NO_THROW(client.ping());
  EXPECT_EQ(daemon.stats().protocol_errors, 1u);
  daemon.stop();
}

TEST(ServerProtocol, NonObjectEnvelopeRejected) {
  server::Server daemon(protocol_config("nonobject"));
  daemon.start();
  server::Client client(daemon.config().socket_path, /*timeout_ms=*/15000);
  for (const char* payload : {"[1, 2, 3]", "42", "\"hello\"", "null"}) {
    ASSERT_TRUE(client.send_frame(payload));
    std::string reply;
    ASSERT_EQ(client.read_reply(reply), server::FrameStatus::kOk);
    EXPECT_TRUE(has_error_code(reply, server::kErrBadRequest)) << reply;
  }
  daemon.stop();
}

TEST(ServerProtocol, ZeroLengthFrameIsParseError) {
  server::Server daemon(protocol_config("zerolen"));
  daemon.start();
  server::Client client(daemon.config().socket_path, /*timeout_ms=*/15000);
  ASSERT_TRUE(client.send_frame(""));
  std::string reply;
  ASSERT_EQ(client.read_reply(reply), server::FrameStatus::kOk);
  EXPECT_TRUE(has_error_code(reply, server::kErrParse)) << reply;
  daemon.stop();
}

TEST(ServerProtocol, UnknownTypeNamesTheExpectedTypes) {
  server::Server daemon(protocol_config("unknown_type"));
  daemon.start();
  server::Client client(daemon.config().socket_path, /*timeout_ms=*/15000);
  ASSERT_TRUE(client.send_frame("{\"type\": \"teleport\", \"id\": 9}"));
  std::string reply;
  ASSERT_EQ(client.read_reply(reply), server::FrameStatus::kOk);
  EXPECT_TRUE(has_error_code(reply, server::kErrUnsupportedType)) << reply;
  const util::Json parsed = util::Json::parse(reply);
  // The id echoes back and the message lists what WOULD have worked.
  EXPECT_EQ(parsed.at("id").as_int(), 9);
  EXPECT_NE(reply.find("teleport"), std::string::npos) << reply;
  EXPECT_NE(reply.find("sweep|plan|fleet|stats|ping|shutdown"), std::string::npos)
      << reply;
  daemon.stop();
}

TEST(ServerProtocol, UnknownEnvelopeFieldsAreIgnored) {
  server::Server daemon(protocol_config("unknown_fields"));
  daemon.start();
  server::Client client(daemon.config().socket_path, /*timeout_ms=*/15000);
  ASSERT_TRUE(client.send_frame(
      "{\"type\": \"ping\", \"id\": 1, \"x-trace\": \"abc\", "
      "\"priority\": 99}"));
  std::string reply;
  ASSERT_EQ(client.read_reply(reply), server::FrameStatus::kOk);
  const util::Json parsed = util::Json::parse(reply);
  EXPECT_TRUE(parsed.at("ok").as_bool()) << reply;
  daemon.stop();
}

TEST(ServerProtocol, MissingRequestDocumentIsActionable) {
  server::Server daemon(protocol_config("no_request"));
  daemon.start();
  server::Client client(daemon.config().socket_path, /*timeout_ms=*/15000);
  ASSERT_TRUE(client.send_frame("{\"type\": \"sweep\", \"id\": 2}"));
  std::string reply;
  ASSERT_EQ(client.read_reply(reply), server::FrameStatus::kOk);
  EXPECT_TRUE(has_error_code(reply, server::kErrBadRequest)) << reply;
  EXPECT_NE(reply.find("request"), std::string::npos) << reply;
  daemon.stop();
}

TEST(ServerProtocol, JobPastTheReplayCeilingIsABadRequest) {
  // distilgpt2 at batch 2^24 outgrows the 2^50-byte replay capacity: the
  // daemon answers bad_request with the offline message and keeps serving.
  server::Server daemon(protocol_config("replay_ceiling"));
  daemon.start();
  server::Client client(daemon.config().socket_path, /*timeout_ms=*/15000);
  ASSERT_TRUE(client.send_frame(
      "{\"type\": \"sweep\", \"id\": 3, \"request\": {\"job\": "
      "{\"model\": \"distilgpt2\", \"batch\": 16777216, "
      "\"optimizer\": \"AdamW\"}, \"devices\": [\"a100\"]}}"));
  std::string reply;
  ASSERT_EQ(client.read_reply(reply), server::FrameStatus::kOk);
  EXPECT_TRUE(has_error_code(reply, server::kErrBadRequest)) << reply;
  EXPECT_NE(reply.find("1125899906842624"), std::string::npos) << reply;
  ASSERT_TRUE(client.send_frame("{\"type\": \"ping\", \"id\": 4}"));
  ASSERT_EQ(client.read_reply(reply), server::FrameStatus::kOk);
  EXPECT_TRUE(util::Json::parse(reply).at("ok").as_bool()) << reply;
  daemon.stop();
}

TEST(ServerProtocol, DeeplyNestedFrameIsAParseErrorAndTheDaemonServes) {
  // 100,000 '[' must not recurse the connection thread off its stack.
  server::Server daemon(protocol_config("deep_frame"));
  daemon.start();
  server::Client client(daemon.config().socket_path, /*timeout_ms=*/15000);
  ASSERT_TRUE(client.send_frame(std::string(100000, '[')));
  std::string reply;
  ASSERT_EQ(client.read_reply(reply), server::FrameStatus::kOk);
  EXPECT_EQ(reply,
            server::make_error_envelope(
                nullptr, server::kErrParse,
                "payload is not valid JSON: nesting deeper than 512 levels "
                "at offset 512")
                .dump());
  EXPECT_NO_THROW(client.ping());
  EXPECT_EQ(daemon.stats().protocol_errors, 1u);
  daemon.stop();
}

TEST(ServerProtocol, NonFiniteIdIsABadRequestAndTheDaemonServes) {
  // 1e999 parses to infinity, which no reply can echo: the frame is
  // answered without an id instead of throwing on the connection thread.
  server::Server daemon(protocol_config("inf_id"));
  daemon.start();
  server::Client client(daemon.config().socket_path, /*timeout_ms=*/15000);
  for (const char* payload : {"{\"type\": \"ping\", \"id\": 1e999}",
                              "{\"type\": \"sweep\", \"id\": [-1e999]}"}) {
    ASSERT_TRUE(client.send_frame(payload));
    std::string reply;
    ASSERT_EQ(client.read_reply(reply), server::FrameStatus::kOk);
    EXPECT_EQ(reply, server::make_error_envelope(
                         nullptr, server::kErrBadRequest,
                         "envelope \"id\" cannot be echoed: Json: NaN/Inf "
                         "are not representable in JSON")
                         .dump());
  }
  EXPECT_NO_THROW(client.ping());
  EXPECT_EQ(daemon.stats().protocol_errors, 2u);
  daemon.stop();
}

// --- repeats answered from stored reply bytes -------------------------------

/// Cheap questions of each data type: one small job, one card.
const char* const kSweepDoc =
    "{\"job\": {\"model\": \"distilgpt2\", \"batch\": 2, \"optimizer\": "
    "\"AdamW\"}, \"devices\": [\"rtx3060\"], \"allocators\": [\"pytorch\"]}";
const char* const kPlanDoc =
    "{\"job\": {\"model\": \"distilgpt2\", \"batch\": 2, \"optimizer\": "
    "\"AdamW\"}, \"devices\": [\"rtx3060\"], \"max_gpus\": 2, "
    "\"refine_top_k\": 1}";
const char* const kFleetDoc =
    "{\"jobs\": [{\"id\": \"a\", \"job\": {\"model\": \"distilgpt2\", "
    "\"batch\": 2, \"optimizer\": \"AdamW\"}}], \"pools\": [{\"device\": "
    "\"rtx3060\", \"count\": 1}]}";

/// The full path's canonical text of a request document (throws what the
/// daemon would answer as bad_request).
std::string canonical_text(const std::string& type, const util::Json& doc,
                           const std::string& tenant = std::string()) {
  if (type == "plan") {
    core::PlanRequest request = core::PlanRequest::from_json(doc);
    if (!tenant.empty()) request.tenant = tenant;
    return request.to_json().dump();
  }
  if (type == "fleet") {
    sched::FleetRequest request = sched::FleetRequest::from_json(doc);
    if (!tenant.empty()) request.tenant = tenant;
    return request.to_json().dump();
  }
  core::EstimateRequest request = core::EstimateRequest::from_json(doc);
  if (!tenant.empty()) request.tenant = tenant;
  return request.to_json().dump();
}

std::string envelope_text(const std::string& type, const std::string& request,
                          const std::string* id = nullptr) {
  std::string text = "{";
  if (id != nullptr) text += "\"id\":" + *id + ",";
  return text + "\"request\":" + request + ",\"type\":\"" + type + "\"}";
}

std::string round_trip(server::Client& client, const std::string& payload) {
  EXPECT_TRUE(client.send_frame(payload));
  std::string reply;
  EXPECT_EQ(client.read_reply(reply), server::FrameStatus::kOk);
  return reply;
}

TEST(ServerRepeats, SplicedRepliesEqualTheDomEnvelope) {
  server::Server daemon(protocol_config("spliced"));
  daemon.start();
  server::Client client(daemon.config().socket_path, /*timeout_ms=*/60000);
  // The daemon's first answers are cold; an offline service asked the same
  // questions in the same order has the same cache state at each one.
  core::ServiceOptions options;
  options.threads = 1;
  core::EstimationService offline(options);

  const std::vector<util::Json> ids = {
      util::Json(nullptr),
      util::Json(42),
      util::Json(-7),
      util::Json(2.5),
      util::Json(std::string("q\"\\\n\t\x01 \xC3\xA9 \xF0\x9F\x98\x80")),
      util::Json::parse(R"({"trace":[1,{"n":null}],"a":"b"})"),
  };
  for (const char* type : {"sweep", "plan", "fleet"}) {
    SCOPED_TRACE(type);
    const util::Json doc = util::Json::parse(type == std::string("sweep")
                                                 ? kSweepDoc
                                             : type == std::string("plan")
                                                 ? kPlanDoc
                                                 : kFleetDoc);
    const std::string canonical = canonical_text(type, doc);
    util::Json report;
    if (type == std::string("plan")) {
      report = offline.plan(core::PlanRequest::from_json(doc)).to_json(false);
    } else if (type == std::string("fleet")) {
      report =
          offline.fleet(sched::FleetRequest::from_json(doc)).to_json(false);
    } else {
      report = offline.sweep(core::EstimateRequest::from_json(doc))
                   .to_json(false);
    }
    const auto expected = [&](const util::Json* id) {
      util::Json envelope = server::make_ok_envelope(id, type);
      envelope["report"] = report;
      return envelope.dump();
    };

    // No id: the first ask executes, the second is a repeat.
    EXPECT_EQ(round_trip(client, envelope_text(type, canonical)),
              expected(nullptr));
    EXPECT_EQ(round_trip(client, envelope_text(type, canonical)),
              expected(nullptr));
    for (const util::Json& id : ids) {
      const std::string id_text = id.dump();
      SCOPED_TRACE(id_text);
      EXPECT_EQ(round_trip(client, envelope_text(type, canonical, &id_text)),
                expected(&id));
      // The same question reformatted takes the full path to the same bytes.
      util::Json envelope = util::Json::object();
      envelope["id"] = id;
      envelope["type"] = util::Json(type);
      envelope["request"] = doc;
      EXPECT_EQ(round_trip(client, envelope.dump(2)), expected(&id));
    }
  }
  const server::ServerStats stats = daemon.stats();
  EXPECT_EQ(stats.executed, 3u);
  EXPECT_EQ(stats.reply_cache_hits, 3u * (1 + 2 * ids.size()));
  daemon.stop();
}

TEST(ServerRepeats, ReformattedQuestionsShareTheCanonicalKey) {
  // docs/SERVER.md: requests are canonicalized before the lookup, so the
  // same question in other bytes is a reply-cache hit, not a new run.
  server::Server daemon(protocol_config("canonical_dedup"));
  daemon.start();
  server::Client client(daemon.config().socket_path, /*timeout_ms=*/60000);
  const std::string canonical =
      canonical_text("sweep", util::Json::parse(kSweepDoc));
  const std::string first =
      round_trip(client, envelope_text("sweep", canonical));
  ASSERT_TRUE(util::Json::parse(first).at("ok").as_bool()) << first;
  EXPECT_EQ(daemon.stats().executed, 1u);

  // Reordered keys, whitespace, and explicit defaults (an empty tenant in
  // the document and in the envelope, the default iteration count).
  const std::string reformatted =
      "{ \"type\" : \"sweep\",\n \"tenant\": \"\",\n \"request\" : {\n"
      "   \"allocators\" : [ \"pytorch\" ],\n   \"tenant\": \"\",\n"
      "   \"profile_iterations\": 3,\n   \"devices\" : [\"rtx3060\"],\n"
      "   \"job\": {\"optimizer\": \"AdamW\", \"batch\": 2, "
      "\"model\": \"distilgpt2\"} } }";
  ASSERT_NE(reformatted, envelope_text("sweep", canonical));
  EXPECT_EQ(round_trip(client, reformatted), first);
  server::ServerStats stats = daemon.stats();
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.reply_cache_hits, 1u);

  // An envelope tenant is part of the question: a separate key, one more
  // run, and the canonical text then names the tenant.
  const std::string with_tenant = envelope_text("sweep", canonical);
  const std::string tenant_reply = round_trip(
      client, with_tenant.substr(0, with_tenant.size() - 1) +
                  ",\"tenant\":\"acme\"}");
  ASSERT_TRUE(util::Json::parse(tenant_reply).at("ok").as_bool())
      << tenant_reply;
  stats = daemon.stats();
  EXPECT_EQ(stats.executed, 2u);
  EXPECT_EQ(stats.reply_cache_hits, 1u);
  // The tenant's canonical text, sent as the document, is that same key.
  EXPECT_EQ(round_trip(client,
                       envelope_text("sweep",
                                     canonical_text(
                                         "sweep", util::Json::parse(kSweepDoc),
                                         "acme"))),
            tenant_reply);
  stats = daemon.stats();
  EXPECT_EQ(stats.executed, 2u);
  EXPECT_EQ(stats.reply_cache_hits, 2u);
  daemon.stop();
}

// --- raw-text repeat fuzzer -------------------------------------------------

/// What the full path answers `payload` with, computed offline:
/// Json::parse, then the envelope checks, then canonicalization, then the
/// known report of that question with this id, or the matching error frame.
/// `answers` maps "type|canonical" to a report's compact bytes. Returns ""
/// for a question the daemon has not answered yet.
std::string full_path_reply(const std::string& payload,
                            const std::map<std::string, std::string>& answers) {
  util::Json envelope;
  try {
    envelope = util::Json::parse(payload);
  } catch (const std::exception& error) {
    return server::make_error_envelope(
               nullptr, server::kErrParse,
               std::string("payload is not valid JSON: ") + error.what())
        .dump();
  }
  if (!envelope.is_object()) {
    return server::make_error_envelope(nullptr, server::kErrBadRequest,
                                       "envelope must be a JSON object")
        .dump();
  }
  const util::Json* id =
      envelope.contains("id") ? &envelope.at("id") : nullptr;
  if (id != nullptr) {
    try {
      id->dump();
    } catch (const std::invalid_argument& error) {
      return server::make_error_envelope(
                 nullptr, server::kErrBadRequest,
                 std::string("envelope \"id\" cannot be echoed: ") +
                     error.what())
          .dump();
    }
  }
  const std::string type = envelope.get_string_or("type", "");
  if (type != "sweep" && type != "plan" && type != "fleet") {
    return server::make_error_envelope(
               id, server::kErrUnsupportedType,
               "unknown request type '" + type +
                   "'; expected sweep|plan|fleet|stats|ping|shutdown")
        .dump();
  }
  std::string key;
  try {
    if (!envelope.contains("request")) {
      throw std::invalid_argument("envelope: missing \"request\" document");
    }
    key = type + '|' +
          canonical_text(type, envelope.at("request"),
                         envelope.get_string_or("tenant", ""));
  } catch (const std::exception& error) {
    return server::make_error_envelope(id, server::kErrBadRequest,
                                       error.what())
        .dump();
  }
  const auto it = answers.find(key);
  if (it == answers.end()) return std::string();
  util::Json reply = server::make_ok_envelope(id, type);
  reply["report"] = util::Json::parse(it->second);
  return reply.dump();
}

/// One envelope around a known question, as member texts to be joined.
struct Members {
  std::vector<std::string> items;
  std::string join(util::Rng& rng) const {
    static const char* const kSpace[] = {"", "", " ", "\n  ", "\t"};
    std::string text = "{";
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i > 0) text += ',';
      text += kSpace[rng.next_below(5)];
      text += items[i];
    }
    return text + kSpace[rng.next_below(5)] + "}";
  }
};

TEST(ServerRepeatFuzz, MutatedRepeatsMatchTheFullPath) {
  server::Server daemon(protocol_config("repeat_fuzz"));
  daemon.start();
  server::Client client(daemon.config().socket_path, /*timeout_ms=*/60000);

  // Ask every question the mutations can reach once, by canonical text,
  // and keep the reports. Fields a type does not know are ignored, so each
  // document is a question under either type.
  struct Question {
    std::string type;
    util::Json doc;
    std::string canonical;
  };
  const std::vector<std::pair<std::string, const char*>> documents = {
      {"sweep", kSweepDoc}, {"plan", kPlanDoc}};
  std::vector<Question> questions;
  std::map<std::string, std::string> answers;
  for (const auto& [type, text] : documents) {
    const util::Json doc = util::Json::parse(text);
    questions.push_back({type, doc, canonical_text(type, doc)});
    for (const auto& [asked_as, unused] : documents) {
      for (const std::string tenant : {"", "acme"}) {
        const std::string canonical = canonical_text(asked_as, doc, tenant);
        const util::Json reply = util::Json::parse(
            round_trip(client, envelope_text(asked_as, canonical)));
        ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump();
        answers[asked_as + '|' + canonical] = reply.at("report").dump();
      }
    }
  }
  const std::uint64_t executed = daemon.stats().executed;
  ASSERT_EQ(executed, answers.size());

  const std::vector<std::string> id_texts = {
      "null", "0", "7", "-12", "1.50", "2e3", "-0.0", "1e999",
      "\"plain\"", "\"q\\\"\\\\\\n\\u00e9\xC3\xA9\"", "{\"b\":1,\"a\":[true]}",
      "[]", std::string(600, '[') + std::string(600, ']')};
  const std::vector<std::string> stray_members = {
      "\"priority\":99", "\"x-trace\":\"abc\"", "\"tenant\":\"acme\"",
      "\"tenant\":\"\"", "\"tenant\":7", "\"i\\u0064\":5", "\"type\":\"warp\"",
      "\"type\":5", "\"id\":3", "\"request\":{}"};
  const std::vector<std::string> trailers = {"", " ", "\n", " x", "}", "{}",
                                             ","};

  util::Rng rng(0x5EED29);
  constexpr int kIterations = 600;
  int spliced = 0;
  for (int i = 0; i < kIterations; ++i) {
    const Question& question =
        questions[static_cast<std::size_t>(rng.next_below(questions.size()))];
    const Question& other =
        questions[static_cast<std::size_t>(rng.next_below(questions.size()))];
    Members members;
    members.items.push_back("\"type\":\"" + question.type + "\"");
    members.items.push_back(
        "\"request\":" + (rng.next_bool(0.8) ? question.canonical
                                             : question.doc.dump(2)));
    if (rng.next_bool(0.7)) {
      members.items.push_back(
          "\"id\":" + id_texts[static_cast<std::size_t>(
                          rng.next_below(id_texts.size()))]);
    }
    switch (rng.next_below(6)) {
      case 0:  // a second request, before or after the first
        members.items.insert(
            members.items.begin() + static_cast<long>(rng.next_below(3)),
            "\"request\":" + other.canonical);
        break;
      case 1:  // a stray member anywhere
        members.items.insert(
            members.items.begin() +
                static_cast<long>(rng.next_below(members.items.size() + 1)),
            stray_members[static_cast<std::size_t>(
                rng.next_below(stray_members.size()))]);
        break;
      case 2:  // a repeated type naming the other question's type
        members.items.push_back("\"type\":\"" + other.type + "\"");
        break;
      default:
        break;
    }
    for (std::size_t j = members.items.size(); j > 1; --j) {
      if (rng.next_bool(0.3)) {
        std::swap(members.items[j - 1],
                  members.items[static_cast<std::size_t>(rng.next_below(j))]);
      }
    }
    std::string payload =
        members.join(rng) +
        trailers[static_cast<std::size_t>(rng.next_below(trailers.size()))];
    if (rng.next_below(8) == 0) {
      payload.resize(static_cast<std::size_t>(rng.next_below(payload.size())));
    }

    const std::string expected = full_path_reply(payload, answers);
    ASSERT_FALSE(expected.empty())
        << "mutation " << i << " asks a new question: " << payload;
    ASSERT_EQ(round_trip(client, payload), expected)
        << "mutation " << i << ": " << payload;
    if (expected.find("\"ok\":true") != std::string::npos) ++spliced;
  }

  // Every ok reply came from the cache; the daemon still serves.
  EXPECT_GT(spliced, kIterations / 4);
  EXPECT_EQ(daemon.stats().executed, executed);
  EXPECT_NO_THROW(client.ping());
  server::Client fresh(daemon.config().socket_path, /*timeout_ms=*/15000);
  EXPECT_NO_THROW(fresh.ping());
  daemon.stop();
}

// --- seeded frame mutator ---------------------------------------------------

/// Small corpus the mutator starts from. Everything here is cheap for the
/// server to answer: control-plane types, malformed documents, and one
/// sweep whose job fails validation long before any profiling.
std::vector<std::string> fuzz_corpus() {
  return {
      "{\"type\": \"ping\", \"id\": 1}",
      "{\"type\": \"stats\", \"id\": 2}",
      "{\"type\": \"sweep\", \"id\": 3, \"tenant\": \"fuzz\", \"request\": "
      "{\"job\": {\"model\": \"no-such-model\"}, \"devices\": [\"rtx3060\"]}}",
      "{\"type\": \"sweep\", \"id\": 4}",
      "{\"type\": \"warp\", \"id\": 5}",
      "{\"type\": \"sweep\", oops",
      "[]",
      "",
  };
}

/// One mutation of a correctly framed corpus payload: returns the raw
/// bytes to put on the wire.
std::string mutate_frame(util::Rng& rng, const std::string& payload) {
  std::string bytes = server::encode_frame(payload);
  switch (rng.next_below(5)) {
    case 0: {  // flip 1..8 random bytes anywhere (header or payload)
      const std::uint64_t flips = 1 + rng.next_below(8);
      for (std::uint64_t i = 0; i < flips && !bytes.empty(); ++i) {
        const auto pos = static_cast<std::size_t>(
            rng.next_below(bytes.size()));
        bytes[pos] = static_cast<char>(
            static_cast<unsigned char>(bytes[pos]) ^
            static_cast<unsigned char>(1 + rng.next_below(255)));
      }
      break;
    }
    case 1:  // truncate mid-header or mid-payload
      bytes.resize(static_cast<std::size_t>(rng.next_below(bytes.size())));
      break;
    case 2: {  // replace the header with four random bytes
      for (std::size_t i = 0; i < server::kFrameHeaderBytes; ++i) {
        bytes[i] = static_cast<char>(rng.next_below(256));
      }
      break;
    }
    case 3: {  // pure garbage, no framing at all
      const std::uint64_t size = rng.next_below(64);
      bytes.clear();
      for (std::uint64_t i = 0; i < size; ++i) {
        bytes.push_back(static_cast<char>(rng.next_below(256)));
      }
      break;
    }
    default: {  // two frames back to back, one byte corrupted
      bytes += bytes;
      const auto pos = static_cast<std::size_t>(rng.next_below(bytes.size()));
      bytes[pos] = static_cast<char>(
          static_cast<unsigned char>(bytes[pos]) ^ 0x20);
      break;
    }
  }
  return bytes;
}

/// Fire `bytes` at the server on a fresh connection and require the
/// connection to RESOLVE: any number of reply frames followed by a clean
/// close. Returns true on misbehavior (receive timeout / transport error —
/// i.e. the server hung or died mid-frame).
bool server_misbehaves(const std::string& socket_path,
                       const std::string& bytes) {
  try {
    server::Client client(socket_path, /*timeout_ms=*/15000);
    client.send_bytes(bytes);  // a send error just means an early close
    client.half_close();
    return drain_replies(client) == server::FrameStatus::kError;
  } catch (const server::TransportError&) {
    return true;  // connect refused: the listener is gone
  }
}

TEST(ServerProtocolFuzz, TenThousandMutatedFramesNoCrashNoHang) {
  server::Server daemon(protocol_config("fuzz"));
  daemon.start();
  const std::vector<std::string> corpus = fuzz_corpus();

  constexpr int kIterations = 10000;
  util::Rng rng(0xF0221);
  for (int i = 0; i < kIterations; ++i) {
    const std::string& base =
        corpus[static_cast<std::size_t>(rng.next_below(corpus.size()))];
    const std::string bytes = mutate_frame(rng, base);
    if (server_misbehaves(daemon.config().socket_path, bytes)) {
      // Debuggability: shrink before reporting, the parity-suite way.
      const std::string reproducer = shrink_failing_bytes(
          bytes, [&](const std::string& candidate) {
            return server_misbehaves(daemon.config().socket_path, candidate);
          });
      FAIL() << "iteration " << i << ": server hung or died on "
             << bytes.size() << " bytes; shrunk reproducer ("
             << reproducer.size() << " bytes): " << hex_dump(reproducer);
    }
  }

  // The server took the whole campaign and still answers like new.
  server::Client survivor(daemon.config().socket_path, /*timeout_ms=*/15000);
  EXPECT_NO_THROW(survivor.ping());
  const server::ServerStats stats = daemon.stats();
  EXPECT_GE(stats.connections_accepted,
            static_cast<std::uint64_t>(kIterations));
  EXPECT_GT(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.active_connections, 1u);  // only the survivor remains
  daemon.stop();
}

// --- shrinker self-test (mirrors AllocatorParity.ShrinksFailingStream) ------

TEST(ServerProtocolFuzz, ShrinkerReducesToMinimalReproducer) {
  util::Rng rng(99);
  std::string bytes;
  for (int i = 0; i < 512; ++i) {
    bytes.push_back(static_cast<char>(rng.next_below(255)));  // never 0xFF
  }
  bytes[300] = static_cast<char>(0xFF);

  const auto contains_ff = [](const std::string& candidate) {
    return candidate.find(static_cast<char>(0xFF)) != std::string::npos;
  };
  const std::string reproducer = shrink_failing_bytes(bytes, contains_ff);
  ASSERT_EQ(reproducer.size(), 1u) << hex_dump(reproducer);
  EXPECT_EQ(static_cast<unsigned char>(reproducer[0]), 0xFF);
}

TEST(ServerProtocolFuzz, ShrinkerReturnsEmptyForPassingBytes) {
  const auto never_fails = [](const std::string&) { return false; };
  EXPECT_TRUE(shrink_failing_bytes("abcdef", never_fails).empty());
}

}  // namespace
}  // namespace xmem
