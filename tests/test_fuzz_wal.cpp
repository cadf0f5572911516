// Seeded mutation fuzzing of the WAL read path (src/recovery): the frame
// decoder (decode_wal), crash recovery (recover_wal) and the replay fold
// (apply_record) over mutants of real state-tier WALs.
//
// The corpus: the WALs of short durable simulation runs, and the WAL of a
// daemon that stops gracefully, restarts and stops again.
//
// Mutants, all drawn from one fixed seed so every run sees the same ones:
//   - raw bit flips anywhere in the file (the checksum's job);
//   - bit flips and number swaps inside one payload, re-framed with a
//     valid CRC, so the JSON and replay layers see the damage;
//   - truncation at random offsets and at every frame boundary (plus a
//     torn header and a torn payload after each boundary);
//   - frame splices: dropped, duplicated and swapped frames, a frame of
//     another run's WAL spliced in, and the raw head of one WAL glued to
//     the raw tail of another.
//
// The property: nothing crashes (ASan/UBSan in CI), and each reader
// either recovers a valid prefix no longer than its input or reports an
// error (a bit flip can turn a record frame's kind byte into another
// kind, which readers refuse). The budget is fixed: 400 random
// simulation mutants, 200 daemon mutants, plus three cuts per frame, a
// few seconds in a Debug ASan/UBSan build. The tests carry the ctest
// label `fuzz`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "job/model.h"
#include "obs/json.h"
#include "obs/provenance.h"
#include "recovery/durable.h"
#include "recovery/replay.h"
#include "recovery/wal.h"
#include "scheduler/muri.h"
#include "service/daemon.h"
#include "service/http_client.h"
#include "sim/simulator.h"

namespace muri {
namespace {

using recovery::WalReadResult;

constexpr std::uint64_t kSeed = 0x5EEDF00Du;
constexpr int kRandomMutants = 400;
constexpr int kDaemonMutants = 200;

// Per-test paths: ctest runs the tests of this file as parallel processes.
std::string temp_path(const std::string& name) {
  return testing::TempDir() + "muri_fuzz_wal_" +
         testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
         name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The WAL of a short contended run on a faulty two-machine cluster, so
// the corpus carries every state record type a simulation writes.
std::string durable_wal(std::uint64_t seed) {
  Trace trace;
  for (int i = 0; i < 6; ++i) {
    Job j;
    j.id = i;
    j.model = kAllModels[(i + seed) % 8];
    j.num_gpus = 1;
    j.submit_time = i * 45.0 + static_cast<double>((seed * 7 + i * 13) % 90);
    j.profile = model_profile(j.model, 1);
    j.iterations = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(500 / j.profile.iteration_time()));
    trace.jobs.push_back(j);
  }
  SimOptions sim;
  sim.cluster.num_machines = 2;
  sim.cluster.gpus_per_machine = 2;
  sim.schedule_interval = 60;
  sim.restart_penalty = 5;
  sim.mtbf_hours = 0.2;
  sim.machine_faults.machine_mtbf_hours = 0.6;
  sim.machine_faults.machine_mttr_hours = 0.05;

  const std::string path = temp_path("corpus_" + std::to_string(seed));
  recovery::DurableSinkOptions options;
  options.fsync = recovery::DurableSinkOptions::Fsync::kNone;
  {
    recovery::DurableSink sink(path, options);
    obs::DecisionLog log;
    log.set_sink(&sink);
    MuriScheduler scheduler;
    sim.decisions = &log;
    run_simulation(trace, scheduler, sim);
    log.set_sink(nullptr);
    sink.close();
    EXPECT_TRUE(sink.ok()) << sink.error();
  }
  return slurp(path);
}

// The WAL a manual-clock daemon writes over two lives: named jobs, one
// with a start deadline, a queued cancel, finishes, a graceful stop's
// progress checkpoint, the restart's job_restore records and a missed
// deadline after it.
std::string daemon_wal() {
  const std::string path = temp_path("daemon_live.wal");
  std::remove(path.c_str());
  const auto life = [&](bool resume, const auto& drive) {
    service::DaemonOptions options;
    options.manual_time = true;
    options.cluster.num_machines = 2;
    options.cluster.gpus_per_machine = 4;
    options.scheduler = "fifo";
    options.wal_path = path;
    options.resume = resume;
    service::MuriDaemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    const auto request = [&](const char* method, const std::string& target,
                             const std::string& body) {
      service::ClientResponse resp;
      EXPECT_TRUE(service::http_request(daemon.port(), method, target, body,
                                        resp, &error))
          << error;
      return resp.status;
    };
    drive(daemon, request);
    daemon.stop();
  };
  life(false, [](service::MuriDaemon& daemon, const auto& request) {
    EXPECT_EQ(request("POST", "/jobs",
                      "{\"model\":\"resnet18\",\"gpus\":8,"
                      "\"iterations\":10000,\"name\":\"long \\\"a\\\"\"}"),
              202);
    daemon.step(0);
    EXPECT_EQ(request("POST", "/jobs",
                      "{\"model\":\"bert\",\"gpus\":4,\"iterations\":300,"
                      "\"name\":\"b\",\"deadline_s\":900}"),
              202);
    EXPECT_EQ(request("POST", "/jobs",
                      "{\"model\":\"vgg16\",\"gpus\":1,\"iterations\":50}"),
              202);
    EXPECT_EQ(request("DELETE", "/jobs/2", ""), 200);
    daemon.step(0);
    daemon.step(600);
  });
  life(true, [](service::MuriDaemon& daemon, const auto& request) {
    EXPECT_EQ(request("POST", "/jobs",
                      "{\"model\":\"gpt2\",\"gpus\":2,\"iterations\":80}"),
              202);
    for (int i = 0; i < 40; ++i) daemon.step(300);
  });
  return slurp(path);
}

std::string encode(const std::vector<std::string>& records) {
  std::string out;
  for (const std::string& record : records) {
    recovery::append_wal_frame(out, record);
  }
  return out;
}

// Frame offsets of a clean WAL: offsets[i] is where frame i starts, and
// the last entry is the file size.
std::vector<std::size_t> frame_offsets(
    const std::vector<std::string>& records) {
  std::vector<std::size_t> offsets = {0};
  for (const std::string& record : records) {
    offsets.push_back(offsets.back() + recovery::kWalHeaderSize +
                      record.size());
  }
  return offsets;
}

// The readers' contract on one input: no crash, and either a valid prefix
// no longer than the input or an error message.
void expect_contained(const std::string& bytes, const std::string& what) {
  SCOPED_TRACE(what);
  const WalReadResult decoded = recovery::decode_wal(bytes);
  ASSERT_LE(decoded.valid_bytes, bytes.size());
  // A scan stops short for a torn tail or for a frame of another kind,
  // never both.
  EXPECT_FALSE(decoded.torn && !decoded.error.empty());
  EXPECT_EQ(decoded.torn || !decoded.error.empty(),
            decoded.valid_bytes < bytes.size());
  // The records returned are exactly the valid prefix, re-encodable bit
  // for bit.
  EXPECT_EQ(encode(decoded.records), bytes.substr(0, decoded.valid_bytes));

  recovery::ReplayState state;
  for (const std::string& record : decoded.records) {
    std::string error;
    obs::JsonValue rec;
    if (!obs::parse_json(record, rec, &error)) {
      EXPECT_FALSE(error.empty());
      continue;
    }
    if (!recovery::apply_record(state, rec, &error)) {
      EXPECT_FALSE(error.empty());
    }
  }

  const std::string path = temp_path("mutant.wal");
  spit(path, bytes);
  recovery::RecoverResult recovered;
  std::string error;
  if (recovery::recover_wal(path, recovered, &error)) {
    EXPECT_TRUE(decoded.error.empty());
    EXPECT_LE(recovered.valid_bytes, bytes.size());
    EXPECT_EQ(recovered.valid_bytes, decoded.valid_bytes);
    EXPECT_EQ(recovered.torn, decoded.torn);
  } else {
    EXPECT_FALSE(error.empty());
  }
}

// Numbers a flipped digit rarely reaches: signs, zero, fractions, the
// int64 and uint32 edges, and magnitudes far past any integer type.
const char* const kExtremeNumbers[] = {
    "0",   "-1",   "-0",   "0.5",   "-2.5e3", "4294967296", "2147483648",
    "9223372036854775807", "-9223372036854775808", "1e19", "1e300", "-1e300",
    "1e-300"};

// Replaces one number token of `payload` with an extreme value.
void swap_number(std::string& payload, std::mt19937_64& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> numbers;
  for (std::size_t i = 0; i < payload.size();) {
    const char c = payload[i];
    if ((c >= '0' && c <= '9') || c == '-') {
      std::size_t j = i + 1;
      while (j < payload.size() &&
             ((payload[j] >= '0' && payload[j] <= '9') || payload[j] == '.' ||
              payload[j] == 'e' || payload[j] == 'E' || payload[j] == '+' ||
              payload[j] == '-')) {
        ++j;
      }
      numbers.emplace_back(i, j - i);
      i = j;
    } else {
      ++i;
    }
  }
  if (numbers.empty()) return;
  const auto [at, len] = numbers[rng() % numbers.size()];
  payload.replace(at, len,
                  kExtremeNumbers[rng() % std::size(kExtremeNumbers)]);
}

// Finding: a number swapped for -1e300 reached apply_record's int64
// cast, which is undefined out of range (UBSan's float-cast-overflow).
// Out-of-range numbers now saturate.
TEST(FuzzWal, OutOfRangeNumbersSaturateInReplay) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  recovery::ReplayState state;
  obs::JsonValue rec;
  ASSERT_TRUE(obs::parse_json(
      "{\"type\":\"arrival\",\"round\":1e300,\"t\":0,\"job\":-1e300,"
      "\"gpus\":1}",
      rec));
  std::string error;
  ASSERT_TRUE(recovery::apply_record(state, rec, &error)) << error;
  EXPECT_EQ(state.round, kMax);
  EXPECT_EQ(state.arrived, std::set<std::int64_t>{kMin});
}

TEST(FuzzWal, CorpusIsAStateTierWal) {
  const std::string wal = durable_wal(1);
  const WalReadResult decoded = recovery::decode_wal(wal);
  ASSERT_FALSE(decoded.torn);
  ASSERT_TRUE(decoded.error.empty()) << decoded.error;
  ASSERT_GT(decoded.records.size(), 50u);
  for (const std::string& record : decoded.records) {
    EXPECT_FALSE(obs::is_explanation_record(obs::record_type(record)))
        << record;
  }
  expect_contained(wal, "clean corpus");
}

TEST(FuzzWal, TruncationAtEveryFrameBoundaryIsContained) {
  const std::string wal = durable_wal(1);
  const std::vector<std::size_t> offsets =
      frame_offsets(recovery::decode_wal(wal).records);
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    const std::size_t at = offsets[i];
    expect_contained(wal.substr(0, at), "cut at frame " + std::to_string(i));
    expect_contained(wal.substr(0, at + recovery::kWalHeaderSize / 2),
                     "torn header of frame " + std::to_string(i));
    expect_contained(wal.substr(0, (at + offsets[i + 1]) / 2 + 1),
                     "torn payload of frame " + std::to_string(i));
    if (HasFatalFailure()) return;
  }
}

// `mutants` seeded mutants of `wal_a`, with frames of `wal_b` as the
// foreign material, each held to the readers' contract.
void expect_mutants_contained(const std::string& wal_a,
                              const std::string& wal_b, int mutants) {
  const std::vector<std::string> frames_a =
      recovery::decode_wal(wal_a).records;
  const std::vector<std::string> frames_b =
      recovery::decode_wal(wal_b).records;
  ASSERT_FALSE(frames_a.empty());
  ASSERT_FALSE(frames_b.empty());

  std::mt19937_64 rng(kSeed);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  for (int m = 0; m < mutants; ++m) {
    std::string bytes;
    std::string what;
    std::vector<std::string> frames = frames_a;
    switch (m % 8) {
      case 0: {  // raw bit flips
        bytes = wal_a;
        const int flips = 1 + static_cast<int>(pick(4));
        for (int k = 0; k < flips; ++k) {
          bytes[pick(bytes.size())] ^= static_cast<char>(1u << pick(8));
        }
        what = "raw bit flips";
        break;
      }
      case 1: {  // payload bit flips behind a valid checksum
        std::string& f = frames[pick(frames.size())];
        if (!f.empty()) {
          const int flips = 1 + static_cast<int>(pick(3));
          for (int k = 0; k < flips; ++k) {
            f[pick(f.size())] ^= static_cast<char>(1u << pick(8));
          }
        }
        bytes = encode(frames);
        what = "payload bit flips";
        break;
      }
      case 2: {  // a number swapped for an extreme value
        swap_number(frames[pick(frames.size())], rng);
        bytes = encode(frames);
        what = "number swap";
        break;
      }
      case 3:  // truncation at a random offset
        bytes = wal_a.substr(0, pick(wal_a.size() + 1));
        what = "random truncation";
        break;
      case 4: {  // a frame dropped or duplicated
        const std::size_t i = pick(frames.size());
        if (rng() % 2 == 0) {
          frames.erase(frames.begin() + static_cast<std::ptrdiff_t>(i));
          what = "dropped frame";
        } else {
          frames.insert(frames.begin() + static_cast<std::ptrdiff_t>(i),
                        frames[i]);
          what = "duplicated frame";
        }
        bytes = encode(frames);
        break;
      }
      case 5:  // two frames swapped
        std::swap(frames[pick(frames.size())], frames[pick(frames.size())]);
        bytes = encode(frames);
        what = "swapped frames";
        break;
      case 6:  // a frame of another run spliced in
        frames.insert(
            frames.begin() + static_cast<std::ptrdiff_t>(pick(frames.size())),
            frames_b[pick(frames_b.size())]);
        bytes = encode(frames);
        what = "foreign frame";
        break;
      default:  // raw head of one WAL, raw tail of the other
        bytes = wal_a.substr(0, pick(wal_a.size() + 1)) +
                wal_b.substr(pick(wal_b.size() + 1));
        what = "raw splice";
        break;
    }
    expect_contained(bytes, what + " (mutant " + std::to_string(m) + ")");
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(FuzzWal, SeededMutantsAreContained) {
  expect_mutants_contained(durable_wal(1), durable_wal(2), kRandomMutants);
}

TEST(FuzzWal, DaemonWalMutantsAreContained) {
  const std::string wal = daemon_wal();
  if (HasFatalFailure()) return;
  const WalReadResult decoded = recovery::decode_wal(wal);
  ASSERT_FALSE(decoded.torn);
  ASSERT_TRUE(decoded.error.empty()) << decoded.error;
  std::set<std::string> types;
  for (const std::string& record : decoded.records) {
    types.insert(std::string(obs::record_type(record)));
  }
  for (const char* type :
       {"daemon_start", "job_submit", "job_cancel", "job_progress",
        "job_restore", "finish", "daemon_stop"}) {
    EXPECT_EQ(types.count(type), 1u) << type;
  }
  EXPECT_NE(wal.find("\"deadline_s\":900"), std::string::npos);
  EXPECT_NE(wal.find("\"name\":\"long \\\"a\\\"\""), std::string::npos);
  expect_contained(wal, "clean daemon corpus");
  expect_mutants_contained(wal, durable_wal(1), kDaemonMutants);
}

}  // namespace
}  // namespace muri
