// Seeded mutation fuzzing of the WAL read path (src/recovery): the frame
// decoder (decode_wal), crash recovery (recover_wal) and the replay fold
// (apply_record, and state_from_json for snapshot frames) over mutants of
// real state-tier WALs written by short durable simulation runs.
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
// error. The budget is fixed: 400 random mutants plus three cuts per
// frame, a few seconds in a Debug ASan/UBSan build. The tests carry the
// ctest label `fuzz`.
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
#include "sim/simulator.h"

namespace muri {
namespace {

using recovery::FrameKind;
using recovery::WalFrame;
using recovery::WalReadResult;

constexpr std::uint64_t kSeed = 0x5EEDF00Du;
constexpr int kRandomMutants = 400;

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

// The WAL of a short contended run on a faulty two-machine cluster, with
// a snapshot frame every 13 records, so the corpus carries every state
// record type a simulation writes and snapshot payloads too.
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
  options.snapshot_every_records = 13;
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

std::string encode(const std::vector<WalFrame>& frames) {
  std::string out;
  for (const WalFrame& f : frames) {
    recovery::append_wal_frame(out, f.kind, f.payload);
  }
  return out;
}

// Frame offsets of a clean WAL: offsets[i] is where frame i starts, and
// the last entry is the file size.
std::vector<std::size_t> frame_offsets(const std::vector<WalFrame>& frames) {
  std::vector<std::size_t> offsets = {0};
  for (const WalFrame& f : frames) {
    offsets.push_back(offsets.back() + recovery::kWalHeaderSize +
                      f.payload.size());
  }
  return offsets;
}

// The readers' contract on one input: no crash, and either a valid prefix
// no longer than the input or an error message.
void expect_contained(const std::string& bytes, const std::string& what) {
  SCOPED_TRACE(what);
  const WalReadResult decoded = recovery::decode_wal(bytes);
  ASSERT_LE(decoded.valid_bytes, bytes.size());
  EXPECT_EQ(decoded.torn, decoded.valid_bytes < bytes.size());
  // The frames returned are exactly the valid prefix, re-encodable bit
  // for bit.
  EXPECT_EQ(encode(decoded.frames), bytes.substr(0, decoded.valid_bytes));

  recovery::ReplayState state;
  for (const WalFrame& frame : decoded.frames) {
    std::string error;
    if (frame.kind == FrameKind::kSnapshot) {
      recovery::ReplayState snapshot;
      if (!recovery::state_from_json(frame.payload, snapshot, &error)) {
        EXPECT_FALSE(error.empty());
      }
      continue;
    }
    obs::JsonValue rec;
    if (!obs::parse_json(frame.payload, rec, &error)) {
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
// Out-of-range numbers now saturate, in records and in snapshots alike.
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

  std::string snapshot = recovery::state_json(recovery::ReplayState{});
  const std::string field = "\"records\":0";
  snapshot.replace(snapshot.find(field), field.size(), "\"records\":-1e300");
  recovery::ReplayState restored;
  ASSERT_TRUE(recovery::state_from_json(snapshot, restored, &error)) << error;
  EXPECT_EQ(restored.records, kMin);
}

TEST(FuzzWal, CorpusIsAStateTierWalWithSnapshots) {
  const std::string wal = durable_wal(1);
  const WalReadResult decoded = recovery::decode_wal(wal);
  ASSERT_FALSE(decoded.torn);
  ASSERT_GT(decoded.frames.size(), 50u);
  int snapshots = 0;
  for (const WalFrame& f : decoded.frames) {
    if (f.kind == FrameKind::kSnapshot) {
      ++snapshots;
      continue;
    }
    EXPECT_FALSE(obs::is_explanation_record(obs::record_type(f.payload)))
        << f.payload;
  }
  EXPECT_GT(snapshots, 0);
  expect_contained(wal, "clean corpus");
}

TEST(FuzzWal, TruncationAtEveryFrameBoundaryIsContained) {
  const std::string wal = durable_wal(1);
  const std::vector<std::size_t> offsets =
      frame_offsets(recovery::decode_wal(wal).frames);
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

TEST(FuzzWal, SeededMutantsAreContained) {
  const std::string wal_a = durable_wal(1);
  const std::string wal_b = durable_wal(2);
  const std::vector<WalFrame> frames_a = recovery::decode_wal(wal_a).frames;
  const std::vector<WalFrame> frames_b = recovery::decode_wal(wal_b).frames;
  ASSERT_FALSE(frames_a.empty());
  ASSERT_FALSE(frames_b.empty());

  std::mt19937_64 rng(kSeed);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  for (int m = 0; m < kRandomMutants; ++m) {
    std::string bytes;
    std::string what;
    std::vector<WalFrame> frames = frames_a;
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
        WalFrame& f = frames[pick(frames.size())];
        if (!f.payload.empty()) {
          const int flips = 1 + static_cast<int>(pick(3));
          for (int k = 0; k < flips; ++k) {
            f.payload[pick(f.payload.size())] ^=
                static_cast<char>(1u << pick(8));
          }
        }
        bytes = encode(frames);
        what = "payload bit flips";
        break;
      }
      case 2: {  // a number swapped for an extreme value
        swap_number(frames[pick(frames.size())].payload, rng);
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
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace muri
