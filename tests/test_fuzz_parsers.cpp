// Robustness fuzzing of every deserializer: random single-byte mutations
// and truncations of valid artifacts must either parse or throw
// lcrs::Error -- never crash, hang, or corrupt memory. (Run under ASAN
// for the full guarantee; in a plain build this still catches unchecked
// size fields and missing bounds checks.)
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/bytes.h"
#include "core/checkpoint.h"
#include "edge/protocol.h"
#include "nn/model_io.h"
#include "tensor/serialize.h"
#include "webinfer/engine.h"
#include "webinfer/export.h"

namespace lcrs {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// Applies `parse` to mutated/truncated copies of `valid`; counts
/// survivals (parse succeeded despite mutation -- benign payload bits).
template <typename Fn>
void fuzz(const Bytes& valid, Fn parse, int trials, std::uint64_t seed) {
  Rng rng(seed);
  // Parsing the pristine input must succeed.
  ASSERT_NO_THROW(parse(valid));

  for (int t = 0; t < trials; ++t) {
    Bytes mutated = valid;
    const int op = static_cast<int>(rng.randint(0, 2));
    if (op == 0 && !mutated.empty()) {  // flip one byte
      const auto pos = static_cast<std::size_t>(
          rng.randint(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[pos] ^= static_cast<std::uint8_t>(rng.randint(1, 255));
    } else if (op == 1) {  // truncate
      mutated.resize(static_cast<std::size_t>(
          rng.randint(0, static_cast<std::int64_t>(mutated.size()) - 1)));
    } else {  // append garbage
      for (int i = 0; i < 8; ++i) {
        mutated.push_back(static_cast<std::uint8_t>(rng.randint(0, 255)));
      }
    }
    try {
      parse(mutated);  // surviving a benign mutation is fine
    } catch (const Error&) {
      // expected rejection path
    } catch (const std::exception& e) {
      FAIL() << "non-lcrs exception escaped: " << e.what();
    }
  }
}

TEST(Fuzz, TensorDeserializer) {
  Rng rng(1);
  ByteWriter w;
  write_tensor(w, Tensor::randn(Shape{3, 4, 5}, rng));
  fuzz(w.bytes(),
       [](const Bytes& b) {
         ByteReader r(b);
         (void)read_tensor(r);
       },
       400, 11);
}

TEST(Fuzz, ProtocolFrames) {
  Rng rng(2);
  const edge::Frame frame{edge::MsgType::kCompleteRequest,
                          edge::make_complete_request(
                              Tensor::randn(Shape{1, 4, 7, 7}, rng))};
  fuzz(edge::encode_frame(frame),
       [](const Bytes& b) {
         const edge::Frame f = edge::decode_frame(b);
         if (f.type == edge::MsgType::kCompleteRequest) {
           (void)edge::parse_complete_request(f.payload);
         }
       },
       400, 22);
}

TEST(Fuzz, ProtocolFramesTracedAndRouted) {
  // Nonzero model and trace ids: mutations of those header fields must
  // decode benignly or be rejected -- never crash.
  Rng rng(7);
  const edge::Frame frame{edge::MsgType::kCompleteRequest,
                          edge::make_complete_request(
                              Tensor::randn(Shape{1, 4, 7, 7}, rng)),
                          0x0123456789abcdefull, /*model_id=*/3};
  fuzz(edge::encode_frame(frame),
       [](const Bytes& b) {
         const edge::Frame f = edge::decode_frame(b);
         if (f.type == edge::MsgType::kCompleteRequest) {
           (void)edge::parse_complete_request(f.payload);
         }
       },
       400, 66);
}

TEST(Fuzz, BusyReply) {
  // The kBusy admission-control payload: mutations of a busy frame must
  // parse or throw lcrs::Error, never crash.
  const edge::Frame frame{edge::MsgType::kBusy, edge::make_busy_reply(25)};
  fuzz(edge::encode_frame(frame),
       [](const Bytes& b) {
         const edge::Frame f = edge::decode_frame(b);
         if (f.type == edge::MsgType::kBusy) {
           (void)edge::parse_busy_reply(f.payload);
         }
       },
       400, 77);
}

TEST(Fuzz, WebModelBlob) {
  Rng rng(3);
  const models::ModelConfig cfg{models::Arch::kLeNet, 1, 28, 28, 10, 0.5};
  core::CompositeNetwork net = core::CompositeNetwork::build(cfg, rng);
  const Bytes blob =
      webinfer::serialize(webinfer::export_browser_model(net, 1, 28, 28));
  fuzz(blob, [](const Bytes& b) { (void)webinfer::deserialize(b); }, 300,
       33);
}

TEST(Fuzz, ModelParams) {
  Rng rng(4);
  const models::ModelConfig cfg{models::Arch::kLeNet, 1, 28, 28, 10, 0.5};
  core::CompositeNetwork net = core::CompositeNetwork::build(cfg, rng);
  const Bytes params = nn::save_params(net.binary_branch());
  // Loading mutates the target; use a scratch network per parse.
  const models::BinaryBranchConfig bc = models::default_branch(cfg.arch);
  fuzz(params,
       [&](const Bytes& b) {
         Rng scratch_rng(5);
         core::CompositeNetwork scratch =
             core::CompositeNetwork::build(cfg, bc, scratch_rng);
         nn::load_params(scratch.binary_branch(), b);
       },
       60, 44);
}

// The crasher corpus now lives as files under fuzz/corpus/<harness>/
// (one input per file, generated by fuzz/gen_seeds.cpp), shared with the
// libFuzzer harnesses and the fuzz_*_replay runners. This test drives the
// same files through the parsers directly: every crasher-* must be
// rejected with lcrs::Error, every seed-* must parse cleanly. Under ASan
// the crashers double as memory-safety probes of the rejection paths.
std::vector<std::filesystem::path> corpus_files(const std::string& harness,
                                                const std::string& prefix) {
  const std::filesystem::path dir =
      std::filesystem::path(LCRS_FUZZ_CORPUS_DIR) / harness;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() &&
        entry.path().filename().string().starts_with(prefix)) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

Bytes read_corpus_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

/// Each corpus directory's parse pipeline, mirroring its fuzz harness.
void parse_corpus_input(const std::string& harness, const Bytes& b) {
  if (harness == "tensor_serialize") {
    ByteReader r(b);
    (void)read_tensor(r);
  } else if (harness == "frame_parser") {
    const edge::Frame f = edge::decode_frame(b);
    if (f.type == edge::MsgType::kCompleteRequest) {
      (void)edge::parse_complete_request(f.payload);
    } else if (f.type == edge::MsgType::kCompleteResponse) {
      (void)edge::parse_complete_response(f.payload);
    } else if (f.type == edge::MsgType::kBusy) {
      (void)edge::parse_busy_reply(f.payload);
    } else if (f.type == edge::MsgType::kModelUnavailable) {
      (void)edge::parse_model_unavailable(f.payload);
    }
  } else if (harness == "model_bundle") {
    (void)core::load_bundle(b);
  } else if (harness == "model_blob") {
    const webinfer::WebModel model = webinfer::deserialize(b);
    const Shape in{1, model.in_c, model.in_h, model.in_w};
    if (in.numel() <= (1 << 16)) {
      (void)webinfer::Engine(model).forward(Tensor{in});
    }
  } else if (harness == "checkpoint") {
    (void)core::load_composite(b);
  } else {
    FAIL() << "no parser registered for corpus dir " << harness;
  }
}

class CrasherCorpus : public testing::TestWithParam<const char*> {};

TEST_P(CrasherCorpus, EveryCrasherRejectedEverySeedAccepted) {
  const std::string harness = GetParam();
  const auto crashers = corpus_files(harness, "crasher-");
  const auto seeds = corpus_files(harness, "seed-");
  ASSERT_FALSE(crashers.empty())
      << "no crasher-* files under fuzz/corpus/" << harness
      << " -- regenerate with fuzz_gen_seeds";
  ASSERT_FALSE(seeds.empty());
  for (const auto& path : crashers) {
    EXPECT_THROW(parse_corpus_input(harness, read_corpus_file(path)), Error)
        << "crasher not rejected: " << path;
  }
  for (const auto& path : seeds) {
    EXPECT_NO_THROW(parse_corpus_input(harness, read_corpus_file(path)))
        << "seed rejected: " << path;
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, CrasherCorpus,
                         testing::Values("tensor_serialize", "frame_parser",
                                         "model_blob", "checkpoint",
                                         "model_bundle"),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

TEST(Fuzz, Checkpoints) {
  Rng rng(6);
  const models::ModelConfig cfg{models::Arch::kLeNet, 1, 28, 28, 10, 0.5};
  core::CompositeNetwork net = core::CompositeNetwork::build(cfg, rng);
  const Bytes ckpt = core::save_composite(
      net, core::Checkpoint{cfg, models::default_branch(cfg.arch), 0.05});
  fuzz(ckpt, [](const Bytes& b) { (void)core::load_composite(b); }, 60, 55);
}

}  // namespace
}  // namespace lcrs
