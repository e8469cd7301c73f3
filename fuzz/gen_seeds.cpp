// Deterministic corpus generator: writes the committed seed corpus
// (seed-*) and the regression crashers (crasher-*) for every fuzz
// harness into <out-root>/<harness>/. Run from the repo root as
//
//   ./build/fuzz/fuzz_gen_seeds fuzz/corpus
//
// and commit the result. Everything here is reproducible: fixed Rng
// seeds, no time or environment dependence, so regenerating after a
// format change yields a reviewable diff.
//
// Crasher files reproduce the hand-built corpus that used to live inline
// in tests/test_fuzz_parsers.cpp (Fuzz.CrasherCorpus) plus inputs found
// by the harnesses themselves; each must be *rejected* (lcrs::Error or,
// for structured harnesses, a survived oracle) forever after the fix
// that accompanied it.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "edge/protocol.h"
#include "models/zoo.h"
#include "tensor/serialize.h"
#include "webinfer/export.h"
#include "webinfer/format.h"

namespace fs = std::filesystem;
using namespace lcrs;
using Bytes = std::vector<std::uint8_t>;

namespace {

fs::path g_root;

void emit(const std::string& harness, const std::string& name,
          const Bytes& bytes) {
  const fs::path dir = g_root / harness;
  fs::create_directories(dir);
  const fs::path path = dir / name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), bytes.size());
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.randint(0, 255));
  return out;
}

// ---------------------------------------------------------------- frames

void gen_frame_parser() {
  Rng rng(101);
  emit("frame_parser", "seed-ping",
       edge::encode_frame({edge::MsgType::kPing, {}}));
  emit("frame_parser", "seed-pong",
       edge::encode_frame({edge::MsgType::kPong, {}}));
  emit("frame_parser", "seed-shutdown",
       edge::encode_frame({edge::MsgType::kShutdown, {}}));
  emit("frame_parser", "seed-busy",
       edge::encode_frame({edge::MsgType::kBusy, edge::make_busy_reply(25)}));
  emit("frame_parser", "seed-request",
       edge::encode_frame(
           {edge::MsgType::kCompleteRequest,
            edge::make_complete_request(Tensor::randn(Shape{1, 4, 7, 7},
                                                      rng))}));
  emit("frame_parser", "seed-request-traced",
       edge::encode_frame(
           {edge::MsgType::kCompleteRequest,
            edge::make_complete_request(Tensor::randn(Shape{1, 2, 4, 4},
                                                      rng)),
            0x0123456789abcdefull}));
  emit("frame_parser", "seed-request-routed",
       edge::encode_frame(
           {edge::MsgType::kCompleteRequest,
            edge::make_complete_request(Tensor::randn(Shape{1, 2, 4, 4},
                                                      rng)),
            0x0123456789abcdefull, /*model_id=*/2}));
  emit("frame_parser", "seed-request-routed-untraced",
       edge::encode_frame(
           {edge::MsgType::kCompleteRequest,
            edge::make_complete_request(Tensor::randn(Shape{1, 1, 8, 8},
                                                      rng)),
            /*trace_id=*/0, /*model_id=*/7}));
  emit("frame_parser", "seed-model-unavailable",
       edge::encode_frame({edge::MsgType::kModelUnavailable,
                           edge::make_model_unavailable(7),
                           /*trace_id=*/42, /*model_id=*/7}));
  {
    edge::CompleteResponse resp;
    resp.label = 7;
    resp.probabilities = Tensor::randn(Shape{1, 10}, rng);
    emit("frame_parser", "seed-response",
         edge::encode_frame({edge::MsgType::kCompleteResponse,
                             edge::make_complete_response(resp)}));
  }

  constexpr std::uint32_t kFrameMagic = 0x4c435633;  // "LCV3"
  constexpr std::uint32_t kOldMagicV1 = 0x4c435246;  // "LCRF"
  constexpr std::uint32_t kOldMagicV2 = 0x4c435632;  // "LCV2"
  // A hand-built header: `type`, model id 2, trace id 1, announced
  // payload size `size`.
  auto header = [](std::uint8_t type, std::uint32_t size) {
    ByteWriter w;
    w.write_u32(kFrameMagic);
    w.write_u8(type);
    w.write_u32(2);
    w.write_u64(1);
    w.write_u32(size);
    return w.take();
  };
  // Largest legal length with no payload behind it: must be rejected
  // before the payload is allocated.
  emit("frame_parser", "crasher-inflated-length",
       header(0, edge::kMaxFramePayloadBytes));
  emit("frame_parser", "crasher-over-limit-length",
       header(0, edge::kMaxFramePayloadBytes + 1));
  // One-past-the-end message type (kModelUnavailable + 1).
  emit("frame_parser", "crasher-bad-type", header(7, 0));
  {  // a header cut off one byte short
    Bytes cut = header(0, 0);
    cut.pop_back();
    emit("frame_parser", "crasher-truncated-header", cut);
  }
  // Frames in the retired layouts ("LCRF": no ids; "LCV2": trace id
  // only), long enough to fill a current header so the magic check is
  // what rejects them.
  const Bytes old_payload = edge::make_complete_request(Tensor(Shape{1, 2}));
  {
    ByteWriter w;
    w.write_u32(kOldMagicV1);
    w.write_u8(static_cast<std::uint8_t>(edge::MsgType::kCompleteRequest));
    w.write_u32(static_cast<std::uint32_t>(old_payload.size()));
    w.write_bytes(old_payload.data(), old_payload.size());
    emit("frame_parser", "crasher-old-magic-v1", w.bytes());
  }
  {
    ByteWriter w;
    w.write_u32(kOldMagicV2);
    w.write_u8(static_cast<std::uint8_t>(edge::MsgType::kCompleteRequest));
    w.write_u64(1);
    w.write_u32(static_cast<std::uint32_t>(old_payload.size()));
    w.write_bytes(old_payload.data(), old_payload.size());
    emit("frame_parser", "crasher-old-magic-v2", w.bytes());
  }
  // Busy-payload crashers (used to call parse_busy_reply directly in the
  // inline corpus): wrapped as whole kBusy frames so the frame harness
  // drives them through its typed-payload path.
  emit("frame_parser", "crasher-busy-truncated",
       edge::encode_frame({edge::MsgType::kBusy, {0x01, 0x02}}));
  {
    Bytes busy = edge::make_busy_reply(5);
    busy.push_back(0xAA);
    emit("frame_parser", "crasher-busy-trailing",
         edge::encode_frame({edge::MsgType::kBusy, busy}));
  }
  // Model-unavailable payload crashers, wrapped the same way.
  emit("frame_parser", "crasher-model-unavailable-truncated",
       edge::encode_frame({edge::MsgType::kModelUnavailable, {0x01}}));
  {
    Bytes payload = edge::make_model_unavailable(7);
    payload.push_back(0xAA);
    emit("frame_parser", "crasher-model-unavailable-trailing",
         edge::encode_frame({edge::MsgType::kModelUnavailable, payload}));
  }
}

// ---------------------------------------------------------------- tensor

void gen_tensor_serialize() {
  Rng rng(202);
  {
    ByteWriter w;
    write_tensor(w, Tensor::randn(Shape{3, 4, 5}, rng));
    emit("tensor_serialize", "seed-rank3", w.bytes());
  }
  {
    ByteWriter w;
    write_tensor(w, Tensor::randn(Shape{1}, rng));
    emit("tensor_serialize", "seed-scalar", w.bytes());
  }
  {
    ByteWriter w;
    write_tensor(w, Tensor::randn(Shape{1, 3, 9, 9}, rng));
    emit("tensor_serialize", "seed-image", w.bytes());
  }

  constexpr std::uint32_t kTensorMagic = 0x4c435254;  // "LCRT"
  {  // absurd rank
    ByteWriter w;
    w.write_u32(kTensorMagic);
    w.write_u32(0xFFFFFFFFu);
    emit("tensor_serialize", "crasher-absurd-rank", w.bytes());
  }
  {  // negative dimension
    ByteWriter w;
    w.write_u32(kTensorMagic);
    w.write_u32(2);
    w.write_i64(4);
    w.write_i64(-5);
    emit("tensor_serialize", "crasher-negative-dim", w.bytes());
  }
  {  // dims pass validation but the payload is absent -- must raise
     // ParseError before attempting the 1 GiB allocation
    ByteWriter w;
    w.write_u32(kTensorMagic);
    w.write_u32(1);
    w.write_i64(1ll << 28);
    emit("tensor_serialize", "crasher-huge-dim-no-payload", w.bytes());
  }
}

// ------------------------------------------------------------ checkpoint

void gen_checkpoint() {
  Rng rng(303);
  const models::ModelConfig cfg{models::Arch::kLeNet, 1, 28, 28, 10, 0.5};
  core::CompositeNetwork net = core::CompositeNetwork::build(cfg, rng);
  const Bytes ckpt = core::save_composite(
      net, core::Checkpoint{cfg, models::default_branch(cfg.arch), 0.05});
  emit("checkpoint", "seed-lenet", ckpt);

  emit("checkpoint", "crasher-truncated-header",
       Bytes(ckpt.begin(), ckpt.begin() + 32));
  {
    Bytes bad = ckpt;
    bad[0] ^= 0xFF;  // wrong magic
    emit("checkpoint", "crasher-bad-magic", bad);
  }
  {
    // Trailing garbage after a fully valid checkpoint: accepted blobs
    // must be exactly one checkpoint (load_composite checks at_end).
    Bytes trailing = ckpt;
    trailing.push_back(0xAA);
    emit("checkpoint", "crasher-trailing-byte", trailing);
  }
}

// ----------------------------------------------------------- model bundle

void gen_model_bundle() {
  Rng rng(909);
  const models::ModelConfig cfg{models::Arch::kLeNet, 1, 28, 28, 10, 0.5};
  core::CompositeNetwork net = core::CompositeNetwork::build(cfg, rng);
  const Bytes bundle = core::save_bundle(
      net, core::Checkpoint{cfg, models::default_branch(cfg.arch), 0.05},
      core::BundleInfo{3, 1, "lenet-v1"});
  emit("model_bundle", "seed-lenet", bundle);

  emit("model_bundle", "crasher-truncated-header",
       Bytes(bundle.begin(), bundle.begin() + 32));
  {
    Bytes bad = bundle;
    bad[0] ^= 0xFF;  // wrong magic
    emit("model_bundle", "crasher-bad-magic", bad);
  }
  {
    Bytes trailing = bundle;
    trailing.push_back(0xAA);
    emit("model_bundle", "crasher-trailing-byte", trailing);
  }
  // The canonical-form rules mirrored between save_bundle and
  // load_bundle: id 0 is reserved for the default model and version 0
  // does not exist, so neither can be produced -- nor loaded. Patch the
  // fixed-offset header fields of the valid bundle ([magic u32]
  // [format-version u32][model-id u32][model-version u32]...).
  {
    Bytes zero_id = bundle;
    for (std::size_t i = 8; i < 12; ++i) zero_id[i] = 0;
    emit("model_bundle", "crasher-zero-model-id", zero_id);
  }
  {
    Bytes zero_version = bundle;
    for (std::size_t i = 12; i < 16; ++i) zero_version[i] = 0;
    emit("model_bundle", "crasher-zero-version", zero_version);
  }
  {  // declared inner size runs past the end: reject before allocating
    ByteWriter w;
    w.write_u32(0x4c435242u);  // "LCRB"
    w.write_u32(1);
    w.write_u32(3);
    w.write_u32(1);
    w.write_string("lenet-v1");
    w.write_u32(0xFFFFFFF0u);
    emit("model_bundle", "crasher-inflated-inner-size", w.bytes());
  }
}

// ------------------------------------------------------------- web model

void gen_model_blob() {
  Rng rng(404);
  const models::ModelConfig cfg{models::Arch::kLeNet, 1, 28, 28, 10, 0.5};
  core::CompositeNetwork net = core::CompositeNetwork::build(cfg, rng);
  const Bytes blob =
      webinfer::serialize(webinfer::export_browser_model(net, 1, 28, 28));
  emit("model_blob", "seed-lenet", blob);

  constexpr std::uint32_t kWebModelMagic = 0x4c435257;  // "LCRW"
  {  // future format version
    ByteWriter w;
    w.write_u32(kWebModelMagic);
    w.write_u32(999);
    emit("model_blob", "crasher-future-version", w.bytes());
  }
  {  // ends right after a valid magic + version
    ByteWriter w;
    w.write_u32(kWebModelMagic);
    w.write_u32(1);
    emit("model_blob", "crasher-header-only", w.bytes());
  }
  {  // trailing garbage after a valid blob (deserialize checks at_end)
    Bytes trailing = blob;
    trailing.push_back(0xAA);
    emit("model_blob", "crasher-trailing-byte", trailing);
  }
  {  // a LinearOp whose weight is shorter than out x in: the engine's gemm
     // would read past it, so the parser must refuse it
    webinfer::LinearOp op;
    op.in = 8;
    op.out = 4;
    op.weight = Tensor{Shape{4, 7}};
    op.bias = Tensor{Shape{4}};
    webinfer::WebModel m;
    m.in_c = 8;
    m.in_h = m.in_w = 1;
    m.num_classes = 4;
    m.ops = {webinfer::FlattenOp{}, std::move(op)};
    emit("model_blob", "crasher-short-linear-weight", webinfer::serialize(m));
  }
}

// ----------------------------------------------------- structured inputs

void gen_bytes() {
  emit("bytes", "seed-empty", {});
  for (const std::size_t n : {16u, 64u, 200u}) {
    emit("bytes", "seed-random-" + std::to_string(n),
         random_bytes(n, 500 + n));
  }
  // Regression for the ByteReader::read_string cursor bug this PR fixes:
  // byte 0 = 175 makes phase 1 a no-op (175 % 25 == 0) and selects the
  // whole 7-byte input as the adversarial buffer (175 % 8 == 7); every op
  // byte is 6 = read_string. The first read_string sees length
  // 0x060606AF, far past the end -- it must throw *without* consuming the
  // 4 length bytes (failed reads leave the cursor untouched).
  emit("bytes", "crasher-readstring-cursor", {175, 6, 6, 6, 6, 6, 6});
}

void gen_batcher() {
  // Op stream: [client-idx, action, args...] repeated; see fuzz_batcher.
  // A send's args are [model-selector, shape, floats..., trace-id].
  // Exhausted input decodes as zeros, so short scripts are valid.
  emit("batcher", "seed-send-only", {0, 1});  // request, reply abandoned
  {
    // client 0: send a zero tensor to the default model (selector 0,
    // shape 0 = {1,2,4,4}, 32 one-byte zero floats, trace id 9 = v2
    // framing), recv the reply, then ping.
    Bytes script{0, 1, 0, 0};
    script.insert(script.end(), 32, 0);  // the 32 floats
    script.push_back(9);                 // trace id
    script.insert(script.end(), {0, 2, 0, 3});
    emit("batcher", "seed-send-recv", script);
  }
  {
    // Three clients racing requests then draining: coalescing + busy,
    // with requests spread over default/alt/unknown models so per-model
    // queues and the rejection path interleave.
    Bytes script;
    Rng rng(606);
    for (int round = 0; round < 3; ++round) {
      for (std::uint8_t c = 0; c < 3; ++c) {
        script.push_back(c);
        script.push_back(1);  // send
        script.push_back(static_cast<std::uint8_t>(rng.randint(0, 3)));
        script.push_back(static_cast<std::uint8_t>(rng.randint(0, 2)));
        for (int i = 0; i < 8; ++i) {
          script.push_back(static_cast<std::uint8_t>(rng.randint(0, 255)));
        }
      }
      for (std::uint8_t c = 0; c < 3; ++c) {
        script.push_back(c);
        script.push_back(2);  // recv
      }
    }
    emit("batcher", "seed-three-clients", script);
  }
  {
    // Hot-swap interleaving: send to the alt model, swap it, drain, evict
    // it, send again (now unavailable), reinstall, send once more.
    // Floats are all the one-byte zero encoding so the script stays
    // byte-aligned (nonzero floats consume two input bytes).
    Bytes script{
        0, 1, 2, 0};                     // c0: send to alt model, shape 0
    script.insert(script.end(), 32, 0);  // floats
    script.push_back(0);                 // trace id (v3 via model id)
    script.insert(script.end(), {
        2, 6, 0,        // swap: install next alt version
        0, 2,           // c0: recv (old snapshot answered it)
        2, 6, 1,        // swap: evict the alt model
        1, 1, 2, 1});   // c1: send to alt model, shape 1
    script.insert(script.end(), 27, 0);  // floats
    script.push_back(0);                 // trace id
    script.insert(script.end(), {
        1, 2,           // c1: recv (kModelUnavailable expected)
        2, 6, 2,        // swap: reinstall
        1, 1, 2, 2});   // c1: send again, shape 2
    script.insert(script.end(), 64, 0);  // floats
    script.push_back(5);                 // trace id
    script.insert(script.end(), {1, 2});  // c1: recv the completion
    emit("batcher", "seed-swap-interleave", script);
  }
  emit("batcher", "seed-garbage-then-probe", {0, 5, 0xDE, 0xAD, 0xBE, 0xEF});
  for (const std::size_t n : {24u, 64u, 120u}) {
    emit("batcher", "seed-random-" + std::to_string(n),
         random_bytes(n, 600 + n));
  }
}

void gen_ops_http() {
  // Layout per fuzz_ops_http: byte 0 = flags (bit 0: ready), rest = the
  // raw HTTP request head.
  auto req = [](std::uint8_t flags, const std::string& head) {
    Bytes b;
    b.reserve(1 + head.size());
    b.push_back(flags);
    b.insert(b.end(), head.begin(), head.end());
    return b;
  };
  for (const char* path : {"/metrics", "/metrics.json", "/healthz",
                           "/readyz", "/statusz", "/tracez", "/"}) {
    std::string name = path[1] == '\0' ? std::string("index")
                                       : std::string(path + 1);
    for (char& c : name) {
      if (c == '.') c = '-';
    }
    emit("ops_http", "seed-get-" + name,
         req(1, "GET " + std::string(path) + " HTTP/1.0\r\n"
                "Host: 127.0.0.1\r\nConnection: close\r\n\r\n"));
  }
  emit("ops_http", "seed-readyz-draining",
       req(0, "GET /readyz HTTP/1.0\r\n\r\n"));
  emit("ops_http", "seed-query-string",
       req(1, "GET /metrics?format=text HTTP/1.1\r\nAccept: */*\r\n\r\n"));
  emit("ops_http", "seed-post", req(1, "POST /metrics HTTP/1.0\r\n\r\n"));
  emit("ops_http", "seed-not-found", req(1, "GET /nope HTTP/1.0\r\n\r\n"));
  // Malformed heads the parser must reject without crashing.
  emit("ops_http", "seed-bad-no-version", req(1, "GET /metrics\r\n\r\n"));
  emit("ops_http", "seed-bad-lowercase-method",
       req(1, "get /metrics HTTP/1.0\r\n\r\n"));
  emit("ops_http", "seed-bad-relative-target",
       req(1, "GET metrics HTTP/1.0\r\n\r\n"));
  emit("ops_http", "seed-bad-folded-header",
       req(1, "GET / HTTP/1.0\r\nX-A: b\r\n c\r\n\r\n"));
  emit("ops_http", "seed-bad-control-bytes",
       req(1, std::string("GET /\x01\x02 HTTP/1.0\r\n\r\n")));
  emit("ops_http", "seed-bad-colonless-header",
       req(1, "GET / HTTP/1.0\r\nnocolon\r\n\r\n"));
  // Label-escape stress: quotes, backslashes, newlines in the raw input
  // (exercises check_escape_helpers more than the parser).
  emit("ops_http", "seed-escape-stress",
       req(1, "a\"b\\c\nd\\\\e\"\"\n\\"));
  for (const std::size_t n : {8u, 64u, 300u}) {
    emit("ops_http", "seed-random-" + std::to_string(n),
         random_bytes(n, 1000 + n));
  }
}

void gen_kernels() {
  for (const char* h : {"kernels_gemm", "kernels_binary", "kernels_im2col"}) {
    const std::uint64_t base =
        h[8] == 'g' ? 700 : (h[8] == 'b' ? 800 : 900);
    emit(h, "seed-zeros", Bytes(64, 0x00));    // minimum shapes, zero data
    emit(h, "seed-ones", Bytes(512, 0xFF));    // maximum shapes
    for (const std::size_t n : {8u, 64u, 256u, 1024u}) {
      emit(h, "seed-random-" + std::to_string(n), random_bytes(n, base + n));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  g_root = fs::path(argv[1]);
  gen_frame_parser();
  gen_tensor_serialize();
  gen_checkpoint();
  gen_model_bundle();
  gen_model_blob();
  gen_bytes();
  gen_batcher();
  gen_ops_http();
  gen_kernels();
  std::printf("corpus written under %s\n", g_root.c_str());
  return 0;
}
