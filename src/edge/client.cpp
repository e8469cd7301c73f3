#include "edge/client.h"

#include <algorithm>
#include <thread>

#include "common/logging.h"
#include "common/obs/flight_recorder.h"
#include "common/obs/trace.h"
#include "common/stopwatch.h"
#include "core/entropy.h"
#include "tensor/tensor_ops.h"

namespace lcrs::edge {

void RetryPolicy::validate() const {
  LCRS_CHECK(max_attempts >= 1, "max_attempts must be >= 1");
  LCRS_CHECK(initial_backoff_ms >= 0.0, "negative initial_backoff_ms");
  LCRS_CHECK(backoff_multiplier >= 1.0, "backoff_multiplier must be >= 1");
  LCRS_CHECK(max_backoff_ms >= 0.0, "negative max_backoff_ms");
  LCRS_CHECK(deadline_ms >= 0.0, "negative deadline_ms");
}

RetryPolicy RetryPolicy::no_retry() {
  RetryPolicy p;
  p.max_attempts = 1;
  p.initial_backoff_ms = 0.0;
  return p;
}

BrowserClient::BrowserClient(webinfer::Engine engine, core::ExitPolicy policy,
                             std::uint16_t port, RetryPolicy retry)
    : engine_(std::move(engine)),
      policy_(policy),
      port_(port),
      retry_(retry) {
  retry_.validate();
}

ClientResult BrowserClient::classify(const Tensor& sample) {
  LCRS_CHECK(sample.rank() == 4 && sample.dim(0) == 1,
             "classify expects a single [1,C,H,W] sample");
  const std::uint64_t trace_id = obs::next_trace_id();
  Stopwatch browser_watch;
  Tensor shared;
  {
    obs::Span span(trace_id, obs::names::kSpanClientConv1);
    shared = engine_.forward_shared(sample);
  }
  Tensor probs;
  double entropy = 0.0;
  {
    obs::Span span(trace_id, obs::names::kSpanClientBinaryBranch);
    const Tensor logits = engine_.forward_branch(shared);
    probs = softmax_rows(logits);
    entropy = core::normalized_entropy(probs.data(), probs.dim(1));
  }
  browser_compute_us_.record(browser_watch.micros());

  requests_.add();
  if (policy_.should_exit(entropy)) {
    exit_binary_.add();
    core::record_exit_decision(core::ExitPoint::kBinaryBranch, entropy);
    obs::flight_record_finish(trace_id, false, "client.exit_binary");
    ClientResult r;
    r.label = argmax(probs);
    r.exit_point = core::ExitPoint::kBinaryBranch;
    r.entropy = entropy;
    r.probabilities = probs;
    r.trace_id = trace_id;
    return r;
  }
  return complete_at_edge(shared, probs, entropy, trace_id);
}

ClientResult BrowserClient::attempt_edge_completion(const Frame& request,
                                                    double entropy,
                                                    const Deadline& deadline) {
  if (!conn_.has_value() || !conn_->valid()) {
    conn_ = connect_local(port_);
    if (connected_once_) reconnects_.add();
    connected_once_ = true;
  }
  std::optional<Frame> reply;
  {
    obs::Span span(request.trace_id, obs::names::kSpanClientNetwork);
    conn_->send_frame(request, deadline);
    reply = conn_->recv_frame(deadline);
  }
  if (reply.has_value() && reply->type == MsgType::kBusy) {
    // Admission control pushed back. The connection is healthy and at a
    // frame boundary -- keep it; only the server's queue was full.
    throw ServerBusyError(parse_busy_reply(reply->payload));
  }
  if (reply.has_value() && reply->type == MsgType::kModelUnavailable) {
    // The requested model has no registry entry (yet). Like kBusy, the
    // connection stays in sync; the model may land mid-rollout, so the
    // retry ladder gets another look before the binary fallback.
    throw ModelUnavailableError(parse_model_unavailable(reply->payload));
  }
  if (!reply.has_value() || reply->type != MsgType::kCompleteResponse) {
    throw IoError("edge server did not return a completion response");
  }
  if (reply->model_id != request.model_id) {
    // The server echoes the serving model id in the response header;
    // a mismatch would be a routing bug, not a transport fault.
    throw IoError("edge response model id " +
                  std::to_string(reply->model_id) + " does not match request " +
                  std::to_string(request.model_id));
  }
  const CompleteResponse resp = parse_complete_response(reply->payload);

  ClientResult r;
  r.label = resp.label;
  r.exit_point = core::ExitPoint::kMainBranch;
  r.entropy = entropy;
  r.probabilities = resp.probabilities;
  r.trace_id = request.trace_id;
  return r;
}

ClientResult BrowserClient::complete_at_edge(const Tensor& shared,
                                             const Tensor& probs,
                                             double entropy,
                                             std::uint64_t trace_id) {
  const Deadline deadline = retry_.deadline_ms > 0.0
                                ? Deadline::after_ms(retry_.deadline_ms)
                                : Deadline::infinite();

  // Serialize once, outside the retry loop: the conv1 features do not
  // change between attempts, and the encode cost should be attributed to
  // serialization, not to however many network attempts follow.
  Frame request;
  {
    obs::Span span(trace_id, obs::names::kSpanClientSerialize);
    Stopwatch watch;
    request = Frame{MsgType::kCompleteRequest, make_complete_request(shared),
                    trace_id, model_id_};
    serialize_us_.record(watch.micros());
  }

  double backoff_ms = retry_.initial_backoff_ms;
  std::string last_error = "edge path deadline expired before first attempt";
  for (int attempt = 0; attempt < retry_.max_attempts; ++attempt) {
    if (attempt > 0) {
      retries_.add();
      const double sleep_ms =
          std::min(backoff_ms, deadline.remaining_ms());
      if (sleep_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(sleep_ms));
      }
      backoff_ms = std::min(backoff_ms * retry_.backoff_multiplier,
                            retry_.max_backoff_ms);
    }
    if (deadline.expired()) break;
    Stopwatch watch;
    try {
      ClientResult r = attempt_edge_completion(request, entropy, deadline);
      exit_main_.add();
      roundtrip_us_.record(watch.micros());
      core::record_exit_decision(core::ExitPoint::kMainBranch, entropy);
      obs::flight_record_finish(trace_id, false, "client.exit_main");
      return r;
    } catch (const ServerBusyError& e) {
      // Backpressure, not breakage: the connection is still in sync, so
      // keep it, honour the server's retry-after hint as a backoff floor,
      // and let the normal retry/fallback ladder run its course.
      busy_rejections_.add();
      backoff_ms = std::max(backoff_ms,
                            static_cast<double>(e.retry_after_ms));
      last_error = e.what();
      LCRS_DEBUG("edge attempt " << (attempt + 1) << "/"
                                 << retry_.max_attempts
                                 << " rejected busy: " << last_error);
    } catch (const ModelUnavailableError& e) {
      // Not a transport fault either: keep the connection and retry --
      // the model may finish rolling out within the deadline.
      model_unavailable_.add();
      last_error = e.what();
      LCRS_DEBUG("edge attempt " << (attempt + 1) << "/"
                                 << retry_.max_attempts
                                 << " model unavailable: " << last_error);
    } catch (const IoError& e) {
      // The cached connection may be dead or mid-frame desynced; never
      // reuse it -- the next attempt reconnects from scratch.
      conn_.reset();
      last_error = e.what();
      LCRS_DEBUG("edge attempt " << (attempt + 1) << "/"
                                 << retry_.max_attempts
                                 << " failed: " << last_error);
    }
  }

  if (!retry_.fallback_to_binary) {
    obs::flight_record_finish(trace_id, true, "client.error: " + last_error);
    throw IoError("edge completion failed after " +
                  std::to_string(retry_.max_attempts) +
                  " attempt(s): " + last_error);
  }

  // Graceful degradation (the availability edge over partition-only
  // baselines): answer with the binary branch even though its entropy
  // missed tau, and tag the result so callers can count degraded answers.
  exit_fallback_.add();
  core::record_exit_decision(core::ExitPoint::kBinaryBranchFallback, entropy);
  // Error-tagged so the degraded request lands in the flight recorder's
  // all-error retention set with its full timeline and failure reason.
  obs::flight_record_finish(trace_id, true, "client.fallback: " + last_error);
  LCRS_WARN("edge unreachable (" << last_error
                                 << "); falling back to binary branch");
  ClientResult r;
  r.label = argmax(probs);
  r.exit_point = core::ExitPoint::kBinaryBranchFallback;
  r.entropy = entropy;
  r.probabilities = probs;
  r.trace_id = trace_id;
  return r;
}

double BrowserClient::exit_fraction() const {
  const std::int64_t classified = requests_.value();
  return classified > 0 ? static_cast<double>(exit_binary_.value()) /
                              static_cast<double>(classified)
                        : 0.0;
}

}  // namespace lcrs::edge
