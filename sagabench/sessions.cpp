// ServeSession and StreamSession: the serve and stream protocols shared by
// untraced repetitions and traced sections (a null Tracer records nothing).
#include <algorithm>
#include <array>
#include <stdexcept>
#include <thread>

#include "data/preprocess.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace sagabench {

using namespace saga;

// ---- serve ------------------------------------------------------------------

ServeSession::ServeSession(const std::string& dir, quant::Precision precision)
    : tag_(quant::precision_name(precision)),
      artifact_(serve::Artifact::load(dir + "/" + tag_ + ".artifact")),
      windows_(load_windows(dir + "/test.windows")),
      reference_(direct_logits(artifact_, windows_.values.data(), windows_.count)) {
  engine_ = std::make_unique<serve::Engine>(serve::Artifact(artifact_));
}

void ServeSession::check(Result& result, std::int64_t window,
                         const serve::Prediction& prediction) const {
  const auto& reference = reference_[static_cast<std::size_t>(window)];
  result.check(same_bits(prediction.logits, reference) &&
                   prediction.label == argmax(reference),
               std::string(tag_) + " Engine prediction of test window " +
                   std::to_string(window) + " differs from the direct forward");
}

void ServeSession::warm_up(Result& result) {
  Result scratch;
  round(scratch, kServeWarmSingles, nullptr);
  for (const auto& error : scratch.errors) result.check(false, error);
}

void ServeSession::round(Result& result, int singles, Tracer* tracer) {
  const std::int64_t n = windows_.count;
  auto& latency = result.samples["latency_ms"];
  for (int s = 0; s < singles; ++s) {
    const auto window = static_cast<std::int64_t>(cursor_++ % static_cast<std::size_t>(n));
    const auto start = Clock::now();
    serve::Prediction prediction;
    {
      Tracer::Scope span(tracer, "serve.predict", ++next_request_);
      prediction = engine_->predict(windows_.view(window));
    }
    latency.push_back(ms_since(start));
    check(result, window, prediction);
    ++result.ops;
  }

  // Bulk burst from this thread: no deadline, so the dispatcher may coalesce
  // full batches. Spans of one request (submit, get) share its id.
  serve::RequestOptions bulk;
  bulk.priority = serve::Priority::kBulk;
  std::vector<serve::ResponseHandle> handles;
  handles.reserve(static_cast<std::size_t>(n));
  const std::uint64_t first_id = next_request_ + 1;
  const auto start = Clock::now();
  for (std::int64_t i = 0; i < n; ++i) {
    Tracer::Scope span(tracer, "serve.submit", ++next_request_);
    handles.push_back(engine_->submit(windows_.view(i), bulk));
  }
  std::int64_t completed = 0;
  auto& request_ms = result.samples["serve.request_ms"];
  for (std::int64_t i = 0; i < n; ++i) {
    auto& handle = handles[static_cast<std::size_t>(i)];
    serve::Prediction prediction;
    {
      Tracer::Scope span(tracer, "serve.get", first_id + static_cast<std::uint64_t>(i));
      prediction = handle.get();
    }
    ++completed;
    request_ms.push_back(handle.latency_ms());
    check(result, i, prediction);
  }
  result.samples["windows_per_s"].push_back(static_cast<double>(n) / seconds_since(start));
  result.check(completed == n, "burst completed fewer requests than submitted");
  result.ops += n;
}

void check_quant_gate(const std::string& dir, Result& result) {
  const Windows windows = load_windows(dir + "/test.windows");
  std::array<std::int64_t, 2> hits{0, 0};
  const std::array<const char*, 2> names{"fp32", "int8"};
  for (std::size_t p = 0; p < names.size(); ++p) {
    const auto artifact = serve::Artifact::load(dir + "/" + names[p] + ".artifact");
    const auto logits = direct_logits(artifact, windows.values.data(), windows.count);
    for (std::size_t i = 0; i < logits.size(); ++i) {
      hits[p] += argmax(logits[i]) == windows.labels[i] ? 1 : 0;
    }
  }
  const double n = static_cast<double>(windows.count);
  const double fp32 = 100.0 * static_cast<double>(hits[0]) / n;
  const double int8 = 100.0 * static_cast<double>(hits[1]) / n;
  const double gate = std::max(kQuantGatePoints, 100.0 / n);
  result.values["gate.fp32_accuracy_pt"] = fp32;
  result.values["gate.int8_accuracy_pt"] = int8;
  result.op_check(int8 >= fp32 - gate,
                  "quant gate: int8 test accuracy " + std::to_string(int8) +
                      " pt is below fp32 " + std::to_string(fp32) +
                      " pt by more than " + std::to_string(gate) + " pt");
}

// ---- stream -----------------------------------------------------------------

namespace {

std::string session_id(std::size_t s) { return "user-" + std::to_string(s); }

/// A user's 100 Hz trace: segments of kStreamSegmentWindows test windows of
/// one activity, the next segment always another activity. Each 20 Hz sample
/// is held for five 100 Hz samples and the accelerometer axes are scaled
/// back to m/s^2, so preprocess_window recovers windows the model was
/// fitted on and the Composer sees activity changes.
stream::ReplayTrace make_trace(const Windows& windows, std::size_t session,
                               std::uint64_t seed, std::size_t samples) {
  util::Rng rng(seed * 1000003ULL + session);
  stream::ReplayTrace trace;
  trace.session = session_id(session);
  std::int32_t activity = -1;
  while (trace.samples.size() < samples) {
    std::int32_t next = activity;
    std::int64_t pick = 0;
    while (next == activity) {
      pick = rng.uniform_int(0, windows.count - 1);
      next = windows.labels[static_cast<std::size_t>(pick)];
    }
    activity = next;
    for (std::int64_t w = 0; w < kStreamSegmentWindows; ++w) {
      while (windows.labels[static_cast<std::size_t>(pick)] != activity) {
        pick = rng.uniform_int(0, windows.count - 1);
      }
      const auto values = windows.view(pick);
      for (std::int64_t t = 0; t < windows.length; ++t) {
        stream::Sample sample;
        for (std::int64_t c = 0; c < stream::kStreamChannels; ++c) {
          const float v = values[static_cast<std::size_t>(t * windows.channels + c)];
          sample.v[static_cast<std::size_t>(c)] =
              c < 3 ? static_cast<float>(v * 9.80665) : v;
        }
        for (int k = 0; k < 5 && trace.samples.size() < samples; ++k) {
          sample.ts_us = static_cast<std::int64_t>(trace.samples.size()) * 10000;
          trace.samples.push_back(sample);
        }
      }
      pick = rng.uniform_int(0, windows.count - 1);
    }
  }
  return trace;
}

bool same_event(const stream::Event& a, const stream::Event& b) {
  return a.kind == b.kind && a.label == b.label && a.name == b.name &&
         a.start_ts_us == b.start_ts_us && a.end_ts_us == b.end_ts_us &&
         a.windows == b.windows;
}

}  // namespace

StreamSession::StreamSession(const std::string& dir, std::uint64_t seed,
                             std::int64_t sessions)
    : artifact_(serve::Artifact::load(dir + "/fp32.artifact")) {
  const auto samples = static_cast<std::size_t>(kStreamSeconds * 100.0);
  config_.session.window_length = artifact_.window_length();
  config_.session.hop = artifact_.window_length() / 2;
  config_.session.source_rate_hz = 100.0;
  config_.session.target_hz = 20.0;
  // Sized so that nothing is shed: a ring holds a whole trace, the pending
  // queue every window of it, and no deadline makes a request hopeless.
  config_.session.ring_capacity = samples;
  config_.max_pending_windows = samples;
  config_.deadline = std::chrono::microseconds{0};

  const stream::Session probe("", config_.session);
  raw_window_ = probe.raw_window();
  raw_hop_ = probe.raw_hop();

  const Windows windows = load_windows(dir + "/test.windows");
  for (std::int64_t s = 0; s < sessions; ++s) {
    traces_.push_back(make_trace(windows, static_cast<std::size_t>(s), seed, samples));
  }
  for (std::size_t s = 0; s < traces_.size(); ++s) {
    std::vector<float> model_inputs;
    std::vector<std::pair<std::int64_t, std::int64_t>> spans;
    const auto raw = raw_windows(s);
    for (std::size_t w = 0; w < raw.size(); ++w) {
      const auto window = data::preprocess_window(raw[w], stream::kStreamChannels,
                                                  config_.session.source_rate_hz,
                                                  config_.session.target_hz, config_.g);
      model_inputs.insert(model_inputs.end(), window.begin(), window.end());
      const auto first = static_cast<std::size_t>(w) * static_cast<std::size_t>(raw_hop_);
      spans.emplace_back(traces_[s].samples[first].ts_us,
                         traces_[s].samples[first + static_cast<std::size_t>(raw_window_) - 1].ts_us);
    }
    logits_.push_back(direct_logits(artifact_, model_inputs.data(),
                                    static_cast<std::int64_t>(raw.size())));
    // The Composer emits an event only when a later window confirms the next
    // segment, so each event's lag is timed from the last sample of the
    // window that triggered it (the trace's last sample for the flush).
    stream::Composer composer(config_.composer);
    std::vector<stream::Event> events;
    std::vector<std::size_t> triggers;
    for (std::size_t w = 0; w < raw.size(); ++w) {
      const auto& logits = logits_.back()[w];
      auto out = composer.push(argmax(logits), logits, spans[w].first, spans[w].second);
      events.insert(events.end(), out.begin(), out.end());
      const std::size_t last = w * static_cast<std::size_t>(raw_hop_) +
                               static_cast<std::size_t>(raw_window_) - 1;
      triggers.insert(triggers.end(), out.size(), last);
    }
    auto tail = composer.flush();
    events.insert(events.end(), tail.begin(), tail.end());
    triggers.insert(triggers.end(), tail.size(), samples - 1);
    expected_.push_back(std::move(events));
    trigger_sample_.push_back(std::move(triggers));
  }

  serve::RouterConfig router_config;
  router_config.shards = 2;
  router_config.engine.max_queue_depth = 1 << 16;
  router_config.engine.deadline_admission = false;
  router_ = std::make_unique<serve::Router>(artifact_, router_config);
}

std::vector<std::vector<float>> StreamSession::raw_windows(std::size_t session) const {
  const auto& samples = traces_[session].samples;
  std::vector<std::vector<float>> windows;
  for (std::size_t first = 0;
       first + static_cast<std::size_t>(raw_window_) <= samples.size();
       first += static_cast<std::size_t>(raw_hop_)) {
    std::vector<float> raw;
    raw.reserve(static_cast<std::size_t>(raw_window_ * stream::kStreamChannels));
    for (std::size_t i = first; i < first + static_cast<std::size_t>(raw_window_); ++i) {
      raw.insert(raw.end(), samples[i].v.begin(), samples[i].v.end());
    }
    windows.push_back(std::move(raw));
  }
  return windows;
}

void StreamSession::round(Result& result, Tracer* tracer, double speed) {
  stream::SessionManager manager(*router_, config_);
  std::vector<stream::Session*> sessions;
  for (std::size_t s = 0; s < traces_.size(); ++s) {
    sessions.push_back(&manager.open(session_id(s)));
  }
  const std::size_t length = traces_.front().samples.size();
  const auto chunk = static_cast<std::size_t>(kStreamChunk);
  // When each chunk of samples was due: on a paced round its last sample's
  // trace time scaled by `speed` (an open loop), otherwise when it went in.
  std::vector<Clock::time_point> chunk_due;
  double late_ms = 0.0;

  const auto start = Clock::now();
  bool accepted = true;
  for (std::size_t offset = 0; offset < length; offset += chunk) {
    const std::size_t end = std::min(length, offset + chunk);
    if (speed > 0.0) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double, std::micro>(
                                       static_cast<double>(traces_.front().samples[end - 1].ts_us) /
                                       speed));
      std::this_thread::sleep_until(due);
      late_ms = std::max(late_ms, std::chrono::duration<double, std::milli>(
                                      Clock::now() - due).count());
      chunk_due.push_back(due);
    }
    {
      Tracer::Scope span(tracer, "stream.push_chunk");
      for (std::size_t s = 0; s < sessions.size(); ++s) {
        for (std::size_t i = offset; i < end; ++i) {
          accepted = sessions[s]->push(traces_[s].samples[i]) && accepted;
        }
      }
    }
    if (speed <= 0.0) chunk_due.push_back(Clock::now());
  }
  {
    Tracer::Scope span(tracer, "stream.finish");
    for (std::size_t s = 0; s < sessions.size(); ++s) manager.finish(session_id(s));
  }
  if (speed > 0.0) result.samples["stream.generator_late_ms"].push_back(late_ms);

  Clock::time_point last_event = start;
  std::uint64_t expected_windows = 0;
  bool events_match = true;
  bool sealed_match = true;
  std::vector<double> lag;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    const auto events = manager.take_events(session_id(s));
    const auto& expected = expected_[s];
    events_match = events_match && events.size() == expected.size() &&
                   std::equal(events.begin(), events.end(), expected.begin(), same_event);
    for (std::size_t e = 0; e < events.size(); ++e) {
      last_event = std::max(last_event, events[e].emitted);
      if (e >= trigger_sample_[s].size()) continue;  // a mismatch, reported below
      // Event lag: from when the triggering sample was due to the emission.
      const auto& due = chunk_due[trigger_sample_[s][e] / chunk];
      lag.push_back(
          std::chrono::duration<double, std::milli>(events[e].emitted - due).count());
    }
    const std::uint64_t windows = logits_[s].size();
    expected_windows += windows;
    sealed_match = sealed_match && manager.session_stats(session_id(s)).windows_sealed == windows;
  }
  if (speed > 0.0) {
    auto& all = result.samples["latency_ms"];
    all.insert(all.end(), lag.begin(), lag.end());
  } else {
    const double seconds = std::chrono::duration<double>(last_event - start).count();
    result.samples["windows_per_s"].push_back(static_cast<double>(expected_windows) /
                                              seconds);
    auto& all = result.samples["stream.backlog_lag_ms"];
    all.insert(all.end(), lag.begin(), lag.end());
  }

  const stream::ManagerStats stats = manager.stats();
  result.check(accepted, "a session ring refused a sample");
  result.check(sealed_match, "windows sealed per session differ from trace length / hop");
  result.check(stats.windows_sealed == expected_windows &&
                   stats.windows_completed == stats.windows_sealed,
               "sealed " + std::to_string(stats.windows_sealed) + ", completed " +
                   std::to_string(stats.windows_completed) + ", expected " +
                   std::to_string(expected_windows));
  result.check(stats.windows_dropped == 0 && stats.samples_dropped == 0,
               "stream dropped " + std::to_string(stats.windows_dropped) + " windows");
  result.check(events_match, "session events differ from the offline Composer");
  result.values["stream.windows_sealed"] += static_cast<double>(stats.windows_sealed);
  result.ops += static_cast<std::int64_t>(expected_windows);
}

}  // namespace sagabench
