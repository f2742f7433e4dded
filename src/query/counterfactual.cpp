#include "query/counterfactual.hpp"

#include <algorithm>
#include <optional>

#include "abr/abr_factory.hpp"
#include "core/baseline.hpp"
#include "net/network_path.hpp"
#include "service/veritas_service.hpp"
#include "sim/session.hpp"
#include "util/expects.hpp"

namespace veritas::query {

namespace {

/// Order statistic across sample metrics, applied field-by-field.
sim::QoeMetrics metric_order_statistic(
    const std::vector<sim::QoeMetrics>& samples, bool second_highest) {
  VERITAS_EXPECTS(!samples.empty());
  auto pick = [&](auto accessor) {
    std::vector<double> values;
    values.reserve(samples.size());
    for (const auto& m : samples) values.push_back(accessor(m));
    std::sort(values.begin(), values.end());
    if (values.size() < 3) {
      return second_highest ? values.back() : values.front();
    }
    // 2nd-lowest / 2nd-highest (paper §4.3 with K = 5 samples).
    return second_highest ? values[values.size() - 2] : values[1];
  };
  sim::QoeMetrics out;
  out.mean_ssim = pick([](const auto& m) { return m.mean_ssim; });
  out.mean_ssim_db = pick([](const auto& m) { return m.mean_ssim_db; });
  out.rebuffer_ratio_pct =
      pick([](const auto& m) { return m.rebuffer_ratio_pct; });
  out.avg_bitrate_mbps =
      pick([](const auto& m) { return m.avg_bitrate_mbps; });
  out.startup_delay_s = pick([](const auto& m) { return m.startup_delay_s; });
  out.quality_switches = static_cast<std::size_t>(
      pick([](const auto& m) { return double(m.quality_switches); }));
  return out;
}

/// The video a setting streams: `video` itself when the setting keeps
/// its ladder, else a re-laddered copy built into `storage`.
const video::Video& setting_video(const video::Video& video,
                                  const Setting& setting,
                                  std::optional<video::Video>& storage) {
  if (setting.ladder.empty()) return video;
  return storage.emplace(video.with_ladder(setting.ladder));
}

/// run_under_setting on a video that already carries the setting's ladder.
sim::QoeMetrics replay(const trace::BandwidthTrace& bandwidth,
                       const video::Video& replay_video,
                       const Setting& setting, double rtt_s,
                       std::uint64_t seed) {
  const net::NetworkPath path(bandwidth, rtt_s);
  const auto abr = abr::make_abr(setting.abr, seed);
  sim::SessionConfig session_config;
  session_config.buffer_capacity_s = setting.buffer_capacity_s;
  const sim::SessionResult result =
      sim::run_session(replay_video, *abr, path, session_config);
  return sim::compute_metrics(replay_video, result);
}

}  // namespace

sim::QoeMetrics run_under_setting(const trace::BandwidthTrace& bandwidth,
                                  const video::Video& video,
                                  const Setting& setting, double rtt_s,
                                  std::uint64_t seed) {
  std::optional<video::Video> relaid;
  return replay(bandwidth, setting_video(video, setting, relaid), setting,
                rtt_s, seed);
}

CounterfactualEngine::CounterfactualEngine(core::VeritasConfig veritas_config,
                                           double rtt_s)
    : veritas_config_(veritas_config), rtt_s_(rtt_s) {
  VERITAS_EXPECTS(rtt_s > 0.0);
}

CounterfactualEngine::CounterfactualEngine(
    std::shared_ptr<service::VeritasService> service, std::string shard,
    double rtt_s)
    : rtt_s_(rtt_s), service_(std::move(service)), shard_(std::move(shard)) {
  VERITAS_EXPECTS(rtt_s > 0.0);
  VERITAS_EXPECTS(service_ != nullptr);
  // Snapshot for veritas_config(); abduction always resolves the shard's
  // live engine, so a later swap_shard takes effect on the next query.
  veritas_config_ = service_->shard_engine(shard_)->config();
}

std::shared_ptr<const core::VeritasResult> CounterfactualEngine::abduct(
    const sim::SessionLog& log, std::uint64_t seed) const {
  if (service_) {
    service::Query query;
    query.log = log;
    query.shard = shard_;
    query.kind = service::QueryKind::kAbduction;
    // Same sampling stream as the local path: config seed xor caller
    // seed — distinct per session, still deterministic and cacheable.
    // seed_xor resolves against the shard the service pins at submit,
    // so a concurrent swap can't mix one config's seed with another's
    // engine.
    query.seed_xor = seed;
    // value() throws ContractViolation with the status text if the
    // service rejected or failed the query — counterfactual studies
    // need every abduction, so an error here is not recoverable.
    return service_->submit(std::move(query)).get().value().abduction;
  }
  core::VeritasConfig cfg = veritas_config_;
  cfg.seed ^= seed;
  return std::make_shared<const core::VeritasResult>(
      core::Veritas(cfg).infer(log));
}

WhatIfPrediction CounterfactualEngine::predict_whatif(
    const sim::SessionLog& log, const video::Video& video,
    const Setting& setting_b, std::uint64_t seed) const {
  // Abduction from the log alone (no ground truth)...
  const std::shared_ptr<const core::VeritasResult> inference_ptr =
      abduct(log, seed);
  const core::VeritasResult& inference = *inference_ptr;
  const trace::BandwidthTrace baseline = core::baseline_trace(log);

  // ...then replay Setting B under each bandwidth hypothesis, on one
  // Setting B video built for the whole query.
  std::optional<video::Video> relaid;
  const video::Video& video_b = setting_video(video, setting_b, relaid);
  WhatIfPrediction prediction;
  prediction.baseline = replay(baseline, video_b, setting_b, rtt_s_, seed);
  prediction.veritas_samples.reserve(inference.samples.size());
  for (const trace::BandwidthTrace& sample : inference.samples) {
    prediction.veritas_samples.push_back(
        replay(sample, video_b, setting_b, rtt_s_, seed));
  }
  prediction.veritas_low =
      metric_order_statistic(prediction.veritas_samples, false);
  prediction.veritas_high =
      metric_order_statistic(prediction.veritas_samples, true);
  return prediction;
}

CounterfactualOutcome CounterfactualEngine::evaluate(
    const trace::BandwidthTrace& gt_trace, const video::Video& video,
    const Setting& setting_a, const Setting& setting_b,
    std::uint64_t seed) const {
  CounterfactualOutcome outcome;

  // 1. Deploy Setting A on the ground truth; keep its log.
  std::optional<video::Video> relaid;
  const video::Video& video_a = setting_video(video, setting_a, relaid);
  const net::NetworkPath path_a(gt_trace, rtt_s_);
  const auto abr_a = abr::make_abr(setting_a.abr, seed);
  sim::SessionConfig session_a;
  session_a.buffer_capacity_s = setting_a.buffer_capacity_s;
  const sim::SessionResult deployed =
      sim::run_session(video_a, *abr_a, path_a, session_a);
  outcome.setting_a = sim::compute_metrics(video_a, deployed);

  // 2-5. The operator-side pipeline on the log, plus the oracle answer
  // only an emulation study can compute.
  WhatIfPrediction prediction =
      predict_whatif(deployed.log, video, setting_b, seed);
  outcome.baseline = prediction.baseline;
  outcome.veritas_samples = std::move(prediction.veritas_samples);
  outcome.veritas_low = prediction.veritas_low;
  outcome.veritas_high = prediction.veritas_high;
  outcome.actual = run_under_setting(gt_trace, video, setting_b, rtt_s_, seed);
  return outcome;
}

}  // namespace veritas::query
