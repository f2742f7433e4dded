#include "cli/commands.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "abr/abr_factory.hpp"
#include "core/veritas.hpp"
#include "math/simd_kernels.hpp"
#include "net/network_path.hpp"
#include "query/counterfactual.hpp"
#include "service/veritas_service.hpp"
#include "sim/metrics.hpp"
#include "sim/session.hpp"
#include "trace/trace_generator.hpp"
#include "trace/trace_io.hpp"
#include "util/expects.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"
#include "video/ladder_presets.hpp"

namespace veritas::cli {

namespace {

void write_text_file(const std::filesystem::path& path,
                     const std::string& text) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write: " + path.string());
  out << text;
}

std::string read_text_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read: " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Reads a recorded session log; a log with no data rows is an error
/// here, naming the file, rather than deep in the model.
sim::SessionLog read_log(const std::string& path) {
  sim::SessionLog log = sim::session_log_from_csv(read_text_file(path));
  if (log.empty()) {
    throw std::runtime_error("session log has no data rows: " + path);
  }
  return log;
}

trace::TraceFamily family_from_name(const std::string& name) {
  using trace::TraceFamily;
  for (const auto family :
       {TraceFamily::kFccLike, TraceFamily::kPoor, TraceFamily::kGood,
        TraceFamily::kWideRange, TraceFamily::kSquareWave,
        TraceFamily::kConstant4}) {
    if (name == trace::family_name(family)) return family;
  }
  throw ContractViolation("unknown trace family: " + name);
}

video::Ladder ladder_from_name(const std::string& name) {
  if (name == "default") return video::default_ladder();
  if (name == "high") return video::high_ladder();
  throw ContractViolation("unknown ladder: " + name + " (default|high)");
}

/// The EHMM flags shared by infer and serve.
core::VeritasConfig config_from_flags(const CommandLine& cmd) {
  core::VeritasConfig cfg;
  cfg.num_samples = cmd.count("--samples", 5);
  cfg.delta_s = cmd.number("--delta", cfg.delta_s);
  cfg.epsilon_mbps = cmd.number("--epsilon", cfg.epsilon_mbps);
  cfg.sigma_mbps = cmd.number("--sigma", cfg.sigma_mbps);
  cfg.max_mbps = cmd.number("--max-mbps", cfg.max_mbps);
  cfg.seed = cmd.count("--seed", cfg.seed);
  return cfg;
}

int cmd_generate_trace(const CommandLine& cmd, std::ostream& out) {
  const auto family = family_from_name(cmd.get("--family", "fcc_like"));
  const std::uint64_t seed = cmd.count("--seed", 1);
  const std::string path = cmd.require("--out");
  const auto traces = trace::make_traces(family, 1, seed);
  trace::write_csv_file(traces[0], path);
  out << "wrote " << path << " (" << traces[0].windows() << " windows of "
      << traces[0].interval_s() << " s, mean "
      << traces[0].average_mbps(0.0, traces[0].duration_s()) << " Mbps)\n";
  return 0;
}

int cmd_simulate(const CommandLine& cmd, std::ostream& out) {
  const auto gtbw = trace::read_csv_file(cmd.require("--trace"));
  const std::string abr_name = cmd.get("--abr", "mpc");
  const double buffer_s = cmd.number("--buffer", 5.0);
  const double rtt_s = cmd.number("--rtt", 0.08);
  const std::uint64_t seed = cmd.count("--seed", 0);
  const std::string log_path = cmd.require("--out");

  video::VideoConfig vcfg = video::default_video_config();
  vcfg.ladder = ladder_from_name(cmd.get("--ladder", "default"));
  const video::Video video(vcfg);
  const auto abr = abr::make_abr(abr_name, seed);
  const net::NetworkPath path(gtbw, rtt_s);
  sim::SessionConfig session_config;
  session_config.buffer_capacity_s = buffer_s;
  const sim::SessionResult result =
      sim::run_session(video, *abr, path, session_config);
  write_text_file(log_path, sim::to_csv(result.log));

  const sim::QoeMetrics metrics = sim::compute_metrics(video, result);
  out << "wrote " << log_path << " (" << result.log.size() << " chunks)\n";
  out << "metrics: ssim=" << metrics.mean_ssim
      << " rebuffer_pct=" << metrics.rebuffer_ratio_pct
      << " avg_bitrate_mbps=" << metrics.avg_bitrate_mbps << "\n";
  return 0;
}

int cmd_infer(const CommandLine& cmd, std::ostream& out) {
  const sim::SessionLog log = read_log(cmd.require("--log"));
  const core::VeritasConfig cfg = config_from_flags(cmd);
  const std::string prefix = cmd.get("--out-prefix", "inferred");

  const core::Veritas veritas(cfg);
  const core::VeritasResult result = veritas.infer(log);
  trace::write_csv_file(result.map_trace, prefix + "_map.csv");
  trace::write_csv_file(veritas.baseline(log), prefix + "_baseline.csv");
  for (std::size_t k = 0; k < result.samples.size(); ++k) {
    trace::write_csv_file(result.samples[k],
                          prefix + "_sample" + std::to_string(k) + ".csv");
  }
  out << "log-likelihood: " << result.log_likelihood << "\n";
  out << "wrote " << prefix << "_map.csv, " << prefix << "_baseline.csv and "
      << result.samples.size() << " posterior samples\n";
  return 0;
}

int cmd_replay(const CommandLine& cmd, std::ostream& out) {
  const auto bandwidth = trace::read_csv_file(cmd.require("--trace"));
  query::Setting setting;
  setting.abr = cmd.get("--abr", "mpc");
  setting.buffer_capacity_s = cmd.number("--buffer", 5.0);
  const std::string ladder = cmd.get("--ladder", "default");
  if (ladder != "default") setting.ladder = ladder_from_name(ladder);

  const video::Video video(video::default_video_config());
  const sim::QoeMetrics metrics = query::run_under_setting(
      bandwidth, video, setting, cmd.number("--rtt", 0.08),
      cmd.count("--seed", 0));
  out << "replay: abr=" << setting.abr
      << " buffer=" << setting.buffer_capacity_s << "s ladder=" << ladder
      << "\n";
  out << "metrics: ssim=" << metrics.mean_ssim
      << " rebuffer_pct=" << metrics.rebuffer_ratio_pct
      << " avg_bitrate_mbps=" << metrics.avg_bitrate_mbps
      << " switches=" << metrics.quality_switches << "\n";
  return 0;
}

int cmd_whatif(const CommandLine& cmd, std::ostream& out) {
  const sim::SessionLog log = read_log(cmd.require("--log"));
  query::Setting setting;
  setting.abr = cmd.get("--abr", "mpc");
  setting.buffer_capacity_s = cmd.number("--buffer", 5.0);
  const std::string ladder = cmd.get("--ladder", "default");
  if (ladder != "default") setting.ladder = ladder_from_name(ladder);

  const video::Video video(video::default_video_config());
  core::VeritasConfig cfg;
  cfg.num_samples = cmd.count("--samples", 5);
  const query::CounterfactualEngine engine(cfg,
                                           cmd.number("--rtt", 0.08));
  const query::WhatIfPrediction p = engine.predict_whatif(
      log, video, setting, cmd.count("--seed", 0));

  out << "what-if: abr=" << setting.abr
      << " buffer=" << setting.buffer_capacity_s << "s ladder=" << ladder
      << " (" << p.veritas_samples.size() << " posterior samples)\n";
  out << "veritas ssim=[" << p.veritas_low.mean_ssim << ", "
      << p.veritas_high.mean_ssim << "] rebuffer_pct=["
      << p.veritas_low.rebuffer_ratio_pct << ", "
      << p.veritas_high.rebuffer_ratio_pct << "] bitrate=["
      << p.veritas_low.avg_bitrate_mbps << ", "
      << p.veritas_high.avg_bitrate_mbps << "]\n";
  out << "baseline (no causal adjustment): ssim=" << p.baseline.mean_ssim
      << " rebuffer_pct=" << p.baseline.rebuffer_ratio_pct
      << " bitrate=" << p.baseline.avg_bitrate_mbps << "\n";
  return 0;
}

int cmd_serve(const CommandLine& cmd, std::ostream& out) {
  // Load the workload: a comma-separated list of recorded session logs.
  std::vector<sim::SessionLog> logs;
  const std::string spec = cmd.require("--logs");
  for (std::size_t pos = 0; pos <= spec.size();) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string path = spec.substr(pos, comma - pos);
    if (!path.empty()) {
      logs.push_back(read_log(path));
    }
    pos = comma + 1;
  }
  VERITAS_EXPECTS(!logs.empty());

  service::ServiceOptions options;
  options.num_threads = cmd.count("--threads", 0);
  options.queue_capacity = cmd.count("--queue", 256);
  options.cache_capacity = cmd.count("--cache", 1024);
  // Observability sinks (PR 8): --metrics-out writes one Prometheus
  // text scrape after the run; --trace-out arms span tracing and writes
  // Chrome trace-event JSON (chrome://tracing / Perfetto); a nonzero
  // --slow-query-ms additionally retains and prints root spans at least
  // that long.
  const std::string metrics_out = cmd.get("--metrics-out", "");
  const std::string trace_out = cmd.get("--trace-out", "");
  const double slow_query_ms = cmd.number("--slow-query-ms", 0.0);
  const bool want_tracing = !trace_out.empty() || slow_query_ms > 0.0;
  if (want_tracing) {
    if (util::Tracer::kCompiledIn) {
      util::Tracer::clear();
      util::Tracer::set_slow_query_threshold_us(
          static_cast<std::uint64_t>(slow_query_ms * 1000.0));
      util::Tracer::set_enabled(true);
    } else {
      out << "tracing compiled out (-DVERITAS_TRACING=OFF): "
             "--trace-out/--slow-query-ms ignored\n";
    }
  }
  service::VeritasService service(options);
  const std::string shard = cmd.get("--shard", "default");
  service.add_shard(shard, config_from_flags(cmd));

  const std::uint64_t repeat =
      std::max<std::uint64_t>(1, cmd.count("--repeat", 2));
  out << "serving " << logs.size() << " sessions on shard '" << shard
      << "' over " << service.num_lanes() << " lanes, " << repeat
      << " rounds (kernels: " << math::simd_kernels::backend_name() << ")\n";
  for (std::uint64_t round = 0; round < repeat; ++round) {
    const auto start = std::chrono::steady_clock::now();
    auto futures = service.submit_batch(logs, shard);
    double total_ll = 0.0;
    std::uint64_t not_served = 0;
    for (auto& future : futures) {
      const Expected<service::InferenceResult> result = future.get();
      if (result.ok()) {
        total_ll += result.value().abduction->log_likelihood;
      } else {
        ++not_served;  // rejected / failed — counted, not fatal
      }
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    const service::ServiceStats stats = service.stats();
    out << "round " << round << ": wall_ms=" << wall_ms
        << " total_log_likelihood=" << total_ll
        << " cache_hits=" << stats.cache_hits
        << " cache_misses=" << stats.cache_misses;
    if (not_served > 0) out << " not_served=" << not_served;
    out << "\n";
  }
  // The outcomes from `rejected` on, as `name=value`, in table order.
  const auto outcome_run = [&out](const service::OutcomeCounts& counts) {
    for (const service::OutcomeRow& row : service::kOutcomeTable) {
      if (row.outcome < service::Outcome::kRejected) continue;
      out << ' ' << row.name << '=' << counts.*row.field;
    }
  };
  const service::ServiceStats stats = service.stats();
  out << "served " << stats.submitted << " queries (" << stats.computed
      << " computed, " << stats.cache_hits << " from cache)";
  outcome_run(stats);
  out << " queue_depth=" << stats.queue_depth
      << (stats.reconciled() ? "" : " [counters NOT reconciled]") << "\n";
  for (const service::ShardStats& s : service.shard_stats()) {
    out << "shard '" << s.name << "' epoch=" << s.epoch
        << " submitted=" << s.submitted << " computed=" << s.computed
        << " hits=" << s.cache_hits << " misses=" << s.cache_misses;
    outcome_run(s);
    out << " latency_us(p50/p95/p99)=" << s.latency_p50_us << "/"
        << s.latency_p95_us << "/" << s.latency_p99_us << " (n="
        << s.latency_count << ")\n";
  }
  if (want_tracing && util::Tracer::kCompiledIn) {
    util::Tracer::set_enabled(false);
    if (!trace_out.empty()) {
      write_text_file(trace_out, util::Tracer::chrome_trace_json());
      out << "wrote trace (" << util::Tracer::events().size() << " spans, "
          << util::Tracer::dropped() << " dropped) to " << trace_out << "\n";
    }
    if (slow_query_ms > 0.0) out << util::Tracer::slow_query_log();
  }
  if (!metrics_out.empty()) {
    // Scraped while the service is alive: the registry callbacks borrow
    // its counters.
    util::MetricsRegistry registry;
    service.register_metrics(registry);
    write_text_file(metrics_out, registry.expose());
    out << "wrote metrics (" << registry.families() << " families) to "
        << metrics_out << "\n";
  }
  return 0;
}

int cmd_predict(const CommandLine& cmd, std::ostream& out) {
  const sim::SessionLog log = read_log(cmd.require("--log"));
  const double size = cmd.number("--size", 0.0);
  VERITAS_EXPECTS(size > 0.0);

  const core::Veritas veritas;
  const auto& last = log.chunks.back();
  // Hypothetical next chunk right after the last recorded one.
  const double next_start = last.end_s + 0.1;
  net::TcpState w = last.tcp_at_start;
  w.last_send_gap_s = 0.1;
  const auto dist =
      veritas.predict_next_distribution(log, next_start, w, size);
  const auto point = veritas.predict_next(log, next_start, w, size);

  out << "next chunk of " << size << " bytes at t=" << next_start << " s\n";
  out << "expected GTBW: " << point.expected_gtbw_mbps << " Mbps\n";
  out << "download time: point=" << point.download_time_s
      << " s; quantiles p10=" << dist.time_quantile_s(0.10)
      << " p50=" << dist.time_quantile_s(0.50)
      << " p90=" << dist.time_quantile_s(0.90) << " s\n";
  return 0;
}

/// One `--key VALUE` a command reads; `value` names the value in usage().
struct Option {
  std::string_view key;
  std::string_view value;
  bool required = false;
};

/// A subcommand: the options it reads (any other is rejected before it
/// runs, and usage() lists exactly these) and an optional usage note.
struct Command {
  std::string_view name;
  int (*run)(const CommandLine&, std::ostream&);
  std::vector<Option> options;
  std::string_view note;
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = [] {
    // The EHMM options config_from_flags reads, shared by infer and serve.
    const auto with_ehmm = [](std::vector<Option> options) {
      options.insert(options.end(), {{"--samples", "K"},
                                     {"--delta", "S"},
                                     {"--epsilon", "MBPS"},
                                     {"--sigma", "MBPS"},
                                     {"--max-mbps", "MBPS"},
                                     {"--seed", "N"}});
      return options;
    };
    return std::vector<Command>{
        {"generate-trace",
         cmd_generate_trace,
         {{"--out", "FILE", true},
          {"--family",
           "fcc_like|poor|good|wide_range|square_wave|constant_4"},
          {"--seed", "N"}},
         ""},
        {"simulate",
         cmd_simulate,
         {{"--trace", "FILE", true},
          {"--out", "LOG", true},
          {"--abr", "mpc|bba|bola|rate_based|random|fixed:K"},
          {"--buffer", "S"},
          {"--rtt", "S"},
          {"--ladder", "default|high"},
          {"--seed", "N"}},
         ""},
        {"infer",
         cmd_infer,
         with_ehmm({{"--log", "LOG", true}, {"--out-prefix", "P"}}),
         ""},
        {"replay",
         cmd_replay,
         {{"--trace", "FILE", true},
          {"--abr", "NAME"},
          {"--buffer", "S"},
          {"--ladder", "NAME"},
          {"--rtt", "S"},
          {"--seed", "N"}},
         ""},
        {"whatif",
         cmd_whatif,
         {{"--log", "LOG", true},
          {"--abr", "NAME"},
          {"--buffer", "S"},
          {"--ladder", "NAME"},
          {"--samples", "K"},
          {"--rtt", "S"},
          {"--seed", "N"}},
         "(production what-if: no ground truth)"},
        {"predict",
         cmd_predict,
         {{"--log", "LOG", true}, {"--size", "BYTES", true}},
         ""},
        {"serve",
         cmd_serve,
         with_ehmm({{"--logs", "LOG[,LOG...]", true},
                    {"--repeat", "R"},
                    {"--threads", "N"},
                    {"--shard", "NAME"},
                    {"--queue", "N"},
                    {"--cache", "N"},
                    {"--metrics-out", "FILE"},
                    {"--trace-out", "FILE"},
                    {"--slow-query-ms", "MS"}}),
         "(async shard service; repeat rounds show the cache; metrics-out "
         "writes a Prometheus scrape, trace-out a Chrome trace JSON — "
         "needs -DVERITAS_TRACING=ON)"},
    };
  }();
  return table;
}

}  // namespace

std::string CommandLine::get(const std::string& key,
                             const std::string& fallback) const {
  const auto it = options.find(key);
  return it == options.end() ? fallback : it->second;
}

double CommandLine::number(const std::string& key, double fallback) const {
  const auto it = options.find(key);
  if (it == options.end()) return fallback;
  double value = 0.0;
  const std::string& text = it->second;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw ContractViolation("option " + key + " is not a number: " + text);
  }
  return value;
}

std::uint64_t CommandLine::count(const std::string& key,
                                 std::uint64_t fallback) const {
  const auto it = options.find(key);
  if (it == options.end()) return fallback;
  std::uint64_t value = 0;
  const std::string& text = it->second;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw ContractViolation("option " + key +
                            " is not a non-negative integer: " + text);
  }
  return value;
}

std::string CommandLine::require(const std::string& key) const {
  const auto it = options.find(key);
  if (it == options.end()) {
    throw ContractViolation("missing required option " + key);
  }
  return it->second;
}

CommandLine parse_command_line(std::span<const std::string> args) {
  VERITAS_EXPECTS(!args.empty());
  CommandLine cmd;
  cmd.command = args[0];
  for (std::size_t i = 1; i < args.size(); i += 2) {
    const std::string& key = args[i];
    if (key.rfind("--", 0) != 0) {
      throw ContractViolation("expected --option, got: " + key);
    }
    if (i + 1 >= args.size()) {
      throw ContractViolation("option " + key + " is missing a value");
    }
    cmd.options[key] = args[i + 1];
  }
  return cmd;
}

std::string usage() {
  // Each command's options, then its note on a new line, word-wrapped
  // into a column that starts after the command name.
  constexpr std::size_t kIndent = 18, kWidth = 78;
  std::string text =
      "veritas <command> [--option value ...]\n\ncommands:\n";
  for (const Command& command : commands()) {
    std::string line = "  " + std::string(command.name);
    line.resize(kIndent - 1, ' ');
    const auto flush = [&] {
      text += line + "\n";
      line.assign(kIndent - 1, ' ');
    };
    const auto add = [&](const std::string& word) {
      if (line.size() >= kIndent && line.size() + 1 + word.size() > kWidth) {
        flush();
      }
      line += ' ' + word;
    };
    for (const Option& option : command.options) {
      const std::string word =
          std::string(option.key) + " " + std::string(option.value);
      add(option.required ? word : "[" + word + "]");
    }
    if (!command.note.empty()) {
      flush();
      std::istringstream note{std::string(command.note)};
      for (std::string word; note >> word;) add(word);
    }
    flush();
  }
  return text;
}

int run_cli(std::span<const std::string> args, std::ostream& out,
            std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << usage();
    return args.empty() ? 2 : 0;
  }
  try {
    const CommandLine cmd = parse_command_line(args);
    const auto& table = commands();
    const auto command =
        std::find_if(table.begin(), table.end(), [&](const Command& c) {
          return c.name == cmd.command;
        });
    if (command == table.end()) {
      err << "unknown command: " << cmd.command << "\n" << usage();
      return 2;
    }
    // A typo or a removed flag fails here, before any work is done.
    for (const auto& [key, value] : cmd.options) {
      const bool known = std::any_of(
          command->options.begin(), command->options.end(),
          [&key](const Option& option) { return option.key == key; });
      if (!known) {
        throw ContractViolation("unknown option " + key + " for " +
                                cmd.command);
      }
    }
    return command->run(cmd, out);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace veritas::cli
