// gfor14-audit — offline inspection of flight recordings and bench
// artifacts (DESIGN.md §10).
//
//   gfor14-audit matrix     RECORDING        per-party communication matrix
//   gfor14-audit timeline   RECORDING        per-round event timeline
//   gfor14-audit blame      RECORDING        blame & fault attribution
//   gfor14-audit info       RECORDING        header: provenance + config
//   gfor14-audit diff       RECORDING_A RECORDING_B
//                                            first divergence between two
//                                            recordings (exit 3 if any)
//   gfor14-audit bench-diff BASELINE.json CANDIDATE.json [--threshold PCT]
//                           [--gate KEY=PCT,...]
//                                            numeric regression diff between
//                                            two BENCH_*.json artifacts
//                                            (exit 3 on regressions; with
//                                            --gate, only gated keys block)
//   gfor14-audit top        TELEMETRY.json   resource view over a telemetry
//                                            document (counters with rates,
//                                            RSS, round wall, engine SLO
//                                            health)
//   gfor14-audit critpath   RECORDING [--wall]
//                                            per-round critical path (the
//                                            heaviest party's compute+send
//                                            chain) + phase attribution
//                                            (logical weights; --wall adds
//                                            recorded wall columns). Exit 1
//                                            on a malformed recording.
//   gfor14-audit waterfall  RECORDING [--width N]
//                                            per-round latency waterfall:
//                                            recorded round wall split across
//                                            the round's critical segments
//
// Exit codes: 0 clean, 1 unreadable input or malformed recording, 2
// usage, 3 divergence or regression found. Recordings come from
// `gfor14_cli ... --record PATH` or the test harnesses; bench artifacts
// from the bench/ binaries; telemetry documents from
// `gfor14_cli ... --telemetry PATH` or the `telemetry` block of a schema-3
// bench artifact.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "audit/bench_diff.hpp"
#include "audit/critpath.hpp"
#include "audit/replay.hpp"
#include "audit/report.hpp"
#include "common/json.hpp"
#include "net/recorder.hpp"
#include "strict_number.hpp"

using namespace gfor14;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: gfor14-audit <matrix|timeline|blame|info> RECORDING\n"
      "       gfor14-audit diff RECORDING_A RECORDING_B\n"
      "       gfor14-audit bench-diff BASELINE.json CANDIDATE.json"
      " [--threshold PCT] [--gate KEY=PCT,...] [--max KEY=VALUE,...]\n"
      "       gfor14-audit top TELEMETRY.json\n"
      "       gfor14-audit critpath RECORDING [--wall]\n"
      "       gfor14-audit waterfall RECORDING [--width N]\n");
  return 2;
}

std::optional<net::Recording> load_recording(const std::string& path) {
  std::string error;
  auto rec = net::Recording::load(path, &error);
  if (!rec)
    std::fprintf(stderr, "cannot load recording '%s': %s\n", path.c_str(),
                 error.c_str());
  return rec;
}

std::optional<json::Value> load_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto v = json::Value::parse(buf.str());
  if (!v) std::fprintf(stderr, "'%s' is not valid JSON\n", path.c_str());
  return v;
}

int run_render(const std::string& view, const std::string& path) {
  const auto rec = load_recording(path);
  if (!rec) return 1;
  if (view == "matrix") {
    std::printf("%s", audit::render_matrix(*rec).c_str());
  } else if (view == "timeline") {
    std::printf("%s", audit::render_timeline(*rec).c_str());
  } else if (view == "blame") {
    std::printf("%s", audit::render_attribution(*rec).c_str());
  } else {  // info
    std::printf("format: %s v%zu, n=%zu, %zu rounds, fidelity=%s\n",
                net::Recording::kFormat, net::Recording::kVersion, rec->n,
                rec->rounds.size(), rec->fidelity());
    std::printf("final digest: %s\n",
                net::hex_u64(rec->final_digest).c_str());
    std::printf("provenance: %s\n", rec->provenance.dump(2).c_str());
    std::printf("config: %s\n", rec->config.dump(2).c_str());
  }
  return 0;
}

int run_diff(const std::string& a_path, const std::string& b_path) {
  const auto a = load_recording(a_path);
  const auto b = load_recording(b_path);
  if (!a || !b) return 1;
  if (const auto d = audit::first_divergence(*a, *b)) {
    std::printf("DIVERGED: %s\n", d->format().c_str());
    return 3;
  }
  std::printf("identical: %zu rounds, final digest %s\n", a->rounds.size(),
              net::hex_u64(a->final_digest).c_str());
  return 0;
}

/// A "KEY=NUMBER[,KEY=NUMBER...]" flag: --gate ("net.alloc.bytes=25",
/// positive percent) or --max ("wall_ms=2000", absolute). Appends one
/// {key, number / divisor} per pair.
template <typename Spec>
FlagHandler key_values_flag(std::vector<Spec>& out, double divisor,
                            bool positive) {
  return [&out, divisor, positive](const std::string& flag,
                                   const std::string& spec) {
    std::size_t pos = 0;
    do {
      std::size_t comma = spec.find(',', pos);
      if (comma == std::string::npos) comma = spec.size();
      const std::string item = spec.substr(pos, comma - pos);
      const std::size_t eq = item.rfind('=');
      double value = 0.0;
      if (eq == std::string::npos || eq == 0 ||
          !parse_double_strict(item.substr(eq + 1), value) ||
          (positive && value <= 0.0))
        return complain("invalid value '%s' for %s (expected KEY=NUMBER"
                        "[,...])",
                        spec.c_str(), flag.c_str());
      out.push_back({item.substr(0, eq), value / divisor});
      pos = comma + 1;
    } while (pos < spec.size());
    return true;
  };
}

int run_bench_diff(int argc, char** argv) {
  double threshold_pct = 20.0;
  std::vector<audit::GateSpec> gates;
  std::vector<audit::CeilingSpec> ceilings;
  const FlagTable flags = {
      {"--threshold", real_flag(threshold_pct, true)},
      {"--gate", key_values_flag(gates, 100.0, true)},
      {"--max", key_values_flag(ceilings, 1.0, false)},
  };
  if (argc < 4 || !parse_flags(flags, argc, argv, 4)) return usage();
  const auto base = load_json(argv[2]);
  const auto cand = load_json(argv[3]);
  if (!base || !cand) return 1;
  const auto result = audit::bench_diff(*base, *cand, threshold_pct / 100.0,
                                        gates, ceilings);
  std::printf("%s", result.format().c_str());
  return result.has_regression() ? 3 : 0;
}

/// The widest waterfall --width accepted (six digits).
constexpr std::size_t kMaxWaterfallWidth = 999999;

int run_critpath(int argc, char** argv, bool waterfall) {
  bool with_wall = false;
  std::size_t width = 48;
  FlagTable flags;
  if (waterfall)
    flags.emplace("--width", count_flag(width, 1, kMaxWaterfallWidth));
  else
    flags.emplace("--wall", switch_flag(with_wall));
  if (argc < 3 || !parse_flags(flags, argc, argv, 3)) return usage();
  const auto rec = load_recording(argv[2]);
  if (!rec) return 1;
  std::string error;
  const auto report = audit::analyze(*rec, &error);
  if (!report) {
    // Malformed recordings must fail loudly (nonzero exit), never render a
    // plausible profile.
    std::fprintf(stderr, "critical-path analysis failed: %s\n", error.c_str());
    return 1;
  }
  if (waterfall)
    std::printf("%s", audit::render_waterfall(*report, width).c_str());
  else
    std::printf("%s", audit::render_critpath(*report, with_wall).c_str());
  return 0;
}

int run_top(const std::string& path) {
  const auto doc = load_json(path);
  if (!doc) return 1;
  // Accept both a standalone telemetry document and a whole schema-3 bench
  // artifact (render its embedded top-level telemetry block).
  if (!doc->find("snapshots")) {
    if (const json::Value* t = doc->find("telemetry"))
      return std::printf("%s", audit::render_top(*t).c_str()), 0;
    std::fprintf(stderr, "'%s' has no telemetry block\n", path.c_str());
    return 1;
  }
  std::printf("%s", audit::render_top(*doc).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "matrix" || cmd == "timeline" || cmd == "blame" ||
      cmd == "info") {
    if (argc != 3) return usage();
    return run_render(cmd, argv[2]);
  }
  if (cmd == "diff") {
    if (argc != 4) return usage();
    return run_diff(argv[2], argv[3]);
  }
  if (cmd == "bench-diff") return run_bench_diff(argc, argv);
  if (cmd == "top") {
    if (argc != 3) return usage();
    return run_top(argv[2]);
  }
  if (cmd == "critpath") return run_critpath(argc, argv, false);
  if (cmd == "waterfall") return run_critpath(argc, argv, true);
  return usage();
}
