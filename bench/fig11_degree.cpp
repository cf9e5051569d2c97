// Figure 11 — Server processing time vs key tree degree (initial group
// size 8192), all three strategies, encryption-only and full-signature
// configurations. The paper's observations to reproduce: the optimal degree
// is around 4; group-oriented is fastest on the server, user-oriented
// slowest; signing adds an order of magnitude.
//
// The seed loop is outermost: each pass runs every degree and strategy
// back to back, so a drift in host speed shifts a whole pass instead of
// single points. Each point prints its mean and its min-max across seeds.
#include <cstdio>

#include "bench_util.h"

namespace keygraphs {
namespace {

constexpr std::array<int, 7> kDegrees = {2, 3, 4, 6, 8, 12, 16};

void run_series(bool signed_mode, std::size_t n) {
  std::printf("\nFigure 11 (%s): server time per request (ms) vs degree, "
              "n=%zu; mean and min-max across seeds\n",
              signed_mode ? "DES + MD5 + RSA-512 batch signature"
                          : "DES encryption only",
              n);
  const auto& strategies = bench::kPaperStrategies;
  std::array<std::array<bench::AveragedResult, 3>, kDegrees.size()> points{};
  for (std::size_t seed = 1; seed <= bench::seeds(); ++seed) {
    for (std::size_t d = 0; d < kDegrees.size(); ++d) {
      for (std::size_t s = 0; s < strategies.size(); ++s) {
        sim::ExperimentConfig config;
        config.initial_size = n;
        config.requests = bench::requests();
        config.degree = kDegrees[d];
        config.strategy = strategies[s];
        config.seed = seed;
        if (signed_mode) {
          config.suite = crypto::CryptoSuite::paper_signed();
          config.signing = rekey::SigningMode::kBatch;
        }
        points[d][s].add(sim::run_experiment(config));
      }
    }
  }

  sim::TablePrinter table({{"degree", 7},
                           {"user ms", 9},
                           {"user range", 16},
                           {"key ms", 9},
                           {"key range", 16},
                           {"group ms", 9},
                           {"group range", 16}});
  table.header();
  for (std::size_t d = 0; d < kDegrees.size(); ++d) {
    const auto degree = static_cast<std::size_t>(kDegrees[d]);
    std::vector<std::string> row{sim::TablePrinter::num(degree)};
    for (std::size_t s = 0; s < strategies.size(); ++s) {
      bench::AveragedResult& point = points[d][s];
      point.finish();
      row.push_back(sim::TablePrinter::num(point.all_ms, 4));
      row.push_back(sim::TablePrinter::num(point.min_ms, 4) + "-" +
                    sim::TablePrinter::num(point.max_ms, 4));
      bench::emit_point_json("fig11", signed_mode, "degree", degree,
                             strategies[s], point);
    }
    table.row(row);
  }
}

}  // namespace
}  // namespace keygraphs

int main() {
  const std::size_t n = keygraphs::bench::group_size();
  std::printf("Figure 11: %zu requests x %zu seeds per point\n",
              keygraphs::bench::requests(), keygraphs::bench::seeds());
  keygraphs::run_series(false, n);
  keygraphs::run_series(true, n);
  return 0;
}
