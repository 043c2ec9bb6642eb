// Fig. 2(c): the QoE impairment surface I(v, r) over vibration level and
// bitrate. Paper spot checks (quoted in Section III-B): at 1.5 Mbps the
// impairment grows 0.049 -> 0.184 as vibration goes 2 -> 6; at 5.8 Mbps it
// grows 0.174 -> 0.549.

#include "bench_common.h"
#include "eacs/media/bitrate_ladder.h"
#include "eacs/qoe/model.h"

namespace {

using namespace eacs;

void print_reproduction() {
  bench::banner("Fig. 2(c)", "QoE impairment due to vibration, I(v, r)");
  const qoe::QoeModel model;
  const auto ladder = media::BitrateLadder::table2();

  AsciiTable table("I(v, r) over the (vibration, bitrate) grid");
  std::vector<std::string> header = {"v \\ r (Mbps)"};
  for (std::size_t level = 0; level < ladder.size(); ++level) {
    header.push_back(AsciiTable::num(ladder.bitrate(level), 2));
  }
  table.set_header(header);
  std::vector<Align> alignment(header.size(), Align::kRight);
  alignment[0] = Align::kLeft;
  table.set_alignment(alignment);
  for (double v = 0.0; v <= 7.0; v += 1.0) {
    std::vector<std::string> row = {AsciiTable::num(v, 0)};
    for (std::size_t level = 0; level < ladder.size(); ++level) {
      row.push_back(AsciiTable::num(
          model.vibration_impairment(v, ladder.bitrate(level)), 3));
    }
    table.add_row(row);
  }
  table.print();

  AsciiTable checks("\nPaper spot checks");
  checks.set_header({"(v, r)", "paper I", "model I"});
  checks.set_alignment({Align::kLeft, Align::kRight, Align::kRight});
  const std::pair<std::pair<double, double>, double> anchors[] = {
      {{2.0, 1.5}, 0.049}, {{6.0, 1.5}, 0.184}, {{2.0, 5.8}, 0.174},
      {{6.0, 5.8}, 0.549}};
  for (const auto& [vr, paper] : anchors) {
    checks.add_row({std::string("(")
                        .append(AsciiTable::num(vr.first, 0))
                        .append(", ")
                        .append(AsciiTable::num(vr.second, 1))
                        .append(")"),
                    AsciiTable::num(paper, 3),
                    AsciiTable::num(model.vibration_impairment(vr.first, vr.second), 3)});
  }
  checks.print();
}

void BM_ImpairmentSurface(benchmark::State& state) {
  const qoe::QoeModel model;
  double v = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.vibration_impairment(v, 3.0));
    v = v >= 7.0 ? 0.0 : v + 0.01;
  }
}
BENCHMARK(BM_ImpairmentSurface);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  return eacs::bench::run_benchmarks(argc, argv);
}
