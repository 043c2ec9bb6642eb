// Subjective study: reproduces the paper's Section III-B model-building
// pipeline against a simulated 20-subject ITU-T P.910 rater panel.
//
// Prints the per-condition MOS table, then the least-squares fits for the
// original-quality curve and the vibration-impairment surface, next to the
// ground-truth coefficients the panel was generated from.
//
//   ./examples/subjective_study

#include <cstdio>

#include "eacs/qoe/subjective_study.h"
#include "eacs/util/table.h"

int main() {
  using namespace eacs;
  using namespace eacs::qoe;

  const QoeModelParams truth;  // the paper's Table III reconstruction
  StudyConfig config;          // 20 subjects, realistic rating noise

  std::printf("Simulating a %zu-subject quality-assessment study "
              "(10 videos x 6 bitrates x 2 contexts)...\n\n",
              config.num_subjects);
  SubjectiveStudy study(config, QoeModel{truth});
  const auto ratings = study.run();
  const auto mos = SubjectiveStudy::aggregate(ratings, config.vibration_bin);
  std::printf("Collected %zu individual ratings -> %zu MOS conditions\n\n",
              ratings.size(), mos.size());

  // Quiet-room MOS per bitrate (the Fig. 2(b) data points).
  AsciiTable room_table("Quiet-room MOS by bitrate (Fig. 2(b) input)");
  room_table.set_header({"bitrate (Mbps)", "MOS", "ratings"});
  room_table.set_alignment({Align::kRight, Align::kRight, Align::kRight});
  for (const auto& point : mos) {
    if (point.vibration < 1.0) {
      room_table.add_row({AsciiTable::num(point.bitrate_mbps, 3),
                          AsciiTable::num(point.mos, 2), std::to_string(point.n)});
    }
  }
  room_table.print();

  const QoeFit fit = fit_qoe_model_from_ratings(ratings);

  AsciiTable fit_table("\nLeast-squares fit vs ground truth (Table III pipeline)");
  fit_table.set_header({"coefficient", "ground truth", "fitted"});
  fit_table.set_alignment({Align::kLeft, Align::kRight, Align::kRight});
  fit_table.add_row({"a (q0 scale)", AsciiTable::num(truth.a, 3),
                     AsciiTable::num(fit.params.a, 3)});
  fit_table.add_row({"b (q0 exponent)", AsciiTable::num(truth.b, 3),
                     AsciiTable::num(fit.params.b, 3)});
  fit_table.add_row({"kappa (impairment scale)", AsciiTable::num(truth.kappa, 4),
                     AsciiTable::num(fit.params.kappa, 4)});
  fit_table.add_row({"alpha_v (vibration exponent)", AsciiTable::num(truth.alpha_v, 3),
                     AsciiTable::num(fit.params.alpha_v, 3)});
  fit_table.add_row({"beta_r (bitrate exponent)", AsciiTable::num(truth.beta_r, 3),
                     AsciiTable::num(fit.params.beta_r, 3)});
  fit_table.print();

  std::printf("\nq0 curve fit: R^2 = %.4f (%zu Gauss-Newton iterations)\n",
              fit.curve_fit.r_squared, fit.curve_fit.iterations);
  std::printf("impairment surface fit: R^2 = %.4f\n", fit.surface_fit.r_squared);

  // The surface exponents are weakly identified from a single 20-subject
  // study (rating noise rivals the impairment signal); what the fit pins
  // down is the surface *values* in the region that drives decisions:
  const QoeModel truth_model{truth};
  const QoeModel fitted_model{fit.params};
  AsciiTable surface("\nFitted impairment surface at the paper's spot checks");
  surface.set_header({"(v, r)", "truth I(v,r)", "fitted I(v,r)"});
  surface.set_alignment({Align::kLeft, Align::kRight, Align::kRight});
  for (const auto& [v, r] : {std::pair{2.0, 1.5}, std::pair{6.0, 1.5},
                             std::pair{2.0, 5.8}, std::pair{6.0, 5.8}}) {
    surface.add_row({std::string("(")
                         .append(AsciiTable::num(v, 0))
                         .append(", ")
                         .append(AsciiTable::num(r, 1))
                         .append(")"),
                     AsciiTable::num(truth_model.vibration_impairment(v, r), 3),
                     AsciiTable::num(fitted_model.vibration_impairment(v, r), 3)});
  }
  surface.print();
  return 0;
}
