#include "calib/runconfig.hpp"

#include <stdexcept>

namespace speccal::calib {

namespace {

void check_retry(const char* prefix, const RetryPolicy& retry) {
  const auto fail = [&](const char* field, const char* what) {
    throw std::invalid_argument(std::string(prefix) + field + " " + what);
  };
  if (retry.max_attempts < 1) fail(".max_attempts", "must be >= 1");
  if (retry.initial_backoff_s < 0.0) fail(".initial_backoff_s", "must be >= 0");
  if (retry.backoff_multiplier < 1.0)
    fail(".backoff_multiplier", "must be >= 1.0");
  if (retry.jitter_fraction < 0.0 || retry.jitter_fraction > 1.0)
    fail(".jitter_fraction", "must be in [0, 1]");
  if (retry.stage_deadline_s < 0.0) fail(".stage_deadline_s", "must be >= 0");
}

}  // namespace

void RunConfig::validate() const {
  check_retry("RunConfig.pipeline.retry", pipeline.retry);
  if (!(pipeline.survey.duration_s > 0.0))
    throw std::invalid_argument(
        "RunConfig.pipeline.survey.duration_s must be > 0");
  if (!(pipeline.cell_search_radius_m > 0.0))
    throw std::invalid_argument(
        "RunConfig.pipeline.cell_search_radius_m must be > 0");
  if (pipeline.tv_detect_margin_db < 0.0)
    throw std::invalid_argument(
        "RunConfig.pipeline.tv_detect_margin_db must be >= 0");
}

}  // namespace speccal::calib
