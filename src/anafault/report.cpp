#include "anafault/report.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace catlift::anafault {

std::string campaign_table(const CampaignResult& res) {
    std::ostringstream os;
    os << "  id  fault                                        p          "
          "detected   t_detect\n";
    os << "  --------------------------------------------------------------"
          "--------------\n";
    char buf[160];
    for (const FaultSimResult& r : res.results) {
        const char* status = !r.simulated
                                 ? (r.quarantined ? "QUARANT" : "SIMFAIL")
                             : r.detect_time ? "yes"
                                             : "no";
        if (r.detect_time) {
            std::snprintf(buf, sizeof buf,
                          "  %-3d %-44s %-10.3g %-10s %.3g us\n", r.fault_id,
                          r.description.c_str(), r.probability, status,
                          *r.detect_time * 1e6);
        } else {
            std::snprintf(buf, sizeof buf, "  %-3d %-44s %-10.3g %-10s -\n",
                          r.fault_id, r.description.c_str(), r.probability,
                          status);
        }
        os << buf;
    }
    return os.str();
}

std::string campaign_summary(const CampaignResult& res) {
    std::ostringstream os;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "faults: %zu  detected: %zu  undetected: %zu  simfail: %zu"
                  "  quarantined: %zu\n",
                  res.results.size(), res.detected(), res.undetected(),
                  res.failed(), res.quarantined());
    os << buf;
    std::snprintf(buf, sizeof buf,
                  "fault coverage: %.1f%%  weighted coverage: %.1f%%\n",
                  res.final_coverage(), res.weighted_coverage());
    os << buf;
    if (auto last = res.time_of_last_detection()) {
        std::snprintf(buf, sizeof buf,
                      "all detectable faults found after %.2f us "
                      "(%.0f%% of test time)\n",
                      *last * 1e6, 100.0 * *last / res.tstop);
        os << buf;
    }
    std::snprintf(buf, sizeof buf,
                  "kernel time: nominal %s%.3fs, faults %.3fs total\n",
                  res.batch.nominal_resumed ? "loaded from store in " : "",
                  res.nominal_seconds, res.total_seconds);
    os << buf;
    std::snprintf(buf, sizeof buf,
                  "batch: %u thread%s, %zu classes (%zu collapsed), "
                  "%zu simulated, %zu resumed\n",
                  res.batch.threads, res.batch.threads == 1 ? "" : "s",
                  res.batch.classes, res.batch.collapsed,
                  res.batch.scheduled, res.batch.resumed);
    os << buf;
    if (res.batch.retries > 0 || res.batch.quarantined > 0 ||
        res.batch.job_errors > 0 || res.batch.store_errors > 0) {
        std::snprintf(buf, sizeof buf,
                      "containment: %zu retries, %zu quarantined, "
                      "%zu job errors, %zu store errors\n",
                      res.batch.retries, res.batch.quarantined,
                      res.batch.job_errors, res.batch.store_errors);
        os << buf;
    }
    if (res.batch.early_aborts > 0) {
        std::snprintf(buf, sizeof buf,
                      "early abort: %zu runs stopped at detection, "
                      "%zu grid steps saved\n",
                      res.batch.early_aborts, res.batch.steps_saved);
        os << buf;
    }
    if (res.batch.steps_interpolated > 0) {
        std::snprintf(buf, sizeof buf,
                      "adaptive stepping: %zu steps integrated, "
                      "%zu grid samples interpolated\n",
                      res.batch.steps_integrated,
                      res.batch.steps_interpolated);
        os << buf;
    }
    return os.str();
}

std::string coverage_plot_ascii(const CampaignResult& res, int width,
                                int height) {
    std::ostringstream os;
    const auto curve = res.coverage_curve(static_cast<std::size_t>(width));
    std::vector<std::string> grid(
        static_cast<std::size_t>(height),
        std::string(static_cast<std::size_t>(width + 1), ' '));
    for (int c = 0; c <= width; ++c) {
        const double cov = curve[static_cast<std::size_t>(c)].second;
        int r = static_cast<int>(cov / 100.0 * (height - 1) + 0.5);
        r = std::clamp(r, 0, height - 1);
        grid[static_cast<std::size_t>(height - 1 - r)]
            [static_cast<std::size_t>(c)] = '*';
    }
    os << "  fault coverage (%) vs time (% of " << res.tstop * 1e6
       << " us)\n";
    for (int r = 0; r < height; ++r) {
        const int pct = (height - 1 - r) * 100 / (height - 1);
        char margin[16];
        std::snprintf(margin, sizeof margin, "  %3d |", pct);
        os << margin << grid[static_cast<std::size_t>(r)] << "\n";
    }
    os << "      +";
    for (int c = 0; c <= width; ++c) os << '-';
    os << "\n       0%";
    for (int c = 0; c < width - 8; ++c) os << ' ';
    os << "100%\n";
    return os.str();
}

std::string coverage_csv(const CampaignResult& res, std::size_t points) {
    std::ostringstream os;
    os << "time_s,time_pct,coverage_pct\n";
    for (const auto& [t, cov] : res.coverage_curve(points))
        os << t << ',' << 100.0 * t / res.tstop << ',' << cov << '\n';
    return os.str();
}

std::string class_breakdown(const CampaignResult& res,
                            const lift::FaultList& faults) {
    require(res.results.size() == faults.size(),
            "class_breakdown: campaign and fault list sizes differ");
    struct Acc {
        std::size_t total = 0, detected = 0;
        double t_sum = 0.0;
    };
    std::map<lift::FaultKind, Acc> acc;
    for (std::size_t i = 0; i < faults.size(); ++i) {
        Acc& a = acc[faults.faults[i].kind];
        ++a.total;
        if (res.results[i].detect_time) {
            ++a.detected;
            a.t_sum += *res.results[i].detect_time;
        }
    }
    std::ostringstream os;
    os << "  class          total  detected  mean t_detect\n";
    char buf[96];
    for (const auto& [kind, a] : acc) {
        if (a.detected > 0) {
            std::snprintf(buf, sizeof buf, "  %-13s %-6zu %-9zu %.2f us\n",
                          lift::to_string(kind), a.total, a.detected,
                          a.t_sum / static_cast<double>(a.detected) * 1e6);
        } else {
            std::snprintf(buf, sizeof buf, "  %-13s %-6zu %-9zu -\n",
                          lift::to_string(kind), a.total, a.detected);
        }
        os << buf;
    }
    return os.str();
}

} // namespace catlift::anafault
