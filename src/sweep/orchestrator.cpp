#include "sweep/orchestrator.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/fileio.hpp"
#include "common/state_io.hpp"
#include "sim/driver.hpp"
#include "sweep/journal.hpp"
#include "sweep/result_store.hpp"
#include "sweep/worker_pool.hpp"

namespace hybridnoc::sweep {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t mix(std::uint64_t seed, std::uint64_t hash, int attempt) {
  StateWriter w;
  w.fields(seed, hash, attempt);
  return fnv1a64(w.seal());
}

/// Simulate a torn write: truncate the (atomically written) result file to
/// half its size, bypassing the atomic path on purpose.
void tear_file(const std::string& path) {
  std::string bytes;
  if (!read_file(path, &bytes)) return;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(),
            static_cast<std::streamsize>(bytes.size() / 2));
}

/// One attempt at one sweep point, run on a pool worker. Computes the
/// result, writes it to the store atomically, and verifies the write by
/// reading it back — so a torn or unwritable result surfaces here as a
/// failed attempt instead of as a poisoned cache entry.
void compute_attempt(const SweepPoint& pt, int attempt,
                     const SweepOptions& opt, ResultStore& store,
                     const CancelToken& token) {
  const FaultAction action =
      opt.faults.enabled ? opt.faults.action(pt.hash, attempt)
                         : FaultAction::None;
  if (action == FaultAction::Throw) {
    throw std::runtime_error("injected worker fault");
  }
  if (action == FaultAction::Hang) {
    // An injected hang is cooperative: it parks until the orchestrator
    // times the attempt out and cancels the token.
    while (!token.cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw std::runtime_error("injected hang cancelled");
  }

  const RunResult result = run_synthetic(pt.cfg, pt.params);
  std::string err;
  if (!store.store(pt.hash, result, &err)) {
    throw std::runtime_error("result write failed: " + err);
  }
  if (action == FaultAction::TornWrite) tear_file(store.path_for(pt.hash));
  if (!store.load(pt.hash)) {
    throw std::runtime_error("result read-back verification failed");
  }
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

FaultAction SweepFaultPlan::action(std::uint64_t config_hash,
                                   int attempt) const {
  if (!enabled) return FaultAction::None;
  const double u =
      static_cast<double>(mix(seed, config_hash, attempt) >> 11) *
      (1.0 / 9007199254740992.0);  // 53-bit mantissa in [0, 1)
  double edge = throw_prob;
  if (u < edge) return FaultAction::Throw;
  edge += hang_prob;
  if (u < edge) return FaultAction::Hang;
  edge += torn_write_prob;
  if (u < edge) return FaultAction::TornWrite;
  return FaultAction::None;
}

std::string DegradationReport::to_string() const {
  std::ostringstream os;
  os << "sweep degradation report: " << completed << "/" << points
     << " points completed (" << cache_hits << " from cache), "
     << quarantined << " quarantined\n"
     << "  retries=" << retries << " timeouts=" << timeouts
     << " workers_abandoned=" << workers_abandoned << "\n"
     << "  corrupt_results_recomputed=" << corrupt_results_recomputed
     << " torn_journal_lines=" << torn_journal_lines
     << (resumed ? " (resumed)" : "");
  return os.str();
}

std::string format_aggregate(const SweepSpec& spec,
                             const std::vector<ConfigOutcome>& outcomes) {
  std::ostringstream os;
  os << "# sweep " << spec.name << " spec " << hex64(spec.spec_digest)
     << "\n";
  os << "label\thash\tstatus\toffered_rate\taccepted_rate\tavg_latency\t"
        "p99_latency\tsaturated\tmeasured_packets\tcycles\tenergy_pj\t"
        "cs_flit_fraction\tconfig_flit_fraction\n";
  for (const ConfigOutcome& o : outcomes) {
    os << o.label << "\t" << hex64(o.hash) << "\t";
    if (!o.ok) {
      os << "quarantined\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\n";
      continue;
    }
    const RunResult& r = o.result;
    os << "ok\t" << format_double(r.offered_rate) << "\t"
       << format_double(r.accepted_rate) << "\t"
       << format_double(r.avg_latency) << "\t"
       << format_double(r.p99_latency) << "\t" << (r.saturated ? 1 : 0)
       << "\t" << r.measured_packets << "\t" << r.cycles << "\t"
       << format_double(r.total_energy_pj()) << "\t"
       << format_double(r.cs_flit_fraction) << "\t"
       << format_double(r.config_flit_fraction) << "\n";
  }
  return os.str();
}

SweepReport run_sweep(const SweepSpec& spec, const SweepOptions& opt) {
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) {
    throw std::runtime_error("sweep: cannot create output directory '" +
                             opt.out_dir + "'");
  }

  SweepReport report;
  DegradationReport& deg = report.degradation;
  deg.points = static_cast<int>(spec.points.size());

  const std::string journal_path = opt.out_dir + "/journal";
  Journal::Replay rep;
  if (opt.resume) {
    rep = Journal::replay(journal_path, spec.spec_digest);
    if (rep.exists && !rep.spec_match) {
      throw std::runtime_error(
          "sweep: journal in '" + opt.out_dir +
          "' belongs to a different spec; use a fresh directory or "
          "disable resume");
    }
  }
  deg.resumed = rep.exists && rep.spec_match;
  deg.torn_journal_lines = rep.torn_lines;

  Journal journal;
  std::string jerr;
  if (!journal.open(journal_path, spec.spec_digest, /*truncate=*/!opt.resume,
                    &jerr)) {
    throw std::runtime_error("sweep: " + jerr);
  }

  ResultStore store(opt.out_dir + "/results");

  report.outcomes.resize(spec.points.size());
  for (std::size_t i = 0; i < spec.points.size(); ++i) {
    report.outcomes[i].label = spec.points[i].label;
    report.outcomes[i].hash = spec.points[i].hash;
  }

  // Phase 1: resolve what still needs computing. Cache lookups verify the
  // entry digest; a journaled-done point whose result file is corrupt is
  // simply recomputed.
  struct Pending {
    std::size_t idx;
    int attempt;  ///< failed attempts so far (resumes the journal's count)
    Clock::time_point eligible;
  };
  std::vector<Pending> pending;
  for (std::size_t i = 0; i < spec.points.size(); ++i) {
    const SweepPoint& pt = spec.points[i];
    ConfigOutcome& out = report.outcomes[i];
    if (rep.quarantined.count(pt.hash) != 0) {
      out.quarantined = true;
      out.attempts = opt.max_attempts;
      out.last_error = "quarantined by a previous run";
      ++deg.quarantined;
      continue;
    }
    if (auto cached = store.load(pt.hash)) {
      out.ok = true;
      out.from_cache = true;
      out.result = *cached;
      ++deg.cache_hits;
      ++deg.completed;
      continue;
    }
    if (rep.done.count(pt.hash) != 0) ++deg.corrupt_results_recomputed;
    int prior = 0;
    if (const auto it = rep.attempts.find(pt.hash);
        it != rep.attempts.end()) {
      prior = it->second;
    }
    pending.push_back({i, prior, Clock::now()});
  }

  // Phase 2: fan the misses across the pool with timeout / retry /
  // quarantine handling.
  if (!pending.empty()) {
    WorkerPool pool(opt.workers);

    struct Flight {
      std::size_t idx;
      int attempt;  ///< 1-based attempt number being run
      Clock::time_point deadline;
      bool has_deadline;
    };
    std::map<std::uint64_t, Flight> in_flight;
    std::set<std::uint64_t> timed_out;  ///< already charged; drop completion

    const auto fail_attempt = [&](std::size_t idx, int attempt,
                                  const std::string& why) {
      const SweepPoint& pt = spec.points[idx];
      ConfigOutcome& out = report.outcomes[idx];
      out.attempts = attempt;
      out.last_error = why;
      journal.record_fail(pt.hash, attempt, why);
      if (attempt >= opt.max_attempts) {
        out.quarantined = true;
        ++deg.quarantined;
        journal.record_quarantine(pt.hash, attempt);
        return;
      }
      ++deg.retries;
      // Capped exponential backoff with deterministic jitter.
      const int shift = attempt - 1;
      std::uint64_t wait = opt.backoff_base_ms;
      if (shift < 63) {
        wait = opt.backoff_base_ms << (shift < 20 ? shift : 20);
      }
      if (wait > opt.backoff_cap_ms) wait = opt.backoff_cap_ms;
      wait += mix(pt.hash, 0xb0ff, attempt) % (opt.backoff_base_ms + 1);
      pending.push_back(
          {idx, attempt, Clock::now() + std::chrono::milliseconds(wait)});
    };

    while (!pending.empty() || !in_flight.empty()) {
      // Launch every eligible pending attempt while capacity remains.
      const Clock::time_point now = Clock::now();
      for (std::size_t p = 0; p < pending.size();) {
        if (static_cast<int>(in_flight.size()) >= opt.workers) break;
        if (pending[p].eligible > now) {
          ++p;
          continue;
        }
        const Pending job = pending[p];
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(p));
        const SweepPoint& pt = spec.points[job.idx];
        const int attempt = job.attempt + 1;
        const std::uint64_t id = pool.submit(
            [&, pt, attempt](const CancelToken& token) {
              compute_attempt(pt, attempt, opt, store, token);
            });
        Flight fl;
        fl.idx = job.idx;
        fl.attempt = attempt;
        fl.has_deadline = opt.timeout_ms > 0;
        fl.deadline =
            now + std::chrono::milliseconds(
                      opt.timeout_ms > 0 ? opt.timeout_ms : 3600000);
        in_flight.emplace(id, fl);
      }

      // Next wake-up: earliest flight deadline or pending backoff expiry.
      Clock::time_point wake = Clock::now() + std::chrono::seconds(3600);
      for (const auto& [id, fl] : in_flight) {
        if (fl.has_deadline && fl.deadline < wake) wake = fl.deadline;
      }
      for (const Pending& p : pending) {
        if (p.eligible < wake) wake = p.eligible;
      }

      const auto done = pool.wait_any(wake);
      if (done) {
        const auto it = in_flight.find(done->task_id);
        if (timed_out.erase(done->task_id) > 0 || done->abandoned) {
          // Attempt already charged when its timeout fired.
        } else if (it != in_flight.end()) {
          const std::size_t idx = it->second.idx;
          const int attempt = it->second.attempt;
          in_flight.erase(it);
          const SweepPoint& pt = spec.points[idx];
          ConfigOutcome& out = report.outcomes[idx];
          if (done->ok) {
            if (auto stored = store.load(pt.hash)) {
              out.ok = true;
              out.result = *stored;
              out.attempts = attempt;
              ++deg.completed;
              journal.record_done(pt.hash, attempt);
            } else {
              fail_attempt(idx, attempt,
                           "stored result failed verification");
            }
          } else {
            fail_attempt(idx, attempt, done->error);
          }
        }
        continue;
      }

      // Timeout wake-up: charge every expired flight and abandon it.
      const Clock::time_point t = Clock::now();
      for (auto it = in_flight.begin(); it != in_flight.end();) {
        if (it->second.has_deadline && it->second.deadline <= t) {
          ++deg.timeouts;
          timed_out.insert(it->first);
          pool.abandon(it->first);
          fail_attempt(it->second.idx, it->second.attempt,
                       "wall-clock timeout");
          it = in_flight.erase(it);
        } else {
          ++it;
        }
      }
    }

    deg.workers_abandoned = pool.workers_abandoned();
  }

  // Phase 3: the aggregate, in spec order, written atomically. Identical
  // bytes for identical spec + results regardless of kill/resume history.
  report.aggregate_path = opt.out_dir + "/aggregate.tsv";
  const std::string aggregate = format_aggregate(spec, report.outcomes);
  std::string werr;
  if (!write_file_atomic(report.aggregate_path, aggregate, &werr)) {
    throw std::runtime_error("sweep: cannot write aggregate: " + werr);
  }
  return report;
}

}  // namespace hybridnoc::sweep
