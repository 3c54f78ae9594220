#include "measure/campaign.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "net/error.hpp"

namespace drongo::measure {

int resolve_thread_count(int requested) {
  if (requested < 0) {
    throw net::InvalidArgument("thread count must be >= 0, got " +
                               std::to_string(requested));
  }
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int parse_thread_count(const char* value) {
  if (value == nullptr || value[0] == '\0') return 1;
  const std::string v(value);
  std::size_t consumed = 0;
  int parsed = 0;
  try {
    parsed = std::stoi(v, &consumed);
  } catch (const std::exception&) {
    throw net::InvalidArgument("DRONGO_THREADS must be an integer >= 0, got \"" + v +
                               "\"");
  }
  if (consumed != v.size() || parsed < 0) {
    throw net::InvalidArgument("DRONGO_THREADS must be an integer >= 0, got \"" + v +
                               "\"");
  }
  return parsed;
}

int thread_count_from_env() {
  return parse_thread_count(std::getenv("DRONGO_THREADS"));
}

ParallelCampaignRunner::ParallelCampaignRunner(const TrialRunner* runner,
                                               CampaignOptions options)
    : runner_(runner), threads_(resolve_thread_count(options.threads)) {
  if (runner_ == nullptr) throw net::InvalidArgument("null TrialRunner");
}

std::vector<TrialRecord> ParallelCampaignRunner::run(
    const std::vector<CampaignTask>& tasks) const {
  std::vector<TrialRecord> records(tasks.size());
  if (tasks.empty()) return records;

  if (threads_ <= 1) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      records[i] = runner_->run_task(tasks[i]);
    }
    return records;
  }

  // One unit of work per (client, provider) pair: units[u] holds the
  // task-list positions of that pair's trials, in list order, and units are
  // handed out in order of first appearance. Units this small keep every
  // worker busy until the last one is claimed. Larger ones would buy no
  // locality: what trials share (DNS counters, latency memos) is
  // per-thread or sharded.
  std::vector<std::vector<std::size_t>> units;
  {
    std::map<std::pair<std::size_t, std::size_t>, std::size_t> unit_of_pair;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      auto [it, fresh] = unit_of_pair.try_emplace(
          {tasks[i].client_index, tasks[i].provider_index}, units.size());
      if (fresh) units.emplace_back();
      units[it->second].push_back(i);
    }
  }

  std::atomic<std::size_t> next_unit{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto worker = [&]() {
    while (true) {
      const std::size_t u = next_unit.fetch_add(1, std::memory_order_relaxed);
      if (u >= units.size()) return;
      {
        std::lock_guard lock(error_mutex);
        if (first_error) return;  // a sibling already failed; drain quickly
      }
      try {
        for (std::size_t i : units[u]) {
          records[i] = runner_->run_task(tasks[i]);
        }
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };

  const int n = std::min<int>(threads_, static_cast<int>(units.size()));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
  return records;
}

std::vector<TrialRecord> ParallelCampaignRunner::run_campaign(
    int trials_per_client, double spacing_hours) const {
  return run(runner_->campaign_tasks(trials_per_client, spacing_hours));
}

std::vector<TrialRecord> ParallelCampaignRunner::run_campaign_sporadic(
    int trials_per_client, const SporadicScheduleConfig& schedule) const {
  return run(runner_->sporadic_tasks(trials_per_client, schedule));
}

}  // namespace drongo::measure
