// Delex refresh benchmark: drives the program through its public Solution
// interface (MakeProgram -> MakeDelexSolution -> RunSnapshot) over a seeded,
// evolving corpus and prints one JSON result line. See README.md.
//
//   refresh_bench --workload dblife-chair --seed 1 --seconds 10 --trace 0
//                 [--work-root .bench_work] [--git-sha SHA] [--solution delex]
//   refresh_bench --selftest --work-root .bench_work
//
// A run is a sequence of identical rounds. A round builds the program,
// constructs the solution over a fresh work dir, runs the capture-only
// first snapshot (together: set-up), then `refreshes` consecutive-snapshot
// refreshes. Snapshots are generated in a rolling prev/cur window from the
// seed, so every round sees the same inputs. Every snapshot's rows are
// checked against an incremental No-reuse reference (Theorem 1).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baseline/runners.h"
#include "common/stopwatch.h"
#include "corpus/generator.h"
#include "harness/experiment.h"
#include "harness/programs.h"
#include "obs/json_writer.h"
#include "obs/profiler.h"
#include "obs/run_report.h"
#include "obs/trace.h"

namespace delex {
namespace {

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  std::string program;
  DatasetProfile profile;
  int refreshes = 1;  ///< consecutive-snapshot refreshes per round
  /// True when one refresh fits in the trace recorder's per-thread ring
  /// (TraceRecorder::kRingCapacity events); otherwise the traced rounds
  /// use the SIGPROF span profiler instead.
  bool chrome_trace = true;
};

// Sizes keep a round to a few seconds, so a 20 s run holds two or more
// rounds; README.md says what each workload stresses.
std::optional<Workload> MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "dblife-chair") {
    w.program = "chair";
    w.profile = DatasetProfile::DBLife();
    w.profile.num_sources = 250;
    w.refreshes = 40;
  } else if (name == "wiki-play") {
    w.program = "play";
    w.profile = DatasetProfile::Wikipedia();
    w.profile.num_sources = 120;
    w.refreshes = 12;
    w.chrome_trace = false;
  } else {
    return std::nullopt;
  }
  return w;
}

// ---------------------------------------------------------------------------
// Theorem-1 reference and output checks

/// Rows a Solution returns are did-prefixed; the reference keeps each
/// page's rows without the did, keyed by URL, so unchanged pages can be
/// carried forward under their new did.
Tuple WithDid(int64_t did, const Tuple& row) {
  Tuple out;
  out.reserve(row.size() + 1);
  out.push_back(did);
  out.insert(out.end(), row.begin(), row.end());
  return out;
}

/// \brief From-scratch reference computed apart from the engine.
///
/// The first snapshot is evaluated in full with the No-reuse runner. After
/// that only pages whose bytes differ from the same URL's previous version
/// (and new URLs) are evaluated; every other page's rows are carried
/// forward with the did remapped. Sound because each blackbox is a
/// function of one page (Definition 1).
class Reference {
 public:
  explicit Reference(ProgramSpec spec)
      : spec_(std::move(spec)), runner_(spec_.plan) {}

  /// Advances to `current` (whose predecessor was the last snapshot passed
  /// in) and returns its reference rows. `changed_pages` receives the
  /// number of pages evaluated.
  Result<std::vector<Tuple>> Advance(const Snapshot& current,
                                     const Snapshot* previous,
                                     int64_t* changed_pages) {
    Snapshot changed;
    std::vector<Tuple> rows;
    std::unordered_map<std::string, std::vector<Tuple>> next;
    for (const Page& page : current.pages()) {
      const Page* old = nullptr;
      if (previous != nullptr) {
        if (auto idx = previous->FindByUrl(page.url)) {
          old = &previous->pages()[*idx];
        }
      }
      if (old != nullptr && old->content == page.content) {
        auto it = rows_by_url_.find(page.url);
        if (it == rows_by_url_.end()) {
          return Status::Internal("reference lost the rows of " + page.url);
        }
        for (const Tuple& row : it->second) {
          rows.push_back(WithDid(page.did, row));
        }
        next[page.url] = std::move(it->second);
      } else {
        changed.AddExistingPage(page);
        next[page.url];  // a page may yield no rows
      }
    }
    std::unordered_map<int64_t, const std::string*> url_of;
    for (const Page& page : changed.pages()) url_of[page.did] = &page.url;
    DELEX_ASSIGN_OR_RETURN(std::vector<Tuple> fresh,
                           runner_.RunSnapshot(changed, nullptr));
    for (Tuple& row : fresh) {
      const int64_t did = std::get<int64_t>(row[0]);
      next[*url_of.at(did)].emplace_back(row.begin() + 1, row.end());
      rows.push_back(std::move(row));
    }
    rows_by_url_ = std::move(next);
    *changed_pages = static_cast<int64_t>(changed.NumPages());
    return rows;
  }

 private:
  ProgramSpec spec_;  ///< owns the plan's blackboxes
  NoReuseRunner runner_;
  std::unordered_map<std::string, std::vector<Tuple>> rows_by_url_;
};

/// Checks one snapshot's rows. `want` must be canonical (sorted). Returns
/// an empty string when the rows pass, else the first problem found.
std::string CheckRows(const Snapshot& current, std::vector<Tuple> got,
                      const std::vector<Tuple>& want) {
  if (got.empty()) return "snapshot yielded no rows";
  std::unordered_map<int64_t, int64_t> length_of;
  for (const Page& page : current.pages()) {
    length_of[page.did] = static_cast<int64_t>(page.content.size());
  }
  for (const Tuple& row : got) {
    if (row.empty() || !std::holds_alternative<int64_t>(row[0])) {
      return "row without a did: " + TupleToString(row);
    }
    auto it = length_of.find(std::get<int64_t>(row[0]));
    if (it == length_of.end()) {
      return "row's did is not a page of the snapshot: " + TupleToString(row);
    }
    for (size_t i = 1; i < row.size(); ++i) {
      if (const TextSpan* span = std::get_if<TextSpan>(&row[i])) {
        if (span->start < 0 || span->end < span->start ||
            span->end > it->second) {
          return "span outside its page: " + TupleToString(row);
        }
      }
    }
  }
  got = Canonicalize(std::move(got));
  if (!SameResults(got, want)) {
    return "rows differ from the reference (" + std::to_string(got.size()) +
           " vs " + std::to_string(want.size()) + " rows)";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Measurement helpers

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ProcessCpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

double DirMb(const std::string& dir) {
  int64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      bytes += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return static_cast<double>(bytes) / 1e6;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Module (layer) of a span name emitted by the program or the benchmark.
const char* ModuleOf(std::string_view span) {
  if (span.rfind("opt_", 0) == 0) return "optimizer";
  if (span.rfind("match_", 0) == 0) return "matcher";
  if (span == "extract") return "extract";
  if (span.rfind("reuse_", 0) == 0 || span.rfind("result_", 0) == 0) {
    return "storage";
  }
  if (span.rfind("bench.", 0) == 0) return "bench";
  return "delex";
}

constexpr const char* kModules[] = {"optimizer", "matcher", "extract",
                                    "delex",     "storage", "bench"};

/// Per-span self and inclusive time of one traced refresh, in ms.
struct SpanTimes {
  std::map<std::string, double> self_ms;
  std::map<std::string, double> incl_ms;
  int64_t lost = 0;  ///< events (trace) or samples (profiler) the recorder lost
};

/// Self time from complete events: a span's duration minus the part its
/// direct children on the same thread cover.
SpanTimes FromTraceEvents(const std::vector<obs::TraceEvent>& events) {
  struct Open {
    const obs::TraceEvent* event;
    int64_t child_us;
  };
  SpanTimes out;
  std::vector<Open> stack;
  auto close = [&out](const Open& open) {
    const double self = static_cast<double>(
        std::max<int64_t>(0, open.event->dur_us - open.child_us));
    out.self_ms[open.event->name] += self / 1e3;
  };
  uint32_t tid = 0;
  // SnapshotEvents sorts by (tid, start, longest first): parents precede
  // their children.
  for (const obs::TraceEvent& event : events) {
    if (event.tid != tid) {
      for (; !stack.empty(); stack.pop_back()) close(stack.back());
      tid = event.tid;
    }
    while (!stack.empty() && event.ts_us >= stack.back().event->ts_us +
                                                 stack.back().event->dur_us) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) stack.back().child_us += event.dur_us;
    stack.push_back({&event, 0});
    out.incl_ms[event.name] += static_cast<double>(event.dur_us) / 1e3;
  }
  for (; !stack.empty(); stack.pop_back()) close(stack.back());
  return out;
}

/// Per-path sample counts from the profiler's folded text.
std::map<std::string, int64_t> ParseFolded(const std::string& folded) {
  std::map<std::string, int64_t> counts;
  std::istringstream in(folded);
  std::string line;
  while (std::getline(in, line)) {
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    counts[line.substr(0, space)] += std::atoll(line.c_str() + space + 1);
  }
  return counts;
}

/// Self and inclusive time from the samples added between two folded
/// snapshots of the profiler table (the profiler only accumulates). Each
/// sample stands for `ms_per_sample` of CPU time.
SpanTimes FromProfileDelta(const std::map<std::string, int64_t>& before,
                           const std::map<std::string, int64_t>& after,
                           double ms_per_sample) {
  SpanTimes out;
  for (const auto& [path, count] : after) {
    auto it = before.find(path);
    const int64_t added = count - (it == before.end() ? 0 : it->second);
    if (added <= 0 || path == "(no_span)") continue;
    std::vector<std::string> frames;
    std::stringstream ss(path);
    for (std::string frame; std::getline(ss, frame, ';');) {
      frames.push_back(frame);
    }
    if (frames.empty()) continue;
    out.self_ms[frames.back()] += added * ms_per_sample;
    std::sort(frames.begin(), frames.end());
    frames.erase(std::unique(frames.begin(), frames.end()), frames.end());
    for (const std::string& f : frames) out.incl_ms[f] += added * ms_per_sample;
  }
  return out;
}

double Get(const std::map<std::string, double>& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

// ---------------------------------------------------------------------------
// Runs

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_root = ".bench_work";
  std::string git_sha = "unknown";
  std::string solution = "delex";
};

/// One timed refresh.
struct Refresh {
  double wall_s = 0;
  double cpu_s = 0;
  int64_t pages = 0;
  int round = 0;
  bool traced = false;
  std::map<std::string, double> layer;  ///< per-layer values of this refresh
};

enum class TraceMode { kOff, kChrome, kProfile };

constexpr int kProfileHz = 997;

class Runner {
 public:
  Runner(Options options, Workload workload)
      : options_(std::move(options)), workload_(std::move(workload)) {}

  /// Computes the reference, then runs rounds until the time budget is
  /// spent.
  Status Run() {
    namespace fs = std::filesystem;
    const auto stamp =
        std::chrono::steady_clock::now().time_since_epoch().count();
    run_dir_ = options_.work_root + "/" + workload_.name + "-" +
               std::to_string(::getpid()) + "-" + std::to_string(stamp);
    std::error_code ec;
    fs::create_directories(options_.work_root, ec);
    if (!fs::create_directory(run_dir_, ec)) {
      return Status::IOError("cannot create fresh work dir " + run_dir_);
    }
    Status st = BuildReference();
    Stopwatch budget;
    // A traced run needs an untraced round besides the first to compare
    // against (see PerLayer).
    const int min_rounds = options_.trace ? 3 : 2;
    for (int round = 0; st.ok(); ++round) {
      if (round >= min_rounds && budget.ElapsedSeconds() >= options_.seconds) {
        break;
      }
      TraceMode mode = TraceMode::kOff;
      if (options_.trace && round % 2 == 1) {
        mode = workload_.chrome_trace ? TraceMode::kChrome
                                      : TraceMode::kProfile;
      }
      st = RunRound(round, mode);
    }
    fs::remove_all(run_dir_, ec);
    return st;
  }

  void PrintResult() const {
    obs::JsonWriter meta;
    meta.BeginObject()
        .KV("workload", workload_.name)
        .KV("solution", options_.solution)
        .KV("program", workload_.program)
        .KV("profile", workload_.profile.name)
        .KV("pages", static_cast<int64_t>(workload_.profile.num_sources))
        .KV("threads", static_cast<int64_t>(DelexSolutionOptions().num_threads))
        .KV("refreshes_per_round", static_cast<int64_t>(workload_.refreshes))
        .KV("rounds", static_cast<int64_t>(plans_.size()))
        .KV("seed", static_cast<int64_t>(options_.seed))
        .KV("identical_fraction",
            pages_with_previous_ > 0
                ? static_cast<double>(pages_identical_) / pages_with_previous_
                : 0.0)
        .KV("trace_recorder", !options_.trace ? "off"
                              : workload_.chrome_trace ? "chrome_trace"
                                                       : "sigprof_profiler")
        .KV("git_sha", options_.git_sha)
        .KV("build_type", DELEX_BUILD_TYPE)
        .KV("compiler", std::string("gcc ") + __VERSION__)
        .KV("cpu_model", CpuModel())
        .KV("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
    meta.Key("plans").BeginArray();
    for (const std::vector<std::string>& round : plans_) {
      meta.BeginArray();
      for (const std::string& plan : round) meta.Value(plan);
      meta.EndArray();
    }
    meta.EndArray();
    if (!first_error_.empty()) meta.KV("first_error", first_error_);
    meta.EndObject();
    std::printf("{\"bench_meta\": %s}\n", meta.str().c_str());

    // Built by hand rather than with JsonWriter, whose %.6g would round
    // the measured values.
    std::string out = std::string("{\"correct\": ") +
                      (correct_ ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted_) +
                      ", \"failed\": " + std::to_string(failed_) +
                      ", \"metrics\": {";
    const std::vector<Metric> metrics =
        options_.trace ? PerLayer() : EndToEnd();
    for (size_t i = 0; i < metrics.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.12g",
                    std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
      out += (i > 0 ? ", \"" : "\"") + metrics[i].name +
             "\": {\"value\": " + value + ", \"unit\": \"" +
             metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };

  std::unique_ptr<Solution> MakeSolution(const ProgramSpec& spec,
                                         const std::string& dir) const {
    if (options_.solution == "noreuse") return MakeNoReuseSolution(spec);
    if (options_.solution == "shortcut") return MakeShortcutSolution(spec);
    return MakeDelexSolution(spec, dir);
  }

  /// Records a failed operation; the first message is kept for the stamp.
  void Fail(const std::string& what) {
    ++failed_;
    if (first_error_.empty()) first_error_ = what;
    std::fprintf(stderr, "refresh_bench: %s\n", what.c_str());
  }

  void CheckSnapshot(size_t index, const Snapshot& current,
                     std::vector<Tuple> rows) {
    std::string problem =
        CheckRows(current, std::move(rows), reference_[index]);
    if (!problem.empty()) {
      correct_ = false;
      if (first_error_.empty()) first_error_ = problem;
      std::fprintf(stderr, "refresh_bench: snapshot %zu: %s\n", index,
                   problem.c_str());
    }
  }

  /// Computes every snapshot's reference rows once, before the first
  /// round (every round sees the same snapshots), so no round interleaves
  /// reference work with its refreshes. Also measures the reference time
  /// and the identical-page fraction.
  Status BuildReference() {
    DELEX_ASSIGN_OR_RETURN(ProgramSpec spec, MakeProgram(workload_.program));
    // One thread, like the program: extra threads' malloc arenas made the
    // process's peak RSS vary from run to run.
    Reference reference(std::move(spec));
    CorpusGenerator generator(workload_.profile, options_.seed);
    Snapshot previous = generator.Initial();
    int64_t changed = 0;
    DELEX_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                           reference.Advance(previous, nullptr, &changed));
    reference_.push_back(Canonicalize(std::move(rows)));
    for (int i = 1; i <= workload_.refreshes; ++i) {
      Snapshot current = generator.Evolve(previous);
      for (const Page& page : current.pages()) {
        if (auto idx = previous.FindByUrl(page.url)) {
          ++pages_with_previous_;
          if (previous.pages()[*idx].content == page.content) {
            ++pages_identical_;
          }
        }
      }
      Stopwatch watch;
      DELEX_ASSIGN_OR_RETURN(rows,
                             reference.Advance(current, &previous, &changed));
      reference_ms_.push_back(watch.ElapsedSeconds() * 1e3);
      reference_.push_back(Canonicalize(std::move(rows)));
      previous = std::move(current);
    }
    return Status::OK();
  }

  Status RunRound(int round, TraceMode mode) {
    const std::string dir = run_dir_ + "/round" + std::to_string(round);
    // Each round's work dir is fresh: Prepare resumes learned coefficients
    // from whatever the dir holds, which would change the plans.
    std::error_code ec;
    std::filesystem::remove_all(run_dir_ + "/round" + std::to_string(round - 1),
                                ec);
    CorpusGenerator generator(workload_.profile, options_.seed);
    Snapshot previous = generator.Initial();

    // Set-up: program build, solution construction + Prepare, and the
    // capture-only first snapshot. Corpus generation is excluded.
    Stopwatch setup_watch;
    Result<ProgramSpec> spec = MakeProgram(workload_.program);
    if (!spec.ok()) return spec.status();
    std::unique_ptr<Solution> solution = MakeSolution(*spec, dir);
    RunStats stats;
    Result<std::vector<Tuple>> first =
        solution->RunSnapshot(previous, nullptr, &stats);
    const double setup_s = setup_watch.ElapsedSeconds();
    if (!first.ok()) return first.status();
    setup_s_.push_back(setup_s);

    CheckSnapshot(0, previous, std::move(first).ValueOrDie());

    plans_.emplace_back();
    for (int i = 1; i <= workload_.refreshes; ++i) {
      Snapshot current = generator.Evolve(previous);
      Refresh refresh;
      refresh.round = round;
      refresh.traced = mode != TraceMode::kOff;
      refresh.pages = static_cast<int64_t>(current.NumPages());
      ++attempted_;
      Result<std::vector<Tuple>> rows = TimedRefresh(
          solution.get(), current, previous, mode, &stats, &refresh);
      if (!rows.ok()) {
        // The engine's state after a failed refresh is unknown: end the
        // round; the remaining refreshes of the round count as failed.
        Fail("refresh " + std::to_string(i) + ": " + rows.status().ToString());
        attempted_ += workload_.refreshes - i;
        failed_ += workload_.refreshes - i;
        break;
      }
      CheckSnapshot(static_cast<size_t>(i), current,
                    std::move(rows).ValueOrDie());
      obs::RunReportMeta meta;
      obs::OptimizerReport optimizer;
      solution->DescribeRun(&meta, &optimizer);
      FillLayer(stats, optimizer, &refresh);
      plans_.back().push_back(solution->LastAssignment());
      refreshes_.push_back(std::move(refresh));
      previous = std::move(current);
    }
    int changes = 0;
    for (size_t i = 1; i < plans_.back().size(); ++i) {
      if (plans_.back()[i] != plans_.back()[i - 1]) ++changes;
    }
    plan_changes_.push_back(changes);
    std::vector<double> round_wall;
    for (size_t i = refreshes_.size() - plans_.back().size();
         i < refreshes_.size(); ++i) {
      round_wall.push_back(refreshes_[i].wall_s);
    }
    std::fprintf(stderr,
                 "round %d%s: setup %.3f s, median refresh %.4f s, "
                 "%d plan changes\n",
                 round, mode == TraceMode::kOff ? "" : " (traced)", setup_s,
                 Median(round_wall), changes);
    solution.reset();
    workdir_mb_ = DirMb(dir);
    return Status::OK();
  }

  Result<std::vector<Tuple>> TimedRefresh(Solution* solution,
                                          const Snapshot& current,
                                          const Snapshot& previous,
                                          TraceMode mode, RunStats* stats,
                                          Refresh* refresh) {
    std::map<std::string, int64_t> folded_before;
    int64_t samples_before = 0;
    int64_t lost_before = 0;
    if (mode == TraceMode::kChrome) {
      DELEX_RETURN_NOT_OK(
          obs::TraceRecorder::Global().Start(run_dir_ + "/trace.json"));
    } else if (mode == TraceMode::kProfile) {
      obs::SpanProfiler& profiler = obs::SpanProfiler::Global();
      folded_before = ParseFolded(profiler.FoldedText());
      samples_before = profiler.TotalSamples();
      lost_before = profiler.LostSamples();
      DELEX_RETURN_NOT_OK(profiler.Start(kProfileHz));
    }
    Result<std::vector<Tuple>> rows = Status::OK();
    {
      obs::ScopedTraceSpan span("bench.refresh");
      const double cpu0 = ProcessCpuSeconds();
      Stopwatch watch;
      rows = solution->RunSnapshot(current, &previous, stats);
      refresh->wall_s = watch.ElapsedSeconds();
      refresh->cpu_s = ProcessCpuSeconds() - cpu0;
    }
    SpanTimes spans;
    if (mode == TraceMode::kChrome) {
      obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
      spans = FromTraceEvents(recorder.SnapshotEvents());
      spans.lost = recorder.DroppedEventCount();
      DELEX_RETURN_NOT_OK(recorder.Stop());
    } else if (mode == TraceMode::kProfile) {
      obs::SpanProfiler& profiler = obs::SpanProfiler::Global();
      DELEX_RETURN_NOT_OK(profiler.Stop());
      // ITIMER_PROF ticks at most at the kernel's tick rate, which can be
      // below the requested rate, so samples are scaled to the refresh's
      // measured process CPU time rather than to 1/kProfileHz.
      const int64_t samples = profiler.TotalSamples() - samples_before;
      const double ms_per_sample =
          samples > 0 ? refresh->cpu_s * 1e3 / static_cast<double>(samples)
                      : 0.0;
      spans = FromProfileDelta(folded_before,
                               ParseFolded(profiler.FoldedText()),
                               ms_per_sample);
      spans.lost = profiler.LostSamples() - lost_before;
    }
    if (mode != TraceMode::kOff) FillSpanLayer(spans, refresh);
    return rows;
  }

  /// Per-layer values the program reports itself (RunStats, DescribeRun).
  void FillLayer(const RunStats& stats, const obs::OptimizerReport& optimizer,
                 Refresh* refresh) const {
    std::map<std::string, double>& l = refresh->layer;
    const PhaseBreakdown& p = stats.phases;
    int64_t calls = 0, exact = 0, chars = 0, copied = 0, extracted = 0;
    for (const UnitRunStats& u : stats.units) {
      calls += u.matcher_calls;
      exact += u.exact_region_hits;
      chars += u.chars_extracted;
      copied += u.copied_tuples;
      extracted += u.extracted_tuples;
    }
    l["optimizer.opt_ms"] = p.opt_us / 1e3;
    if (optimizer.cost_drift >= 0) {
      l["optimizer.cost_drift"] = optimizer.cost_drift;
    }
    l["matcher.match_ms"] = p.match_us / 1e3;
    l["matcher.calls"] = static_cast<double>(calls);
    // Exact-region hits skip the matcher, so the share is taken over all
    // region lookups: hits plus matcher calls.
    l["matcher.exact_hit_share"] =
        exact + calls > 0 ? static_cast<double>(exact) / (exact + calls) : 0.0;
    l["extract.extract_ms"] = p.extract_us / 1e3;
    l["extract.chars"] = static_cast<double>(chars);
    l["delex.copy_ms"] = p.copy_us / 1e3;
    l["delex.others_ms"] = p.OthersUs() / 1e3;
    l["delex.reuse_share"] =
        copied + extracted > 0
            ? static_cast<double>(copied) / (copied + extracted)
            : 0.0;
    l["delex.fast_path_share"] =
        stats.pages_with_previous > 0
            ? static_cast<double>(stats.pages_identical) /
                  stats.pages_with_previous
            : 0.0;
    l["delex.page_eval_p50_us"] =
        static_cast<double>(stats.page_eval_hist.Percentile(50));
    l["delex.page_eval_p99_us"] =
        static_cast<double>(stats.page_eval_hist.Percentile(99));
    // Busy share of the (single) page worker over the engine's part of the
    // refresh; the optimizer runs before the pipeline starts.
    const double engine_us = static_cast<double>(p.total_us - p.opt_us);
    l["delex.worker_busy_share"] =
        engine_us > 0 ? stats.page_eval_hist.sum() / engine_us : 0.0;
    l["storage.capture_ms"] = p.capture_us / 1e3;
    l["storage.read_mb"] = stats.reuse_read_io.bytes_read / 1e6;
    l["storage.write_mb"] = stats.reuse_write_io.bytes_written / 1e6;
    l["storage.raw_mb"] = stats.raw_bytes_copied / 1e6;
    l["storage.records_skipped"] =
        static_cast<double>(stats.records_decoded_skipped);
    l["storage.corrupt_drops"] = static_cast<double>(stats.reuse_corrupt_drops);
  }

  /// Per-layer values taken from the trace (or profile) of one refresh.
  static void FillSpanLayer(const SpanTimes& spans, Refresh* refresh) {
    std::map<std::string, double>& l = refresh->layer;
    l["optimizer.observe_pair_ms"] = Get(spans.incl_ms, "opt_observe_pair");
    l["optimizer.choose_ms"] = Get(spans.incl_ms, "opt_choose_assignment");
    l["matcher.ud_ms"] = Get(spans.incl_ms, "match_ud");
    l["matcher.st_ms"] = Get(spans.incl_ms, "match_st");
    l["matcher.ru_ms"] = Get(spans.incl_ms, "match_ru");
    l["delex.prefetch_ms"] = Get(spans.self_ms, "prefetch_page");
    l["delex.eval_ms"] =
        Get(spans.self_ms, "eval_page") + Get(spans.self_ms, "eval_unit");
    l["delex.commit_ms"] = Get(spans.self_ms, "commit_page");
    for (const char* module : kModules) {
      double self = 0;
      for (const auto& [name, ms] : spans.self_ms) {
        if (std::strcmp(ModuleOf(name), module) == 0) self += ms;
      }
      l[std::string(module) + ".self_ms"] = self;
    }
    l["obs.trace_dropped_events"] = static_cast<double>(spans.lost);
  }

  std::vector<Metric> EndToEnd() const {
    std::vector<double> wall, cpu;
    double pages = 0, seconds = 0;
    for (const Refresh& r : refreshes_) {
      wall.push_back(r.wall_s);
      cpu.push_back(r.cpu_s);
      pages += static_cast<double>(r.pages);
      seconds += r.wall_s;
    }
    return {
        {"setup_s", Median(setup_s_), "s"},
        {"snapshot_s", Median(wall), "s"},
        {"pages_per_s", seconds > 0 ? pages / seconds : 0.0, "pages/s"},
        {"snapshot_cpu_s", Median(cpu), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"workdir_mb", workdir_mb_, "MB"},
    };
  }

  std::vector<Metric> PerLayer() const {
    // Unit of each per-layer value; the order is the output order.
    static const std::vector<std::pair<std::string, const char*>> kLayer = {
        {"optimizer.opt_ms", "ms"},
        {"optimizer.observe_pair_ms", "ms"},
        {"optimizer.choose_ms", "ms"},
        {"optimizer.cost_drift", "ratio"},
        {"optimizer.self_ms", "ms"},
        {"matcher.match_ms", "ms"},
        {"matcher.ud_ms", "ms"},
        {"matcher.st_ms", "ms"},
        {"matcher.ru_ms", "ms"},
        {"matcher.calls", "count"},
        {"matcher.exact_hit_share", "ratio"},
        {"matcher.self_ms", "ms"},
        {"extract.extract_ms", "ms"},
        {"extract.chars", "count"},
        {"extract.self_ms", "ms"},
        {"delex.copy_ms", "ms"},
        {"delex.others_ms", "ms"},
        {"delex.reuse_share", "ratio"},
        {"delex.fast_path_share", "ratio"},
        {"delex.prefetch_ms", "ms"},
        {"delex.eval_ms", "ms"},
        {"delex.commit_ms", "ms"},
        {"delex.page_eval_p50_us", "us"},
        {"delex.page_eval_p99_us", "us"},
        {"delex.worker_busy_share", "ratio"},
        {"delex.self_ms", "ms"},
        {"storage.capture_ms", "ms"},
        {"storage.read_mb", "MB"},
        {"storage.write_mb", "MB"},
        {"storage.raw_mb", "MB"},
        {"storage.records_skipped", "count"},
        {"storage.corrupt_drops", "count"},
        {"storage.self_ms", "ms"},
        {"bench.self_ms", "ms"},
        {"obs.trace_dropped_events", "count"},
    };
    std::vector<Metric> out;
    for (const auto& [name, unit] : kLayer) {
      std::vector<double> values;
      for (const Refresh& r : refreshes_) {
        auto it = r.layer.find(name);
        if (it != r.layer.end()) values.push_back(it->second);
      }
      // Dropped events add up; everything else is a per-refresh median.
      double value = Median(values);
      if (name == "obs.trace_dropped_events") {
        value = 0;
        for (double v : values) value += v;
      }
      out.push_back({name, value, unit});
    }
    out.push_back({"optimizer.plan_changes",
                   Median({plan_changes_.begin(), plan_changes_.end()}),
                   "count"});
    out.push_back({"baseline.reference_ms", Median(reference_ms_), "ms"});
    // The first round pays the process's one-time warm-up and is always
    // untraced, so it is left out of the comparison.
    std::vector<double> traced, untraced;
    for (const Refresh& r : refreshes_) {
      if (r.traced) {
        traced.push_back(r.wall_s);
      } else if (r.round > 0) {
        untraced.push_back(r.wall_s);
      }
    }
    const double base = Median(untraced);
    const double overhead_pct =
        base > 0 ? (Median(traced) / base - 1.0) * 100.0 : 0.0;
    out.push_back({"obs.trace_overhead_pct", overhead_pct, "%"});
    return out;
  }

  Options options_;
  Workload workload_;
  std::string run_dir_;
  std::vector<std::vector<Tuple>> reference_;  ///< canonical rows per snapshot
  std::vector<double> reference_ms_;
  std::vector<double> setup_s_;
  std::vector<Refresh> refreshes_;
  std::vector<std::vector<std::string>> plans_;  ///< per round, per refresh
  std::vector<int> plan_changes_;                ///< per round
  int64_t pages_with_previous_ = 0;  ///< over the reference's snapshots
  int64_t pages_identical_ = 0;
  double workdir_mb_ = 0;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::string first_error_;
};

// ---------------------------------------------------------------------------
// Self-test: the reference and the check themselves.

int SelfTest(const std::string& work_root) {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  struct Case {
    std::string program;
    DatasetProfile profile;
    int snapshots;
  };
  std::vector<Case> cases = {{"chair", DatasetProfile::DBLife(), 5},
                             {"play", DatasetProfile::Wikipedia(), 4}};
  cases[0].profile.num_sources = 40;
  cases[1].profile.num_sources = 30;
  for (const Case& c : cases) {
    Result<ProgramSpec> spec = MakeProgram(c.program);
    if (!spec.ok()) {
      expect(false, c.program + ": MakeProgram: " + spec.status().ToString());
      continue;
    }
    const std::string dir = work_root + "/selftest-" + c.program + "-" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    std::unique_ptr<Solution> delex = MakeDelexSolution(*spec, dir);
    NoReuseRunner full(spec->plan);
    Reference reference(*spec);
    CorpusGenerator generator(c.profile, /*seed=*/7);
    std::optional<Snapshot> previous;
    Snapshot current = generator.Initial();
    for (int i = 0; i < c.snapshots; ++i) {
      const std::string tag = c.program + " snapshot " + std::to_string(i);
      int64_t changed = 0;
      Result<std::vector<Tuple>> incremental = reference.Advance(
          current, previous ? &*previous : nullptr, &changed);
      Result<std::vector<Tuple>> scratch = full.RunSnapshot(current, nullptr);
      if (!incremental.ok() || !scratch.ok()) {
        expect(false, tag + ": reference failed");
        break;
      }
      const std::vector<Tuple> want =
          Canonicalize(std::move(incremental).ValueOrDie());
      expect(SameResults(want, Canonicalize(std::move(scratch).ValueOrDie())),
             tag + ": incremental reference == full No-reuse run (" +
                 std::to_string(changed) + " pages evaluated)");
      Result<std::vector<Tuple>> got =
          delex->RunSnapshot(current, previous ? &*previous : nullptr, nullptr);
      if (!got.ok()) {
        expect(false, tag + ": Delex failed: " + got.status().ToString());
        break;
      }
      std::vector<Tuple> rows = std::move(got).ValueOrDie();
      const std::string problem = CheckRows(current, rows, want);
      expect(problem.empty(), tag + ": Delex rows pass the check" +
                                  (problem.empty() ? "" : ": " + problem));

      std::vector<Tuple> dropped = rows;
      dropped.pop_back();
      expect(!CheckRows(current, dropped, want).empty(),
             tag + ": check rejects a dropped row");
      // Shift one span by one character: inside the page it must differ
      // from the reference, at the page end it leaves the page.
      std::vector<Tuple> shifted = rows;
      bool has_span = false;
      for (Tuple& row : shifted) {
        for (size_t k = 1; k < row.size() && !has_span; ++k) {
          if (auto* span = std::get_if<TextSpan>(&row[k])) {
            *span = span->Shift(1);
            has_span = true;
          }
        }
        if (has_span) break;
      }
      expect(has_span && !CheckRows(current, shifted, want).empty(),
             tag + ": check rejects a shifted span");
      std::vector<Tuple> foreign = rows;
      foreign.front()[0] = int64_t{-1};
      expect(!CheckRows(current, foreign, want).empty(),
             tag + ": check rejects a row whose did is not in the snapshot");

      Snapshot next = generator.Evolve(current);
      previous = std::move(current);
      current = std::move(next);
    }
    delex.reset();
    std::filesystem::remove_all(dir);
  }
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: refresh_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-root DIR] [--git-sha SHA] "
               "[--solution delex|noreuse|shortcut]\n"
               "       refresh_bench --selftest [--work-root DIR]\n"
               "workloads: dblife-chair wiki-play\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      options.trace = value != "0";
    } else if (arg == "--work-root") {
      options.work_root = value;
    } else if (arg == "--git-sha") {
      options.git_sha = value;
    } else if (arg == "--solution") {
      options.solution = value;
    } else {
      return Usage();
    }
  }
  std::filesystem::create_directories(options.work_root);
  if (selftest) return SelfTest(options.work_root);
  std::optional<Workload> workload = MakeWorkload(options.workload);
  if (!workload || (options.solution != "delex" &&
                    options.solution != "noreuse" &&
                    options.solution != "shortcut")) {
    return Usage();
  }
  Runner runner(options, *workload);
  Status st = runner.Run();
  if (!st.ok()) {
    std::fprintf(stderr, "refresh_bench: %s\n", st.ToString().c_str());
    return 1;
  }
  runner.PrintResult();
  return 0;
}

}  // namespace
}  // namespace delex

int main(int argc, char** argv) { return delex::Main(argc, argv); }
