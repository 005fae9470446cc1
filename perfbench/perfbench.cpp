//===- perfbench/perfbench.cpp - StrataIB benchmark driver ------*- C++ -*-===//
//
// Part of StrataIB.
//
// Runs one benchmark workload (see README.md) in this process, one
// thread at a time (the service's single worker runs while the caller
// waits), and prints a JSON document of raw measurements on stdout:
// per-operation host times, set-up repetitions, modeled cycle counts,
// counters read through public accessors, per-layer self times from the
// benchmark's own span recorder, and the correctness tally. run.py turns
// the document into metrics.
//
//   strataib_perfbench --workload ib_dense --seed 1 --seconds 25 --trace 0
//
// Everything is timed from outside the simulator: spans wrap calls into
// the public API of each module (workloads, vm, core, service) and
// counters come from SdtEngine::stats()/planStats(), the IB handlers and
// the timing model. No trace sink or plugin is ever attached, so every
// engine runs the plan engine exactly as a user's run would.
//
//===----------------------------------------------------------------------===//

#include "arch/MachineModel.h"
#include "arch/Timing.h"
#include "core/SdtEngine.h"
#include "exec/ExecutionPlan.h"
#include "service/EngineServer.h"
#include "service/Snapshot.h"
#include "service/ZipfTrace.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "vm/GuestVM.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sched.h>
#include <string>
#include <sys/resource.h>
#include <type_traits>
#include <vector>

using namespace sdt;

namespace {

// --- Command line -----------------------------------------------------------

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  /// Index of one operation whose reference output is deliberately
  /// corrupted before comparison (the failure-counting self-test); -1 = none.
  int64_t CorruptOp = -1;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string SpansOut;
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: strataib_perfbench --workload "
               "<ib_dense|loop_dense|code_churn|tenant_warm> --seed <n> "
               "--seconds <s> --trace <0|1> [--corrupt-op <i>] "
               "[--spans-out <file>]\n",
               Why);
  std::exit(2);
}

bool parseInt(const char *S, int64_t Lo, int64_t Hi, int64_t &Out) {
  char *End = nullptr;
  long long V = std::strtoll(S, &End, 10);
  if (End == S || *End != '\0' || V < Lo || V > Hi)
    return false;
  Out = V;
  return true;
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveWorkload = false, HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *V = Argv[++I];
    int64_t N = 0;
    if (Flag == "--workload") {
      A.Workload = V;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      if (!parseInt(V, 0, INT64_MAX, N))
        usage("--seed must be a non-negative integer");
      A.Seed = static_cast<uint64_t>(N);
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      char *End = nullptr;
      A.Seconds = std::strtod(V, &End);
      if (End == V || *End != '\0' || !(A.Seconds >= 0.0) ||
          A.Seconds > 600.0)
        usage("--seconds must be a number in [0, 600]");
    } else if (Flag == "--trace") {
      if (!parseInt(V, 0, 1, N))
        usage("--trace must be 0 or 1");
      A.Trace = N == 1;
    } else if (Flag == "--corrupt-op") {
      if (!parseInt(V, -1, INT64_MAX, N))
        usage("--corrupt-op must be an operation index");
      A.CorruptOp = N;
    } else if (Flag == "--spans-out") {
      A.SpansOut = V;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed)
    usage("--workload and --seed are required");
  return A;
}

/// The knobs the repository's experiment harness reads from the
/// environment. This driver never reads them, but a user who sets one
/// expects it to apply; refusing keeps a stray STRATAIB_TRACE or
/// STRATAIB_EXEC from silently measuring a different program.
void refuseEnvironmentKnobs() {
  static const char *const Knobs[] = {
      "STRATAIB_EXEC",         "STRATAIB_PLUGINS",      "STRATAIB_TRACE",
      "STRATAIB_CACHE_BYTES",  "STRATAIB_CACHE_POLICY", "STRATAIB_PREDICTOR",
      "STRATAIB_BTB_ENTRIES",  "STRATAIB_SCALE",        "STRATAIB_JOBS"};
  for (const char *K : Knobs)
    if (const char *V = std::getenv(K); V && *V) {
      std::fprintf(stderr,
                   "perfbench: %s is set; the benchmark runs a fixed "
                   "configuration. Unset it and run again.\n",
                   K);
      std::exit(2);
    }
}

// --- Spans ------------------------------------------------------------------

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call into the simulator, or one benchmark phase.
struct Span {
  const char *Name; ///< "<layer>.<call>"; the layer is the prefix.
  int64_t Start = 0, End = 0;
  int32_t Parent = -1;
  int32_t Op = -1; ///< Operation index; -1 outside operations.
};

/// In-memory span store. Recording is switched per phase: the traced run
/// alternates recorded and unrecorded passes to measure its own overhead.
struct SpanRecorder {
  bool On = false;
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
};
SpanRecorder Recorder;

/// Times one call; records a span around it while the recorder is on.
class Timed {
public:
  Timed(const char *Name, int32_t Op = -1) {
    if (Recorder.On) {
      Id = static_cast<int32_t>(Recorder.Spans.size());
      Recorder.Spans.push_back(
          {Name, 0, 0, Recorder.Open.empty() ? -1 : Recorder.Open.back(),
           Op});
      Recorder.Open.push_back(Id);
    }
    Start = nowNs();
  }
  ~Timed() { stop(); }
  Timed(const Timed &) = delete;
  Timed &operator=(const Timed &) = delete;

  /// Ends the span (idempotent) and returns its duration in ns.
  int64_t stop() {
    if (End == 0) {
      End = nowNs();
      if (Id >= 0) {
        Recorder.Spans[Id].Start = Start;
        Recorder.Spans[Id].End = End;
        Recorder.Open.pop_back();
      }
    }
    return End - Start;
  }

private:
  int32_t Id = -1;
  int64_t Start = 0, End = 0;
};

std::string layerOf(const char *Name) {
  const char *Dot = std::strchr(Name, '.');
  return Dot ? std::string(Name, Dot) : std::string(Name);
}

/// Self time per layer: each span's duration minus the part its direct
/// children cover (children of one span never overlap: one thread).
std::map<std::string, int64_t> selfTimeByLayer() {
  std::vector<int64_t> ChildNs(Recorder.Spans.size(), 0);
  for (const Span &S : Recorder.Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.End - S.Start;
  std::map<std::string, int64_t> Self;
  for (size_t I = 0; I != Recorder.Spans.size(); ++I) {
    const Span &S = Recorder.Spans[I];
    Self[layerOf(S.Name)] += S.End - S.Start - ChildNs[I];
  }
  return Self;
}

bool writeSpans(const std::string &Path) {
  std::ofstream Out(Path);
  for (const Span &S : Recorder.Spans)
    Out << "{\"name\":\"" << S.Name << "\",\"start_ns\":" << S.Start
        << ",\"end_ns\":" << S.End << ",\"parent\":" << S.Parent
        << ",\"op\":" << S.Op << "}\n";
  return static_cast<bool>(Out);
}

// --- Workload definitions ---------------------------------------------------

/// One guest program and its native reference run.
struct Program {
  const char *Name;
  uint32_t Scale;
  isa::Program Image;
  vm::RunResult Ref;
  uint64_t NativeCycles = 0;
};

/// One translated configuration of one program.
struct Cell {
  std::string Label;
  size_t Prog;
  core::SdtOptions Opts;
};

/// What one --workload runs: translated cells, or a multi-tenant service
/// whose tenants are the programs.
struct Workload {
  std::vector<Program> Programs;
  std::vector<Cell> Cells;
  std::vector<size_t> Tenants; ///< Program index per tenant.
};

core::SdtOptions mechanism(const std::string &Label) {
  core::SdtOptions O;
  O.Engine = core::ExecEngineKind::Plan;
  if (Label == "dispatcher")
    O.Mechanism = core::IBMechanism::Dispatcher;
  else if (Label == "sieve")
    O.Mechanism = core::IBMechanism::Sieve;
  else if (Label == "ibtc+inline2")
    O.InlineCacheDepth = 2;
  return O;
}

// Scales are chosen so one operation takes 5-30 ms on a 2020s x86 core:
// long enough that run() dwarfs the clock reads around it, short enough
// that every operation is timed in dozens of passes spread over the run.
// bigcode at scale 31 overflows the 64 KiB cache by a few evictions; at
// 32 it thrashes at ~1.5 guest MIPS and would swamp the pass.
constexpr uint32_t IbDenseScale = 20;
constexpr uint32_t LoopDenseScale = 10;
constexpr uint32_t TenantScale = 4;

/// Admissions per pass of the service: enough that every tenant is
/// admitted several times under any seed, so the per-tenant slowdowns
/// barely move with the seed.
constexpr uint32_t TenantSessions = 128;
/// Service sizing: each tenant's translated footprint is 0.5-1.5 KiB, so
/// an 8 KiB request under a 12 KiB shared budget leaves room for only
/// some tenants' retained warm state, and the arbiter must reclaim the
/// least recently active.
constexpr uint32_t TenantRequestBytes = 8 * 1024;
constexpr uint32_t TenantBudgetBytes = 12 * 1024;
constexpr uint32_t TenantZipfSHundredths = 120;

size_t addProgram(Workload &W, const char *Name, uint32_t Scale) {
  W.Programs.push_back({Name, Scale, {}, {}, 0});
  return W.Programs.size() - 1;
}

/// IB-dense SPEC proxies under the paper's four mechanisms.
void addIbDense(Workload &W) {
  for (const char *Name : {"gcc", "perlbmk", "eon", "vortex"}) {
    size_t P = addProgram(W, Name, IbDenseScale);
    for (const char *M : {"dispatcher", "ibtc", "sieve", "ibtc+inline2"})
      W.Cells.push_back({std::string(Name) + "/" + M, P, mechanism(M)});
  }
}

/// Loop-dense SPEC proxies: the control for IB-resolution work.
void addLoopDense(Workload &W) {
  for (const char *Name : {"mcf", "bzip2", "gzip"})
    W.Cells.push_back({std::string(Name) + "/ibtc",
                       addProgram(W, Name, LoopDenseScale),
                       mechanism("ibtc")});
}

/// Translation churn: a small fifo cache with traces, opt and spec on.
void addCodeChurn(Workload &W) {
  core::SdtOptions O = mechanism("ibtc");
  O.FragmentCacheBytes = 64 * 1024;
  O.CachePolicy = cachemgr::CachePolicyKind::Fifo;
  O.EnableTraces = true;
  O.OptimizeTraces = true;
  O.TraceSpeculate = true;
  for (auto [Name, Scale] : {std::pair<const char *, uint32_t>{"bigcode", 31},
                             {"hotcold", 10},
                             {"smctable", 10}})
    W.Cells.push_back({std::string(Name) + "/ibtc+fifo64k+opt",
                       addProgram(W, Name, Scale), O});
}

/// Service tenants: the first six suite workloads, as in E18.
void addTenants(Workload &W) {
  const std::vector<workloads::WorkloadInfo> &Suite = workloads::allWorkloads();
  for (size_t T = 0; T != 6; ++T)
    W.Tenants.push_back(addProgram(W, Suite[T].Name, TenantScale));
}

bool defineWorkload(const std::string &Name, Workload &W) {
  if (Name == "ib_dense")
    addIbDense(W);
  else if (Name == "loop_dense")
    addLoopDense(W);
  else if (Name == "code_churn")
    addCodeChurn(W);
  else if (Name == "tenant_warm")
    addTenants(W);
  else
    return false;
  return true;
}

// --- Correctness and modeled digests ----------------------------------------

/// Counts operations and their failures against the GuestVM references.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< First few, for the report.
  int64_t CorruptOp = -1;

  void fail(const std::string &What) {
    ++Failed;
    if (Failures.size() < 8)
      Failures.push_back(What);
  }

  /// One operation: \p Got must finish normally and match \p Ref on exit
  /// reason and code, output, checksum and instruction count.
  bool check(const std::string &What, const vm::RunResult &Got,
             const vm::RunResult &Ref, const std::string &EngineError = "") {
    const bool Corrupt = static_cast<int64_t>(Attempted) == CorruptOp;
    ++Attempted;
    std::string Why;
    if (!EngineError.empty())
      Why = "engine error: " + EngineError;
    else if (!Got.finishedNormally())
      Why = std::string("did not finish: ") + vm::exitReasonName(Got.Reason) +
            " " + Got.FaultMessage;
    else if (Got.Reason != Ref.Reason || Got.ExitCode != Ref.ExitCode)
      Why = "exit differs from GuestVM";
    else if (Corrupt || Got.Output != Ref.Output)
      Why = "output differs from GuestVM";
    else if (Got.Checksum != Ref.Checksum)
      Why = "checksum differs from GuestVM";
    else if (Got.InstructionCount != Ref.InstructionCount)
      Why = "instruction count differs from GuestVM";
    if (Why.empty())
      return true;
    fail(What + ": " + Why);
    return false;
  }
};

/// FNV-1a over the modeled numbers of one operation.
struct Digest {
  uint64_t H = 0xcbf29ce484222325ULL;
  void bytes(const void *P, size_t N) {
    const auto *B = static_cast<const unsigned char *>(P);
    for (size_t I = 0; I != N; ++I)
      H = (H ^ B[I]) * 0x100000001b3ULL;
  }
  void add(uint64_t V) { bytes(&V, sizeof V); }
  /// Every SdtStats counter, by construction: the struct is hashed as
  /// raw bytes, which is exact because it has no padding.
  void add(const core::SdtStats &S) {
    static_assert(std::has_unique_object_representations_v<core::SdtStats>,
                  "SdtStats must stay padding-free to be digested as bytes");
    bytes(&S, sizeof S);
  }
  std::string hex() const {
    char Buf[20];
    std::snprintf(Buf, sizeof Buf, "%016llx",
                  static_cast<unsigned long long>(H));
    return Buf;
  }
};

constexpr size_t NumCategories =
    static_cast<size_t>(arch::CycleCategory::NumCategories);

/// Counters summed over one pass; identical in every pass of a run.
using Counters = std::map<std::string, uint64_t>;

void addCycles(Counters &C, const uint64_t *ByCategory) {
  for (size_t I = 0; I != NumCategories; ++I)
    C[std::string("cycles.") +
      arch::cycleCategoryName(static_cast<arch::CycleCategory>(I))] +=
        ByCategory[I];
}

void addStats(Counters &C, const core::SdtStats &S) {
  C["ib_execs"] += S.ibExecTotal();
  C["dispatch_entries"] += S.DispatchEntries;
  C["fragments_translated"] += S.FragmentsTranslated;
  C["code_write_invalidations"] += S.CodeWriteInvalidations;
  C["fragments_invalidated_by_write"] += S.FragmentsInvalidatedByWrite;
  C["flushes"] += S.Flushes;
  C["partial_evictions"] += S.PartialEvictions;
  C["evicted_bytes"] += S.EvictedBytes;
  C["retranslations"] += S.RetranslationsAfterEviction;
  C["links_unlinked"] += S.LinksUnlinked;
  C["traces_built"] += S.TracesBuilt;
  C["traces_optimized"] += S.TracesOptimized;
  C["trace_instrs_eliminated"] += S.traceInstrsEliminated();
  C["spec_guard_hits"] += S.SpecGuardHits;
  C["spec_guard_misses"] += S.SpecGuardMisses;
  C["rehydrated_fragments"] += S.RehydratedFragments;
}

// --- Phases -----------------------------------------------------------------

/// Host time of one set-up repetition, split by layer.
struct SetupRep {
  int64_t TotalNs = 0, BuildNs = 0, NativeNs = 0, CreateNs = 0;
  int64_t NativeUntimedNs = 0; ///< Traced run only.
};

/// One timed operation: a cell run or a tenant session.
struct Sample {
  uint32_t Op; ///< Cell index, or cell count + session index.
  uint32_t Pass;
  uint64_t Instrs;
  int64_t Ns;
  bool Traced;
};

/// Host time of one pass outside the samples, by call.
struct PassTimes {
  int64_t CreateNs = 0;   ///< SdtEngine::create for the cells.
  int64_t RunNs = 0;      ///< SdtEngine::run for the cells.
  int64_t RegisterNs = 0; ///< The pass's server and its registerTenant.
  int64_t RunTraceNs = 0; ///< EngineServer::runTrace for the sessions.
  bool Traced = false;
};

/// The cell a tenant's sessions belong to.
std::string tenantCell(const char *Tenant) {
  return std::string("tenant:") + Tenant;
}

/// Translated and native cycles of one operation of the warm-up pass,
/// keyed by the cell it belongs to (a tenant, for sessions).
struct ModeledOp {
  uint64_t Sdt, Native;
  std::string Cell;
};

struct Results {
  std::vector<SetupRep> Setup;
  std::vector<Sample> Samples;
  std::vector<PassTimes> Passes;
  std::vector<ModeledOp> Modeled;
  std::vector<std::pair<std::string, std::string>> Digests;
  std::vector<uint32_t> Admissions; ///< Tenant per session.
  uint64_t NondeterministicOps = 0;
  uint64_t EngineDeoptCells = 0;
  int64_t PeakRssKb = 0; ///< After the first set-up and the warm-up pass.
  Counters Count;
  /// Traced-run differentials.
  std::vector<int64_t> SwitchNs; ///< Per cell: one switch-engine run.
  int64_t EncodeNs = 0, DecodeNs = 0, PrewarmNs = 0;
  uint64_t SnapshotBytes = 0;
};

/// Set-up repetitions per run; the median is reported.
constexpr unsigned SetupReps = 7;

/// Seeded Fisher-Yates permutation of [0, N); the identity without \p R.
std::vector<uint32_t> shuffled(uint32_t N, Rng *R) {
  std::vector<uint32_t> Order(N);
  for (uint32_t I = 0; I != N; ++I)
    Order[I] = I;
  for (uint32_t I = N; R && I > 1; --I)
    std::swap(Order[I - 1], Order[R->nextBelow(I)]);
  return Order;
}

/// The CPUs this process may run on.
std::vector<int> allowedCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  std::vector<int> Cpus;
  if (sched_getaffinity(0, sizeof Set, &Set) == 0)
    for (int C = 0; C != CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
  return Cpus;
}

/// Restricts this thread, and the threads it starts, to \p Cpus.
void setCpus(const std::vector<int> &Cpus) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  // Best effort: without affinity control every pass runs wherever the
  // scheduler puts it.
  (void)sched_setaffinity(0, sizeof Set, &Set);
}

int64_t peakRssKb() {
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  return RU.ru_maxrss;
}

/// Everything a cell reads back after its run, digested.
std::string digestEngine(core::SdtEngine &E, const arch::TimingModel &T,
                         const vm::RunResult &R) {
  Digest D;
  D.add(T.totalCycles());
  for (size_t I = 0; I != NumCategories; ++I)
    D.add(T.cycles(static_cast<arch::CycleCategory>(I)));
  D.add(E.stats());
  for (core::IBHandler *H : E.allHandlers())
    for (; H; H = H->backingHandler()) {
      D.add(H->lookups());
      D.add(H->hits());
    }
  const arch::BranchPredictor &BP = T.predictor();
  for (uint64_t V :
       {BP.conditionalMispredicts(), BP.indirectMispredicts(),
        BP.returnMispredicts(), BP.indirectLookups(), BP.returnLookups(),
        T.icache().hits(), T.icache().misses(), T.dcache().hits(),
        T.dcache().misses(), R.InstructionCount})
    D.add(V);
  return D.hex();
}

vm::RunResult runTimed(core::SdtEngine &E) {
  Timed T("core.SdtEngine.run");
  return E.run();
}

Expected<std::unique_ptr<core::SdtEngine>>
createTimed(const isa::Program &P, const core::SdtOptions &O,
            const vm::ExecOptions &Exec, int64_t *Ns = nullptr,
            int32_t Op = -1) {
  Timed T("core.SdtEngine.create", Op);
  auto E = core::SdtEngine::create(P, O, Exec);
  if (Ns)
    *Ns += T.stop();
  return E;
}

/// Runs one workload: set-up, passes, and the traced run's differentials.
class Bench {
public:
  Bench(const Args &A, Workload &W, Tally &Tal, Results &Res)
      : A(A), W(W), Tal(Tal), Res(Res), Model(arch::x86Model()),
        FirstDigest(W.Cells.size()), OrderRng(A.Seed) {
    if (!W.Tenants.empty())
      Res.Admissions =
          service::zipfTrace(static_cast<uint32_t>(W.Tenants.size()),
                             TenantSessions, TenantZipfSHundredths, A.Seed);
  }

  /// Runs the set-up, a warm-up pass (correctness-checked and digested,
  /// not timed), then timed passes until A.Seconds have elapsed, at
  /// least two so a traced run has a recorded and an unrecorded pass.
  ///
  /// On a shared machine each CPU is slowed by other load on its own
  /// schedule: one CPU can run the same cells at 60% of another's speed
  /// for minutes, and the scheduler rarely moves a busy thread. So the
  /// timed passes rotate over the allowed CPUs, and each operation's
  /// fastest pass then comes from the least loaded one. For the same
  /// reason the remaining set-up repetitions are spread evenly over the
  /// timed passes, and their median is reported.
  bool run() {
    if (!setup())
      return false;
    pass(0, /*Warmup=*/true);
    // Peak memory of one set-up and one pass. Later passes repeat the
    // same work, but glibc's adaptive mmap threshold then serves the
    // 16 MiB guest memories from a heap whose fragmentation depends on
    // the seeded order: 20 or 36 MB for the same cells.
    Res.PeakRssKb = peakRssKb();
    const std::vector<int> Cpus = allowedCpus();
    const int64_t Begin = nowNs();
    const int64_t Length = static_cast<int64_t>(A.Seconds * 1e9);
    unsigned Reps = 1;
    for (uint32_t P = 1; P <= 2 || nowNs() < Begin + Length; ++P) {
      if (!Cpus.empty())
        setCpus({Cpus[P % Cpus.size()]});
      if (Reps < SetupReps && nowNs() >= Begin + Length / SetupReps * Reps) {
        Recorder.On = A.Trace;
        if (!setup())
          return false;
        ++Reps;
      }
      // The traced run records every other pass; the difference between
      // recorded and unrecorded passes is the tracing overhead.
      Recorder.On = A.Trace && P % 2 == 1;
      Res.Passes.push_back({});
      Res.Passes.back().Traced = Recorder.On;
      Timed T("bench.pass");
      pass(P, /*Warmup=*/false);
    }
    if (!Cpus.empty())
      setCpus(Cpus);
    Recorder.On = A.Trace;
    for (; Reps < SetupReps; ++Reps)
      if (!setup())
        return false;
    if (A.Trace) {
      Timed T("bench.differential");
      switchDifferential();
      snapshotDifferential();
    }
    return true;
  }

private:
  /// Everything before the first translated guest instruction.
  bool setup() {
    SetupRep Rep;
    Timed Total("bench.setup");
    if (!buildPrograms(Rep))
      return false;
    for (const Cell &C : W.Cells) {
      arch::TimingModel Timing(Model);
      vm::ExecOptions Exec;
      Exec.Timing = &Timing;
      auto E = createTimed(W.Programs[C.Prog].Image, C.Opts, Exec,
                           &Rep.CreateNs);
      if (!E) {
        std::fprintf(stderr, "perfbench: %s: %s\n", C.Label.c_str(),
                     E.error().message().c_str());
        return false;
      }
    }
    if (!W.Tenants.empty())
      makeServer(Rep.CreateNs);
    Rep.TotalNs = Total.stop();
    if (A.Trace && !runNativeUntimed(Rep))
      return false;
    Res.Setup.push_back(Rep);
    return true;
  }

  /// Builds every program and runs its native reference under the
  /// timing model.
  bool buildPrograms(SetupRep &Rep) {
    for (Program &P : W.Programs) {
      Timed T("workloads.buildWorkload");
      Expected<isa::Program> Img = workloads::buildWorkload(P.Name, P.Scale);
      Rep.BuildNs += T.stop();
      if (!Img) {
        std::fprintf(stderr, "perfbench: %s\n", Img.error().message().c_str());
        return false;
      }
      P.Image = std::move(*Img);
    }
    for (Program &P : W.Programs) {
      arch::TimingModel Timing(Model);
      vm::ExecOptions Exec;
      Exec.Timing = &Timing;
      Timed Create("vm.GuestVM.create");
      auto VM = vm::GuestVM::create(P.Image, Exec);
      Rep.NativeNs += Create.stop();
      if (!VM) {
        std::fprintf(stderr, "perfbench: %s\n", VM.error().message().c_str());
        return false;
      }
      Timed Run("vm.GuestVM.run");
      P.Ref = (*VM)->run();
      Rep.NativeNs += Run.stop();
      P.NativeCycles = Timing.totalCycles();
      if (!P.Ref.finishedNormally()) {
        std::fprintf(stderr, "perfbench: native %s did not finish: %s\n",
                     P.Name, P.Ref.FaultMessage.c_str());
        return false;
      }
    }
    return true;
  }

  /// Traced run only: the native runs again without a timing model, so
  /// arch.native_timing_ms can split the timing model's host cost out.
  bool runNativeUntimed(SetupRep &Rep) {
    for (const Program &P : W.Programs) {
      Timed Create("vm.GuestVM.create");
      auto VM = vm::GuestVM::create(P.Image, vm::ExecOptions());
      Rep.NativeUntimedNs += Create.stop();
      Timed Run("vm.GuestVM.run");
      vm::RunResult R = (*VM)->run();
      Rep.NativeUntimedNs += Run.stop();
      if (R.Checksum != P.Ref.Checksum) {
        std::fprintf(stderr, "perfbench: untimed native %s diverged\n",
                     P.Name);
        return false;
      }
    }
    return true;
  }

  std::unique_ptr<service::EngineServer> makeServer(int64_t &Ns) {
    service::ServerConfig SC;
    SC.Mode = service::ArbiterMode::SharedBudget;
    SC.GlobalCacheBytes = TenantBudgetBytes;
    SC.MaxTenants = static_cast<uint32_t>(W.Tenants.size());
    SC.MinGrantBytes = 4096;
    SC.WarmStart = true;
    SC.Workers = 1;
    // Sessions are admitted one runTrace call at a time so each one is
    // timed on its own; a window of one makes that explicit.
    SC.AdmissionWindow = 1;
    Timed T("service.EngineServer.registerTenant");
    auto S = std::make_unique<service::EngineServer>(SC);
    for (size_t P : W.Tenants)
      S->registerTenant(W.Programs[P].Name, W.Programs[P].Image, TenantOpts,
                        Model, TenantRequestBytes);
    Ns += T.stop();
    return S;
  }

  /// The warm-up pass runs the cells in definition order, so that the
  /// set-up and it allocate the same way for every seed.
  void pass(uint32_t P, bool Warmup) {
    const uint32_t N = static_cast<uint32_t>(W.Cells.size());
    for (uint32_t CI : Warmup ? shuffled(N, nullptr) : shuffled(N, &OrderRng))
      runCell(CI, P, Warmup);
    if (!W.Tenants.empty())
      runSessions(P, Warmup);
  }

  void runCell(uint32_t CI, uint32_t Pass, bool Warmup) {
    const Cell &C = W.Cells[CI];
    const Program &P = W.Programs[C.Prog];
    const int32_t Op = static_cast<int32_t>(CI);
    arch::TimingModel Timing(Model);
    vm::ExecOptions Exec;
    Exec.Timing = &Timing;
    int64_t CreateNs = 0;
    auto EOr = createTimed(P.Image, C.Opts, Exec, &CreateNs, Op);
    if (!EOr) {
      ++Tal.Attempted;
      Tal.fail(C.Label + ": " + EOr.error().message());
      return;
    }
    core::SdtEngine &E = **EOr;
    Timed Run("core.SdtEngine.run", Op);
    vm::RunResult R = E.run();
    int64_t RunNs = Run.stop();
    Tal.check(C.Label, R, P.Ref);

    const exec::PlanStats *PS = [&] {
      Timed T("core.SdtEngine.planStats", Op);
      return E.planStats();
    }();
    core::SdtStats S = [&] {
      Timed T("core.SdtEngine.stats", Op);
      return E.stats();
    }();
    std::string D = digestEngine(E, Timing, R);
    if (!Warmup) {
      if (D != FirstDigest[CI]) {
        ++Res.NondeterministicOps;
        Tal.fail(C.Label + ": modeled numbers differ between passes");
      }
      Res.Passes.back().CreateNs += CreateNs;
      Res.Passes.back().RunNs += RunNs;
      Res.Samples.push_back({CI, Pass, R.InstructionCount, RunNs, Recorder.On});
      return;
    }
    FirstDigest[CI] = D;
    Res.Digests.push_back({C.Label, D});
    Res.Modeled.push_back({Timing.totalCycles(), P.NativeCycles, C.Label});
    if (E.activeEngine() != core::ExecEngineKind::Plan)
      ++Res.EngineDeoptCells;
    Counters &K = Res.Count;
    addStats(K, S);
    uint64_t ByCat[NumCategories];
    for (size_t I = 0; I != NumCategories; ++I)
      ByCat[I] = Timing.cycles(static_cast<arch::CycleCategory>(I));
    addCycles(K, ByCat);
    for (core::IBHandler *H : E.allHandlers()) {
      K["mech_lookups"] += H->lookups();
      K["mech_hits"] += H->hits();
    }
    if (PS) {
      K["plans_built"] += PS->PlansBuilt;
      K["plans_rebuilt"] += PS->PlansRebuilt;
      K["legacy_fragments"] += PS->LegacyFragments;
      K["fused_ops"] += PS->FusedOps;
      K["step_ops"] += PS->StepOps;
    }
    K["instrs"] += R.InstructionCount;
  }

  /// One admission trace on a fresh server: no warm state carries over
  /// between passes, so every pass models the same sessions.
  void runSessions(uint32_t Pass, bool Warmup) {
    int64_t RegisterNs = 0;
    std::unique_ptr<service::EngineServer> Server = makeServer(RegisterNs);
    const std::vector<uint32_t> &Trace = Res.Admissions;
    const uint32_t FirstOp = static_cast<uint32_t>(W.Cells.size());
    Digest D;
    int64_t RunTraceNs = 0;
    for (uint32_t I = 0; I != Trace.size(); ++I) {
      const Program &P = W.Programs[W.Tenants[Trace[I]]];
      Timed Run("service.EngineServer.runTrace",
                static_cast<int32_t>(FirstOp + I));
      std::vector<service::SessionResult> Out = Server->runTrace({Trace[I]});
      int64_t Ns = Run.stop();
      const service::SessionResult &S = Out.front();
      Tal.check(std::string(P.Name) + "/session" + std::to_string(I), S.Run,
                P.Ref, S.EngineError);
      D.add(S.Tenant);
      D.add(S.Warm);
      D.add(S.GrantBytes);
      D.add(S.TotalCycles);
      for (uint64_t C : S.CyclesByCategory)
        D.add(C);
      D.add(S.Stats);
      D.add(S.Run.InstructionCount);
      if (!Warmup) {
        RunTraceNs += Ns;
        Res.Samples.push_back(
            {FirstOp + I, Pass, S.Run.InstructionCount, Ns, Recorder.On});
        continue;
      }
      Res.Modeled.push_back({S.TotalCycles, P.NativeCycles, tenantCell(P.Name)});
      Counters &K = Res.Count;
      addStats(K, S.Stats);
      addCycles(K, S.CyclesByCategory.data());
      K["instrs"] += S.Run.InstructionCount;
      K["sessions"] += 1;
      K["warm_sessions"] += S.Warm;
      K["snapshot_errors"] += !S.SnapshotError.empty();
    }
    if (Warmup) {
      FirstTraceDigest = D.hex();
      Res.Digests.push_back({"trace", FirstTraceDigest});
      return;
    }
    Res.Passes.back().RegisterNs += RegisterNs;
    Res.Passes.back().RunTraceNs += RunTraceNs;
    if (D.hex() != FirstTraceDigest) {
      ++Res.NondeterministicOps;
      Tal.fail("pass " + std::to_string(Pass) +
               ": session modeled numbers differ from the first pass");
    }
  }

  /// exec.plan_speedup: one switch-engine run per cell, which must also
  /// reproduce the plan engine's modeled numbers exactly.
  void switchDifferential() {
    for (uint32_t CI = 0; CI != W.Cells.size(); ++CI) {
      const Cell &C = W.Cells[CI];
      core::SdtOptions Opts = C.Opts;
      Opts.Engine = core::ExecEngineKind::Switch;
      arch::TimingModel Timing(Model);
      vm::ExecOptions Exec;
      Exec.Timing = &Timing;
      auto E = createTimed(W.Programs[C.Prog].Image, Opts, Exec);
      if (!E) {
        ++Tal.Attempted;
        Tal.fail(C.Label + "/switch: " + E.error().message());
        continue;
      }
      Timed Run("core.SdtEngine.run", static_cast<int32_t>(CI));
      vm::RunResult R = (*E)->run();
      Res.SwitchNs.push_back(Run.stop());
      if (Tal.check(C.Label + "/switch", R, W.Programs[C.Prog].Ref) &&
          digestEngine(**E, Timing, R) != FirstDigest[CI])
        Tal.fail(C.Label + ": switch engine differs from plan engine");
    }
  }

  /// The snapshot codec and rehydration run inside runTrace; replay them
  /// once per tenant from outside so each can be timed alone: a cold run,
  /// encode, decode, then a warm engine that prewarms and runs.
  void snapshotDifferential() {
    for (size_t TI : W.Tenants) {
      const Program &P = W.Programs[TI];
      const std::string Name = P.Name;
      core::SdtOptions O = TenantOpts;
      O.FragmentCacheBytes = TenantRequestBytes;
      const uint32_t ProgFp = service::programFingerprint(P.Image);
      auto Cold = createTimed(P.Image, O, vm::ExecOptions());
      if (!Cold) {
        ++Tal.Attempted;
        Tal.fail(Name + "/cold: " + Cold.error().message());
        continue;
      }
      Tal.check(Name + "/cold", runTimed(**Cold), P.Ref);
      std::vector<uint8_t> Blob;
      {
        Timed T("service.encodeSnapshot");
        Blob = service::encodeSnapshot(**Cold, ProgFp);
        Res.EncodeNs += T.stop();
      }
      Res.SnapshotBytes += Blob.size();
      Expected<service::SnapshotInfo> Info = [&] {
        Timed T("service.decodeSnapshot");
        auto I = service::decodeSnapshot(Blob, service::optionsFingerprint(O),
                                         ProgFp);
        Res.DecodeNs += T.stop();
        return I;
      }();
      if (!Info) {
        ++Tal.Attempted;
        Tal.fail(Name + "/decode: " + Info.error().message());
        continue;
      }
      auto Warm = createTimed(P.Image, O, vm::ExecOptions());
      if (!Warm) {
        ++Tal.Attempted;
        Tal.fail(Name + "/warm: " + Warm.error().message());
        continue;
      }
      {
        Timed T("core.SdtEngine.prewarm");
        (*Warm)->prewarm(Info->Image);
        Res.PrewarmNs += T.stop();
      }
      Tal.check(Name + "/warm", runTimed(**Warm), P.Ref);
    }
  }

  const Args &A;
  Workload &W;
  Tally &Tal;
  Results &Res;
  const arch::MachineModel Model;
  const core::SdtOptions TenantOpts = mechanism("ibtc");
  std::vector<std::string> FirstDigest; ///< Per cell, from the warm-up.
  std::string FirstTraceDigest;
  Rng OrderRng;
};

// --- Output -----------------------------------------------------------------

void emit(const Args &A, const Workload &W, const Tally &Tal,
          const Results &Res) {
  support::JsonWriter J;
  J.beginObject();
  J.key("workload").value(A.Workload);
  J.key("seed").value(A.Seed);
  J.key("trace").value(A.Trace);
  J.key("attempted").value(Tal.Attempted);
  J.key("failed").value(Tal.Failed);
  J.key("failures").beginArray();
  for (const std::string &F : Tal.Failures)
    J.value(F);
  J.endArray();
  J.key("nondeterministic_ops").value(Res.NondeterministicOps);
  J.key("engine_deopt_cells").value(Res.EngineDeoptCells);

  // Per operation index, its label and the cell it belongs to (the key
  // of "modeled"): the cells, then the sessions.
  J.key("operations").beginArray();
  for (const Cell &C : W.Cells) {
    J.beginArray();
    J.value(C.Label).value(C.Label);
    J.endArray();
  }
  for (size_t I = 0; I != Res.Admissions.size(); ++I) {
    const char *Tenant = W.Programs[W.Tenants[Res.Admissions[I]]].Name;
    J.beginArray();
    J.value("session " + std::to_string(I) + " (" + Tenant + ")")
        .value(tenantCell(Tenant));
    J.endArray();
  }
  J.endArray();

  J.key("setup").beginArray();
  for (const SetupRep &S : Res.Setup) {
    J.beginObject();
    J.key("total_ns").value(S.TotalNs);
    J.key("build_ns").value(S.BuildNs);
    J.key("native_ns").value(S.NativeNs);
    J.key("create_ns").value(S.CreateNs);
    J.key("native_untimed_ns").value(S.NativeUntimedNs);
    J.endObject();
  }
  J.endArray();
  uint64_t NativeInstrs = 0;
  for (const Program &P : W.Programs)
    NativeInstrs += P.Ref.InstructionCount;
  J.key("native_instrs").value(NativeInstrs);

  // [operation, pass, guest instructions, ns, traced]
  J.key("samples").beginArray();
  for (const Sample &S : Res.Samples) {
    J.beginArray();
    J.value(S.Op).value(S.Pass).value(S.Instrs).value(S.Ns).value(S.Traced);
    J.endArray();
  }
  J.endArray();
  J.key("passes").beginArray();
  for (const PassTimes &P : Res.Passes) {
    J.beginObject();
    J.key("create_ns").value(P.CreateNs);
    J.key("run_ns").value(P.RunNs);
    J.key("register_ns").value(P.RegisterNs);
    J.key("run_trace_ns").value(P.RunTraceNs);
    J.key("traced").value(P.Traced);
    J.endObject();
  }
  J.endArray();
  // [translated cycles, native cycles, cell]
  J.key("modeled").beginArray();
  for (const ModeledOp &M : Res.Modeled) {
    J.beginArray();
    J.value(M.Sdt).value(M.Native).value(M.Cell);
    J.endArray();
  }
  J.endArray();
  J.key("digests").beginObject();
  for (const auto &[Label, Hex] : Res.Digests)
    J.key(Label).value(Hex);
  J.endObject();
  J.key("counters").beginObject();
  for (const auto &[Name, V] : Res.Count)
    J.key(Name).value(V);
  J.endObject();

  J.key("differential").beginObject();
  J.key("switch_ns").beginArray();
  for (int64_t Ns : Res.SwitchNs)
    J.value(Ns);
  J.endArray();
  J.key("encode_ns").value(Res.EncodeNs);
  J.key("decode_ns").value(Res.DecodeNs);
  J.key("prewarm_ns").value(Res.PrewarmNs);
  J.key("snapshot_bytes").value(Res.SnapshotBytes);
  J.endObject();

  J.key("self_ns").beginObject();
  for (const auto &[Layer, Ns] : selfTimeByLayer())
    J.key(Layer).value(Ns);
  J.endObject();

  J.key("peak_rss_kb").value(Res.PeakRssKb);
  J.endObject();
  std::printf("%s\n", J.str().c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  refuseEnvironmentKnobs();
  Args A = parseArgs(Argc, Argv);
  Workload W;
  if (!defineWorkload(A.Workload, W))
    usage(("unknown workload " + A.Workload).c_str());

  Recorder.On = A.Trace;
  Tally Tal;
  Tal.CorruptOp = A.CorruptOp;
  Results Res;
  if (!Bench(A, W, Tal, Res).run())
    return 1;
  if (!A.SpansOut.empty() && !writeSpans(A.SpansOut)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", A.SpansOut.c_str());
    return 1;
  }
  emit(A, W, Tal, Res);
  return 0;
}
