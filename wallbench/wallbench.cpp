/// wallbench: measured wall-clock benchmark of the public Plan / execute /
/// AlsServer API, one workload per invocation.
///
///   wallbench --workload er-train-step|rmat-compressed|serve-topk
///             --seed N --seconds S --trace 0|1 --out FILE
///
/// The program generates its inputs from the seed, builds the serving
/// state (timed as set-up, repeated and reported per repetition), checks
/// one op per distinct input against the serial reference, then runs a
/// closed loop of ops from one caller thread for S seconds, comparing
/// every op bit-for-bit with the first op on the same input. With
/// --trace 1 the loop alternates an untraced op with a traced op plus the
/// per-layer probes; spans (name, start, end, parent, request) and
/// per-request counters are kept in memory and written with the raw
/// samples to FILE when the run ends. run.py turns FILE into metrics.
///
/// Spans are recorded here, around calls into each layer's public
/// functions; the program under test is not instrumented.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "apps/als.hpp"
#include "apps/serve_als.hpp"
#include "common/rng.hpp"
#include "dist/plan.hpp"
#include "dist/problem.hpp"
#include "local/fused.hpp"
#include "local/reference.hpp"
#include "local/sddmm.hpp"
#include "local/spmm.hpp"
#include "runtime/wire.hpp"
#include "runtime/world.hpp"
#include "sparse/convert.hpp"
#include "sparse/generate.hpp"

namespace {

using namespace dsk;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------- tracing

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1; ///< index into the span list, -1 for a root
  int req = -1;    ///< op the span belongs to, -1 for set-up and wind-up
};

struct Counter {
  std::string name;
  double value = 0.0;
  int req = -1;
};

/// In-memory span and counter store. A disabled tracer records nothing
/// and reads no clock, so untraced ops pay only a branch per call.
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  void set_req(int req) { req_ = req; }

  /// RAII span: opened at construction, closed at destruction, parented
  /// to the innermost open span.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (tracer_ == nullptr) return;
      index_ = tracer_->spans_.size();
      tracer_->spans_.push_back(
          {name, tracer_->now(), 0.0, tracer_->open_, tracer_->req_});
      tracer_->open_ = static_cast<int>(index_);
    }
    ~Scope() {
      if (tracer_ == nullptr) return;
      Span& span = tracer_->spans_[index_];
      span.end = tracer_->now();
      tracer_->open_ = span.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  Scope span(const char* name) {
    return Scope(enabled_ ? this : nullptr, name);
  }

  void count(const char* name, double value) {
    if (enabled_) counters_.push_back({name, value, req_});
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Counter>& counters() const { return counters_; }

 private:
  double now() const { return seconds_between(origin_, Clock::now()); }

  bool enabled_;
  Clock::time_point origin_;
  int req_ = -1;
  int open_ = -1;
  std::vector<Span> spans_;
  std::vector<Counter> counters_;
};

// ------------------------------------------------------------- helpers

/// Relative Frobenius distance ||got - want|| / ||want||.
double rel_diff(std::span<const Scalar> got, std::span<const Scalar> want) {
  if (got.size() != want.size()) return INFINITY;
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double d = got[i] - want[i];
    num += d * d;
    den += want[i] * want[i];
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

/// Relative tolerance of a distributed result against the serial
/// reference, by wire precision tier: Full only reorders summation;
/// the lossy tiers carry one quantization per value per hop.
double tolerance(WirePrecision precision) {
  switch (precision) {
    case WirePrecision::F32: return 1e-4;
    case WirePrecision::BF16: return 5e-2;
    case WirePrecision::Full: break;
  }
  return 1e-9;
}

bool bit_equal(const std::vector<Scalar>& x, const std::vector<Scalar>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(Scalar)) == 0);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1));
  return splitmix64(state);
}

DenseMatrix random_dense(Index rows, Index cols, std::uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  m.fill_random(rng);
  return m;
}

/// Per-op totals of one or more WorldStats, recorded as counters.
struct RuntimeTotals {
  double replication_s = 0, propagation_s = 0, computation_s = 0;
  double kernel_spans_s = 0, modeled_kernel_s = 0, load_imbalance = 0;
  double replication_words = 0, propagation_words = 0, messages = 0;
  double flops = 0, setup_builds = 0, calls = 0;

  void add(const WorldStats& stats) {
    replication_s += stats.measured_phase_seconds(Phase::Replication);
    propagation_s += stats.measured_phase_seconds(Phase::Propagation);
    computation_s += stats.measured_phase_seconds(Phase::Computation);
    kernel_spans_s += stats.measured_kernel_seconds();
    modeled_kernel_s += stats.modeled_kernel_seconds(MachineModel::cori_knl());
    load_imbalance = std::max(load_imbalance, stats.load_imbalance());
    replication_words +=
        static_cast<double>(stats.max_words(Phase::Replication));
    propagation_words +=
        static_cast<double>(stats.max_words(Phase::Propagation));
    for (const Phase phase :
         {Phase::Replication, Phase::Propagation, Phase::Computation}) {
      messages += static_cast<double>(stats.max_messages(phase));
    }
    for (int r = 0; r < stats.num_ranks(); ++r) {
      flops += static_cast<double>(stats.rank(r).total().flops);
    }
    setup_builds += stats.setup_builds();
    calls += 1;
  }

  void record(Tracer& t) const {
    t.count("runtime.replication_s", replication_s);
    t.count("runtime.propagation_s", propagation_s);
    t.count("runtime.computation_s", computation_s);
    t.count("runtime.kernel_spans_s", kernel_spans_s);
    t.count("runtime.replication_words", replication_words);
    t.count("runtime.propagation_words", propagation_words);
    t.count("runtime.messages", messages);
    t.count("runtime.flops", flops);
    t.count("runtime.load_imbalance", load_imbalance);
    t.count("model.modeled_kernel_s", modeled_kernel_s);
    t.count("dist.execute.setup_builds", setup_builds);
    t.count("dist.execute.calls", calls);
  }
};

/// Sorted distinct values of an index array.
std::vector<Index> support_of(std::span<const Index> idx) {
  std::vector<Index> out(idx.begin(), idx.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// The busiest block of S cut into a 2 x 2 grid: the shard of the
/// largest rank for every workload here (1.5D with p/c = 2 layers of
/// c = 2 column groups, and 2.5D with q = 2, c = 1).
struct Shard {
  CooMatrix coo;
  Index row0 = 0;
};

Shard busiest_block(const CooMatrix& s) {
  const Index mh = s.rows() / 2, nh = s.cols() / 2;
  Shard best;
  for (int u = 0; u < 2; ++u) {
    for (int v = 0; v < 2; ++v) {
      CooMatrix blk = s.block(u * mh, (u + 1) * mh, v * nh, (v + 1) * nh);
      if (blk.nnz() > best.coo.nnz()) {
        best = {std::move(blk), u * mh};
      }
    }
  }
  return best;
}

/// Serial per-rank kernels on one shard (the `local` layer).
struct LocalProbe {
  CsrMatrix csr;
  DenseMatrix a, b;

  LocalProbe(const CooMatrix& s, Index width, std::uint64_t seed) {
    const Shard shard = busiest_block(s);
    csr = coo_to_csr(shard.coo);
    a = random_dense(shard.coo.rows(), width, seed);
    b = random_dense(shard.coo.cols(), width, seed + 1);
  }

  void run(Tracer& t) const {
    std::vector<Scalar> dots(static_cast<std::size_t>(csr.nnz()));
    DenseMatrix out_a(a.rows(), a.cols()), out_b(b.rows(), b.cols());
    DenseMatrix out_f(a.rows(), a.cols());
    std::uint64_t flops = 0;
    {
      auto span = t.span("local.sddmm");
      flops = masked_dot_products(csr, a, b, dots);
    }
    t.count("local.sddmm_flops", static_cast<double>(flops));
    {
      auto span = t.span("local.spmm_a");
      flops = spmm_a(csr, b, out_a);
    }
    t.count("local.spmm_a_flops", static_cast<double>(flops));
    {
      auto span = t.span("local.spmm_b");
      flops = spmm_b(csr, a, out_b);
    }
    t.count("local.spmm_b_flops", static_cast<double>(flops));
    {
      auto span = t.span("local.fusedmm_a");
      flops = fusedmm_a(csr, a, b, out_f);
    }
    t.count("local.fusedmm_a_flops", static_cast<double>(flops));
  }
};

/// Encode / decode of one representative dense propagation block under
/// the workload's codec (the `runtime.wire` layer).
struct DenseWireProbe {
  Index rows = 0, width = 0;
  WireCodec codec;
  MessageWords image;

  DenseWireProbe(const DenseMatrix& src, Index block_rows, WireCodec c)
      : rows(block_rows), width(src.cols()), codec(c) {
    image.resize(static_cast<std::size_t>(rows * width));
    std::memcpy(image.data(), src.data().data(),
                image.size() * sizeof(std::uint64_t));
  }

  void run(Tracer& t) const {
    MessageWords copy = image;
    MessageWords wire, back;
    {
      auto span = t.span("runtime.wire.encode");
      wire = encode_dense(std::move(copy), rows, width, codec);
    }
    {
      auto span = t.span("runtime.wire.decode");
      back = decode_dense(std::move(wire), rows, width, codec);
    }
    t.count("runtime.wire.words_raw",
            static_cast<double>(encoded_dense_words(rows, width, {})));
    t.count("runtime.wire.words_encoded",
            static_cast<double>(encoded_dense_words(rows, width, codec)));
  }
};

/// The A-slice message of the busiest 2.5D cell: its row support and the
/// r / (q c) = r / 2 wide slice values, bf16 with Auto indices.
struct RowsWireProbe {
  std::vector<Index> rows;
  std::vector<Scalar> values;
  Index block_rows = 0, width = 0;
  WireCodec codec{WirePrecision::BF16, IndexCodec::Auto};

  RowsWireProbe(const CooMatrix& s, const DenseMatrix& a) {
    const Shard shard = busiest_block(s);
    rows = support_of(shard.coo.row_idx());
    block_rows = shard.coo.rows();
    width = a.cols() / 2;
    values.reserve(rows.size() * static_cast<std::size_t>(width));
    for (const Index row : rows) {
      const auto src = a.row(shard.row0 + row);
      values.insert(values.end(), src.begin(), src.begin() + width);
    }
  }

  void run(Tracer& t) const {
    MessageWords wire;
    std::vector<Scalar> back;
    {
      auto span = t.span("runtime.wire.encode");
      wire = encode_rows_chunk(rows, 0, rows.size(), block_rows, width,
                               values, codec);
    }
    {
      auto span = t.span("runtime.wire.decode");
      back = decode_rows_chunk(wire, rows, 0, rows.size(), block_rows, width,
                               codec);
    }
    t.count("runtime.wire.words_raw",
            static_cast<double>(encoded_rows_words(rows, block_rows, width,
                                                   {})));
    t.count("runtime.wire.words_encoded",
            static_cast<double>(encoded_rows_words(rows, block_rows, width,
                                                   codec)));
  }
};

/// Time of an empty SimWorld::run on p ranks (the per-run thread
/// respawn every execute pays).
struct EmptyRunProbe {
  SimWorld world;
  explicit EmptyRunProbe(int p) : world(p) {}
  void run(Tracer& t) {
    for (int i = 0; i < 8; ++i) {
      auto span = t.span("runtime.world_run_empty");
      world.run([](Comm&) {});
    }
  }
};

// ----------------------------------------------------------- workloads

class Workload {
 public:
  virtual ~Workload() = default;
  /// User-visible requests one op serves.
  virtual int requests_per_op() const = 0;
  /// Distinct op inputs; op i runs input i % classes().
  virtual int classes() const { return 1; }
  /// Build (or rebuild) the state the ops run against.
  virtual void setup(Tracer& t) = 0;
  virtual std::vector<Scalar> op(Tracer& t, int cls) = 0;
  /// Empty when `out` (the first output of class `cls`) matches the
  /// serial reference, else a description of the mismatch.
  virtual std::string check(const std::vector<Scalar>& out, int cls,
                            Tracer& t) = 0;
  /// Per-layer probes run after every traced op.
  virtual void probe(Tracer& t) = 0;
  /// Counters read once, after the loop (traced runs only).
  virtual void finish(Tracer&) {}
};

std::vector<Scalar> concat(const DenseMatrix& x, const DenseMatrix& y) {
  std::vector<Scalar> out(x.data().begin(), x.data().end());
  out.insert(out.end(), y.data().begin(), y.data().end());
  return out;
}

/// FusedMM against a resident Plan and SimWorld; `both` runs orientation
/// A then B (one ALS/GNN training step), otherwise A alone.
class FusedWorkload : public Workload {
 public:
  FusedWorkload(CooMatrix s, Index r, AlgorithmKind kind, int c,
                AlgorithmOptions options, Elision elision, bool both,
                std::uint64_t seed)
      : s_(std::move(s)), a_(random_dense(s_.rows(), r, seed + 1)),
        b_(random_dense(s_.cols(), r, seed + 2)), kind_(kind), c_(c),
        options_(options), elision_(elision), both_(both), seed_(seed) {}

  int requests_per_op() const override { return both_ ? 2 : 1; }

  void setup(Tracer& t) override {
    plan_.reset();
    world_.reset();
    auto span = t.span("setup");
    {
      auto inner = t.span("dist.plan.make_plan");
      plan_.emplace(make_plan(kind_, kP, c_, s_, a_.cols(), options_));
    }
    t.count("dist.plan.build_s", plan_->build_seconds());
    {
      auto inner = t.span("runtime.world_create");
      world_ = std::make_unique<SimWorld>(kP);
    }
  }

  std::vector<Scalar> op(Tracer& t, int) override {
    ExecuteOptions exec;
    exec.world = world_.get();
    RuntimeTotals totals;
    FusedResult ra, rb;
    auto span = t.span("op");
    {
      auto inner = t.span("dist.execute.fusedmm_a");
      ra = plan_->execute_fusedmm(FusedOrientation::A, elision_, s_, a_, b_,
                                  1, exec);
    }
    totals.add(ra.stats);
    if (both_) {
      {
        auto inner = t.span("dist.execute.fusedmm_b");
        rb = plan_->execute_fusedmm(FusedOrientation::B, elision_, s_, a_,
                                    b_, 1, exec);
      }
      totals.add(rb.stats);
    }
    totals.record(t);
    return both_ ? concat(ra.output, rb.output)
                 : std::vector<Scalar>(ra.output.data().begin(),
                                       ra.output.data().end());
  }

  std::string check(const std::vector<Scalar>& out, int,
                    Tracer&) override {
    const double tol = tolerance(options_.wire_precision);
    const DenseMatrix want_a = reference_fusedmm_a(s_, a_, b_);
    const auto na = want_a.data().size();
    const double da = rel_diff(
        std::span<const Scalar>(out).subspan(0, std::min(na, out.size())),
        want_a.data());
    if (!(da <= tol)) {
      return "fusedmm-a differs from the reference by " +
             std::to_string(da) + " (tolerance " + std::to_string(tol) + ")";
    }
    if (!both_) return out.size() == na ? "" : "fusedmm-a output size";
    const DenseMatrix want_b = reference_fusedmm_b(s_, a_, b_);
    if (out.size() != na + want_b.data().size()) return "fusedmm-b size";
    const double db =
        rel_diff(std::span<const Scalar>(out).subspan(na), want_b.data());
    if (!(db <= tol)) {
      return "fusedmm-b differs from the reference by " +
             std::to_string(db) + " (tolerance " + std::to_string(tol) + ")";
    }
    return "";
  }

  void probe(Tracer& t) override {
    if (!probes_) {
      probes_.emplace(LocalProbe(s_, local_width(), seed_ + 3), kP);
    }
    {
      auto span = t.span("dist.plan.fingerprint");
      volatile std::uint64_t fp = plan_fingerprint(s_, a_.cols());
      (void)fp;
    }
    probes_->empty_run.run(t);
    probes_->local.run(t);
    probe_wire(t);
  }

 protected:
  static constexpr int kP = 4;

  /// Dense width each rank's local kernels see.
  Index local_width() const {
    if (kind_ == AlgorithmKind::SparseRepl25D) {
      return a_.cols() / (2 * static_cast<Index>(c_)); // r / (q c), q = 2
    }
    return a_.cols();
  }

  /// Encode and decode one propagation block (n / p rows of B) under the
  /// workload's codec; the compressed workload probes its row-support
  /// messages instead.
  virtual void probe_wire(Tracer& t) {
    if (!dense_wire_) {
      dense_wire_.emplace(
          b_, b_.rows() / kP,
          WireCodec{options_.wire_precision, options_.index_codec});
    }
    dense_wire_->run(t);
  }

  CooMatrix s_;
  DenseMatrix a_, b_;

 private:
  struct Probes {
    Probes(LocalProbe l, int p) : local(std::move(l)), empty_run(p) {}
    LocalProbe local;
    EmptyRunProbe empty_run;
  };

  AlgorithmKind kind_;
  int c_;
  AlgorithmOptions options_;
  Elision elision_;
  bool both_;
  std::uint64_t seed_;
  std::optional<Plan> plan_;
  std::unique_ptr<SimWorld> world_;
  std::optional<Probes> probes_;
  std::optional<DenseWireProbe> dense_wire_;
};

/// R-MAT under 2.5D sparse replication with the bf16 + Auto-index codec:
/// probes the row-support messages and takes the index-codec census.
class CompressedWorkload final : public FusedWorkload {
 public:
  using FusedWorkload::FusedWorkload;

  void finish(Tracer& t) override {
    // Census of Auto's index-codec choice over each rank's cell row and
    // column supports (c = 1: one cell per rank).
    const Index mq = s_.rows() / 2, nq = s_.cols() / 2;
    double raw = 0, varint = 0, bitmap = 0, words_raw = 0, words_enc = 0;
    for (int u = 0; u < 2; ++u) {
      for (int v = 0; v < 2; ++v) {
        const CooMatrix cell =
            s_.block(u * mq, (u + 1) * mq, v * nq, (v + 1) * nq);
        const std::pair<std::vector<Index>, Index> supports[] = {
            {support_of(cell.row_idx()), mq}, {support_of(cell.col_idx()), nq}};
        for (const auto& [support, block_rows] : supports) {
          switch (choose_index_codec(support, block_rows, IndexCodec::Auto)) {
            case IndexCodec::DeltaVarint: varint += 1; break;
            case IndexCodec::Bitmap: bitmap += 1; break;
            default: raw += 1; break;
          }
          words_raw += static_cast<double>(
              encoded_index_words(support, block_rows, IndexCodec::Raw));
          words_enc += static_cast<double>(
              encoded_index_words(support, block_rows, IndexCodec::Auto));
        }
      }
    }
    t.count("runtime.wire.codec_raw", raw);
    t.count("runtime.wire.codec_delta_varint", varint);
    t.count("runtime.wire.codec_bitmap", bitmap);
    t.count("runtime.wire.index_words_raw", words_raw);
    t.count("runtime.wire.index_words_encoded", words_enc);
  }

 protected:
  void probe_wire(Tracer& t) override {
    if (!rows_wire_) rows_wire_.emplace(s_, a_);
    rows_wire_->run(t);
  }

 private:
  std::optional<RowsWireProbe> rows_wire_;
};

/// AlsServer answering batched top-k requests from resident state.
class ServeWorkload final : public Workload {
 public:
  static constexpr int kBatch = 32;
  static constexpr int kClasses = 8;
  static constexpr int kTopK = 10;

  ServeWorkload(CooMatrix ratings, std::uint64_t seed)
      : ratings_(std::move(ratings)), seed_(seed) {
    config_.train.rank = 32;
    config_.train.kind = AlgorithmKind::DenseShift15D;
    config_.train.p = 4;
    config_.train.c = 2;
    config_.train.seed = derive_seed(seed, 10);
    config_.batch_width = kBatch;
    // kClasses batches of distinct seeded user ids.
    Rng rng(derive_seed(seed, 11));
    for (int b = 0; b < kClasses; ++b) {
      std::vector<Index> ids;
      while (static_cast<int>(ids.size()) < kBatch) {
        const Index u = rng.next_index(0, ratings_.rows());
        if (std::find(ids.begin(), ids.end(), u) == ids.end()) {
          ids.push_back(u);
        }
      }
      batches_.push_back(std::move(ids));
    }
  }

  int requests_per_op() const override { return kBatch; }
  int classes() const override { return kClasses; }

  void setup(Tracer& t) override {
    server_.reset();
    auto span = t.span("setup");
    {
      auto inner = t.span("apps.serve.construct");
      server_ = std::make_unique<AlsServer>(ratings_, config_);
    }
    // The score Plan is built lazily by the first request of a width;
    // the first op is ready only once it exists.
    auto inner = t.span("apps.serve.warm_top_k");
    server_->top_k(batches_[0], kTopK);
  }

  std::vector<Scalar> op(Tracer& t, int cls) override {
    std::vector<std::vector<Recommendation>> recs;
    {
      auto span = t.span("apps.serve.top_k");
      recs = server_->top_k(batches_[static_cast<std::size_t>(cls)], kTopK);
    }
    std::vector<Scalar> out;
    for (const auto& list : recs) {
      out.push_back(static_cast<Scalar>(list.size()));
      for (const auto& rec : list) {
        out.push_back(static_cast<Scalar>(rec.item));
        out.push_back(rec.score);
      }
    }
    return out;
  }

  std::string check(const std::vector<Scalar>& out, int cls,
                    Tracer& t) override {
    const DenseMatrix& a = trained_factors(t);
    const auto& ids = batches_[static_cast<std::size_t>(cls)];
    DenseMatrix sim(users(), kBatch);
    for (int j = 0; j < kBatch; ++j) {
      const auto anchor = a.row(ids[static_cast<std::size_t>(j)]);
      for (Index i = 0; i < users(); ++i) {
        const auto row = a.row(i);
        Scalar dot = 0;
        for (std::size_t f = 0; f < row.size(); ++f) dot += row[f] * anchor[f];
        sim(i, j) = dot;
      }
    }
    const DenseMatrix scores = reference_spmm_b(ratings_, sim);
    std::size_t at = 0;
    const auto next = [&]() {
      return at < out.size() ? out[at++] : std::nan("");
    };
    for (int j = 0; j < kBatch; ++j) {
      const Index user = ids[static_cast<std::size_t>(j)];
      std::vector<bool> rated(static_cast<std::size_t>(items()), false);
      for (Index k = 0; k < ratings_.nnz(); ++k) {
        const auto e = ratings_.entry(k);
        if (e.row == user) rated[static_cast<std::size_t>(e.col)] = true;
      }
      std::vector<Scalar> unrated;
      double scale = 0.0;
      for (Index item = 0; item < items(); ++item) {
        scale = std::max(scale, std::abs(scores(item, j)));
        if (!rated[static_cast<std::size_t>(item)]) {
          unrated.push_back(scores(item, j));
        }
      }
      const auto k = std::min<std::size_t>(kTopK, unrated.size());
      std::nth_element(unrated.begin(),
                       unrated.begin() + static_cast<std::ptrdiff_t>(k - 1),
                       unrated.end(), std::greater<>());
      const Scalar kth = unrated[k - 1];
      const double tol = tolerance(WirePrecision::Full) * std::max(scale, 1.0);
      if (next() != static_cast<Scalar>(k)) {
        return "user " + std::to_string(user) + ": wrong result count";
      }
      Scalar previous = INFINITY;
      for (std::size_t i = 0; i < k; ++i) {
        const double item_d = next();
        const Scalar score = next();
        if (!(item_d >= 0 && item_d < static_cast<double>(items()))) {
          return "user " + std::to_string(user) + ": item out of range";
        }
        const auto item = static_cast<Index>(item_d);
        const Scalar want = scores(item, j);
        if (rated[static_cast<std::size_t>(item)] ||
            !(std::abs(score - want) <= tol) || !(want >= kth - tol) ||
            score > previous) {
          return "user " + std::to_string(user) + ": recommendation " +
                 std::to_string(i) + " (item " + std::to_string(item) +
                 ") disagrees with the reference top-k";
        }
        previous = score;
      }
    }
    return at == out.size() ? "" : "trailing output";
  }

  void probe(Tracer& t) override {
    if (!probes_) {
      // The scoring pass the server runs per batch, as a standalone Plan
      // on the same grid, width and (unpermuted, unpadded) ratings.
      const Index width = kBatch;
      std::optional<Plan> plan;
      {
        auto span = t.span("dist.plan.make_plan");
        plan.emplace(make_plan(config_.train.kind, config_.train.p,
                               config_.train.c, ratings_, width,
                               config_.exec));
      }
      t.count("dist.plan.build_s", plan->build_seconds());
      probes_.emplace(*plan, random_dense(users(), width, seed_ + 4),
                      LocalProbe(ratings_, width, seed_ + 5),
                      DenseWireProbe(random_dense(items(), width, seed_ + 6),
                                     items() / config_.train.p, {}),
                      config_.train.p);
    }
    {
      auto span = t.span("dist.plan.fingerprint");
      volatile std::uint64_t fp = plan_fingerprint(ratings_, kBatch);
      (void)fp;
    }
    ExecuteOptions exec;
    exec.world = &probes_->world;
    KernelResult result;
    {
      auto span = t.span("apps.serve.spmmb_execute");
      result = probes_->plan.execute(Mode::SpMMB, ratings_, probes_->sims,
                                     probes_->zeros, exec);
    }
    RuntimeTotals totals;
    totals.add(result.stats);
    totals.record(t);
    probes_->empty_run.run(t);
    probes_->local.run(t);
    probes_->wire.run(t);
  }

  void finish(Tracer& t) override {
    {
      auto span = t.span("apps.serve.rmse_cold");
      server_->observed_rmse();
    }
    for (int i = 0; i < 3; ++i) {
      auto span = t.span("apps.serve.rmse_warm");
      server_->observed_rmse();
    }
    const ServeReport& report = server_->report();
    t.count("apps.serve.cache_hits", static_cast<double>(report.cache_hits));
    t.count("apps.serve.cache_misses",
            static_cast<double>(report.cache_misses));
    t.count("apps.serve.plan_builds", report.plan_builds);
    t.count("apps.serve.setup_builds", report.setup_builds);
  }

 private:
  Index users() const { return ratings_.rows(); }
  Index items() const { return ratings_.cols(); }

  /// The server's trained user factors, reproduced by running the same
  /// training AlsServer runs (deterministic for a fixed config).
  const DenseMatrix& trained_factors(Tracer& t) {
    if (!factors_) {
      auto span = t.span("apps.serve.train");
      AlsConfig tc = config_.train;
      const DimsRequirement req =
          dims_requirement(tc.kind, tc.p, tc.c);
      tc.rank = (tc.rank + req.r_multiple - 1) / req.r_multiple *
                req.r_multiple;
      const PaddedProblem padded = pad_problem(
          tc.kind, tc.p, tc.c, ratings_, DenseMatrix(users(), tc.rank),
          DenseMatrix(items(), tc.rank));
      const AlsResult trained = run_als(padded.s, tc);
      factors_ = unpad_dense(trained.a, users(), tc.rank);
    }
    return *factors_;
  }

  struct Probes {
    Probes(Plan pl, DenseMatrix s, LocalProbe l, DenseWireProbe w, int p)
        : plan(std::move(pl)), sims(std::move(s)),
          zeros(plan.cols(), plan.width()), world(p), local(std::move(l)),
          wire(std::move(w)), empty_run(p) {}
    Plan plan;
    DenseMatrix sims, zeros;
    SimWorld world;
    LocalProbe local;
    DenseWireProbe wire;
    EmptyRunProbe empty_run;
  };

  CooMatrix ratings_;
  std::uint64_t seed_;
  AlsServerConfig config_;
  std::vector<std::vector<Index>> batches_;
  std::unique_ptr<AlsServer> server_;
  std::optional<DenseMatrix> factors_;
  std::optional<Probes> probes_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  Rng rng(derive_seed(seed, 0));
  if (name == "er-train-step") {
    // 32768^2 rather than the paper's 65536^2: the same 32 nnz/row and
    // r = 64 at half the memory, and twice the steps per timed second.
    const Index n = 32768;
    CooMatrix s = erdos_renyi_fixed_row(n, n, 32, rng);
    // Default codec (Full / Raw), Dense replication and propagation,
    // DoubleBuffered schedule.
    return std::make_unique<FusedWorkload>(
        std::move(s), 64, AlgorithmKind::DenseShift15D, 2,
        AlgorithmOptions{}, Elision::LocalKernelFusion, true,
        derive_seed(seed, 1));
  }
  if (name == "rmat-compressed") {
    const Index n = 65536;
    CooMatrix s = rmat(n, n, n * 16, rng);
    AlgorithmOptions options;
    options.propagation = PropagationMode::Auto;
    options.wire_precision = WirePrecision::BF16;
    options.index_codec = IndexCodec::Auto;
    return std::make_unique<CompressedWorkload>(
        std::move(s), 32, AlgorithmKind::SparseRepl25D, 1, options,
        Elision::None, false, derive_seed(seed, 1));
  }
  if (name == "serve-topk") {
    CooMatrix ratings = erdos_renyi_fixed_row(16384, 4096, 16, rng);
    return std::make_unique<ServeWorkload>(std::move(ratings),
                                           derive_seed(seed, 1));
  }
  return nullptr;
}

// -------------------------------------------------------------- output

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += json_number(values[i]);
  }
  return out + "]";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

long last_level_cache_bytes() {
  for (const int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long size = sysconf(name);
    if (size > 0) return size;
  }
  return 0;
}

struct Args {
  std::string workload, out;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have[5] = {};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have[0] = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have[1] = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have[2] = args.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        args.trace = value == "1";
        have[3] = true;
      } else if (flag == "--out") {
        args.out = value;
        have[4] = true;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && std::all_of(std::begin(have), std::end(have),
                                      [](bool h) { return h; });
}

} // namespace

int main(int argc, char** argv) {
  const auto origin = Clock::now();
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: wallbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out FILE\n");
    return 2;
  }
  if (std::string(WALLBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "wallbench: refusing to time a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 WALLBENCH_BUILD_TYPE);
    return 2;
  }
  auto workload = make_workload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "wallbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  Tracer tracer(args.trace, origin);
  Tracer off(false, origin);

  // Set-up, repeated (at least 3 times and for at least 3 s) so its
  // median is steady; the last build serves the ops.
  std::vector<double> setup_s;
  const auto setup_start = Clock::now();
  while (setup_s.size() < 3 ||
         (seconds_between(setup_start, Clock::now()) < 3.0 &&
          setup_s.size() < 15)) {
    const auto t0 = Clock::now();
    workload->setup(tracer);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  int attempted = 0, failed = 0;
  std::vector<std::string> failures;
  const auto fail = [&](const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  };

  // First op of every input class: checked against the serial
  // reference, then kept as the bit-exact expectation for later ops.
  std::vector<std::optional<std::vector<Scalar>>> first(
      static_cast<std::size_t>(workload->classes()));
  for (int cls = 0; cls < workload->classes(); ++cls) {
    ++attempted;
    try {
      auto out = workload->op(off, cls);
      const std::string problem = workload->check(out, cls, tracer);
      if (problem.empty()) {
        first[static_cast<std::size_t>(cls)] = std::move(out);
      } else {
        fail(problem);
      }
    } catch (const std::exception& e) {
      fail(std::string("exception: ") + e.what());
    }
  }

  std::vector<double> ops_s, traced_ops_s;
  const auto run_op = [&](Tracer& t, int i, std::vector<double>& samples) {
    const int cls = i % workload->classes();
    ++attempted;
    try {
      const auto t0 = Clock::now();
      const auto out = workload->op(t, cls);
      samples.push_back(seconds_between(t0, Clock::now()));
      const auto& want = first[static_cast<std::size_t>(cls)];
      if (!want || !bit_equal(out, *want)) {
        fail("op " + std::to_string(i) +
             " differs from the first op on the same input");
      }
    } catch (const std::exception& e) {
      fail(std::string("exception: ") + e.what());
    }
  };

  const auto loop_start = Clock::now();
  double loop_s = 0.0;
  for (int i = 0; loop_s < args.seconds; ++i) {
    run_op(off, i, ops_s);
    if (args.trace) {
      tracer.set_req(i);
      run_op(tracer, i, traced_ops_s);
      workload->probe(tracer);
      tracer.set_req(-1);
    }
    loop_s = seconds_between(loop_start, Clock::now());
  }
  if (args.trace) workload->finish(tracer);

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "wallbench: cannot write %s\n", args.out.c_str());
    return 2;
  }
  std::string json = "{";
  json += "\"workload\":" + json_string(args.workload);
  json += ",\"seed\":" + std::to_string(args.seed);
  json += ",\"trace\":" + std::string(args.trace ? "1" : "0");
  json += ",\"stamp\":{\"nproc\":" +
          std::to_string(std::thread::hardware_concurrency()) +
          ",\"compiler\":" + json_string(WALLBENCH_COMPILER) +
          ",\"build_type\":" + json_string(WALLBENCH_BUILD_TYPE) +
          ",\"native_arch\":" + json_string(WALLBENCH_NATIVE_ARCH) +
          ",\"llc_bytes\":" + std::to_string(last_level_cache_bytes()) +
          "}";
  json += ",\"requests_per_op\":" +
          std::to_string(workload->requests_per_op());
  json += ",\"setup_s\":" + json_list(setup_s);
  json += ",\"ops_s\":" + json_list(ops_s);
  json += ",\"traced_ops_s\":" + json_list(traced_ops_s);
  json += ",\"loop_s\":" + json_number(loop_s);
  json += ",\"attempted\":" + std::to_string(attempted);
  json += ",\"failed\":" + std::to_string(failed);
  json += ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    json += (i > 0 ? "," : "") + json_string(failures[i]);
  }
  json += "],\"peak_rss_mb\":" + json_number(peak_rss_mb());
  json += ",\"spans\":[";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    json += (i > 0 ? ",[" : "[") + json_string(s.name) + "," +
            json_number(s.start) + "," + json_number(s.end) + "," +
            std::to_string(s.parent) + "," + std::to_string(s.req) + "]";
  }
  json += "],\"counters\":[";
  const auto& counters = tracer.counters();
  for (std::size_t i = 0; i < counters.size(); ++i) {
    const Counter& c = counters[i];
    json += (i > 0 ? ",[" : "[") + json_string(c.name) + "," +
            json_number(c.value) + "," + std::to_string(c.req) + "]";
  }
  json += "]}\n";
  const bool written =
      std::fwrite(json.data(), 1, json.size(), f) == json.size();
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "wallbench: failed writing %s\n", args.out.c_str());
    return 2;
  }
  return failed == 0 ? 0 : 1;
}
