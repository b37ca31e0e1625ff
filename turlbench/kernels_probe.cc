// Times the nn::kernels calls an encoder layer makes, at the shapes this
// model really runs: the repro config (d=64, d_ff=128) and the paper's
// TinyBERT config (d=312, d_ff=1200), for sequences of n elements. Prints
// the operation count and bytes moved per call; the bytes are computed
// from tensor sizes, not measured.

#include <algorithm>
#include <cmath>

#include "nn/kernels/gemm.h"
#include "nn/kernels/gemv.h"
#include "nn/kernels/rowwise.h"
#include "util/rng.h"
#include "workloads.h"

namespace turlbench {
namespace {

namespace k = turl::nn::kernels;

std::vector<float> RandomBuffer(size_t n, turl::Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) x = rng->UniformFloat(-1.0f, 1.0f);
  return v;
}

/// Median over 5 blocks of the time of one call of `body`, in ms; each
/// block repeats the call for at least 5 ms.
template <typename Body>
double MedianCallMs(Body body) {
  body();  // Warm caches and the kernel pool.
  std::vector<double> per_call;
  for (int block = 0; block < 5; ++block) {
    int64_t calls = 0;
    const Clock::time_point start = Clock::now();
    double ms = 0.0;
    do {
      body();
      ++calls;
      ms = MsBetween(start, Clock::now());
    } while (ms < 5.0);
    per_call.push_back(ms / double(calls));
  }
  return Median(per_call);
}

struct ModelShape {
  const char* tag;
  int64_t d;
  int64_t d_ff;
};

/// One line of the per-call accounting table.
void Account(Report* report, const char* call, const char* tag,
             const std::string& shape, double ops, double bytes,
             double call_ms) {
  report->Line("kernel %-24s %-6s %-18s ops %12.0f  bytes %11.0f  "
               "%9.3f us/call",
               call, tag, shape.c_str(), ops, bytes, call_ms * 1e3);
}

std::string Dims(int64_t a, int64_t b, int64_t c) {
  return std::to_string(a) + "x" + std::to_string(b) + "x" + std::to_string(c);
}

/// GemmNN (forward), GemmNT (input gradient) and GemmTN (weight gradient)
/// at the Q/K/V/O projection and both FFN shapes. Returns GFLOP/s over the
/// whole set.
double ProbeGemm(const ModelShape& s, int64_t n, turl::Rng* rng,
                 Report* report) {
  const int64_t dims[3][2] = {{s.d, s.d}, {s.d, s.d_ff}, {s.d_ff, s.d}};
  double flops = 0.0, ms = 0.0;
  for (const auto& io : dims) {
    const int64_t in = io[0], out = io[1];
    const std::vector<float> x = RandomBuffer(size_t(n * in), rng);
    const std::vector<float> w = RandomBuffer(size_t(in * out), rng);
    const std::vector<float> dy = RandomBuffer(size_t(n * out), rng);
    std::vector<float> c(size_t(std::max(n * out, in * std::max(out, n))));
    const double call_flops = 2.0 * double(n) * double(in) * double(out);
    const double nn_ms = MedianCallMs([&] {
      k::GemmNN(n, out, in, x.data(), in, w.data(), out, c.data(), out, false);
    });
    const double nt_ms = MedianCallMs([&] {
      k::GemmNT(n, in, out, dy.data(), out, w.data(), out, c.data(), in,
                false);
    });
    const double tn_ms = MedianCallMs([&] {
      k::GemmTN(in, out, n, x.data(), in, dy.data(), out, c.data(), out,
                false);
    });
    const double bytes =
        4.0 * double(n * in + in * out + n * out);  // Two inputs, one output.
    Account(report, "GemmNN", s.tag, Dims(n, out, in), call_flops, bytes,
            nn_ms);
    Account(report, "GemmNT", s.tag, Dims(n, in, out), call_flops, bytes,
            nt_ms);
    Account(report, "GemmTN", s.tag, Dims(in, out, n), call_flops, bytes,
            tn_ms);
    flops += 3.0 * call_flops;
    ms += nn_ms + nt_ms + tn_ms;
  }
  return flops / (ms * 1e6);
}

/// GemvN at the MLM-vocabulary logits shape: 1 x d x vocab. Returns us.
double ProbeGemv(const ModelShape& s, int64_t vocab, turl::Rng* rng,
                 Report* report) {
  const std::vector<float> table = RandomBuffer(size_t(vocab * s.d), rng);
  const std::vector<float> x = RandomBuffer(size_t(s.d), rng);
  std::vector<float> y(static_cast<size_t>(vocab));
  const double ms = MedianCallMs([&] {
    k::GemvN(vocab, s.d, table.data(), s.d, x.data(), y.data(), false);
  });
  Account(report, "GemvN", s.tag, Dims(1, s.d, vocab),
          2.0 * double(vocab * s.d), 4.0 * double(vocab * s.d + s.d + vocab),
          ms);
  return ms * 1e3;
}

}  // namespace

void ProbeKernels(int64_t n, int64_t word_vocab, Report* report) {
  report->Line("kernel accounting at n=%lld elements (bytes are computed "
               "from tensor sizes on a CPU run, not measured):",
               (long long)n);
  turl::Rng rng(1);
  const ModelShape repro{"repro", 64, 128};
  const ModelShape paper{"paper", 312, 1200};
  report->Layer("nn.kernels.gemm_gflops.repro",
                ProbeGemm(repro, n, &rng, report), "GFLOP/s");
  report->Layer("nn.kernels.gemm_gflops.paper",
                ProbeGemm(paper, n, &rng, report), "GFLOP/s");
  report->Layer("nn.kernels.gemv_us.repro",
                ProbeGemv(repro, word_vocab, &rng, report), "us");
  report->Layer("nn.kernels.gemv_us.paper",
                ProbeGemv(paper, word_vocab, &rng, report), "us");

  // Row kernels at the repro shape: GELU over n x d_ff, the masked
  // attention softmax over n x n, LayerNorm over n x d.
  const int64_t d = repro.d, d_ff = repro.d_ff;
  const std::vector<float> act_in = RandomBuffer(size_t(n * d_ff), &rng);
  std::vector<float> act_out(act_in.size());
  const double gelu_ms = MedianCallMs([&] {
    k::ActivationForward(k::Act::kGelu, act_in.data(), act_out.data(),
                         n * d_ff);
  });
  std::vector<float> scores = RandomBuffer(size_t(n * n), &rng);
  std::vector<float> mask(size_t(n * n), 0.0f);
  for (size_t i = 0; i < mask.size(); i += 2) mask[i] = -1e4f;  // Half hidden.
  const double softmax_ms = MedianCallMs([&] {
    k::MaskedScaledSoftmaxRows(scores.data(), mask.data(), 0.125f, n, n);
  });
  const std::vector<float> ln_in = RandomBuffer(size_t(n * d), &rng);
  const std::vector<float> gamma(size_t(d), 1.0f), beta(size_t(d), 0.0f);
  std::vector<float> ln_out(ln_in.size()), xhat(ln_in.size()),
      inv_std(static_cast<size_t>(n));
  const double ln_ms = MedianCallMs([&] {
    k::LayerNormForward(ln_in.data(), gamma.data(), beta.data(), 1e-12f,
                        ln_out.data(), xhat.data(), inv_std.data(), n, d);
  });
  Account(report, "ActivationForward(GELU)", repro.tag, Dims(1, n, d_ff),
          double(n * d_ff), 8.0 * double(n * d_ff), gelu_ms);
  Account(report, "MaskedScaledSoftmaxRows", repro.tag, Dims(1, n, n),
          double(n * n), 12.0 * double(n * n), softmax_ms);
  Account(report, "LayerNormForward", repro.tag, Dims(1, n, d),
          double(n * d), 4.0 * double(3 * n * d + 2 * d + n), ln_ms);
  report->Layer("nn.kernels.gelu_ns_per_elem",
                gelu_ms * 1e6 / double(n * d_ff), "ns");
  report->Layer("nn.kernels.softmax_ns_per_elem",
                softmax_ms * 1e6 / double(n * n), "ns");
  report->Layer("nn.kernels.layernorm_ns_per_elem",
                ln_ms * 1e6 / double(n * d), "ns");
}

}  // namespace turlbench
