// End-to-end model cost functions for the paper's evaluation figures.
//
// Each function prices one model's forward (or forward+backward) pass under a
// chosen engine strategy on a concrete dynamic-sparsity workload, returning
// simulated latency and a memory footprint. These are the generators behind
// Figs. 8–15 and 19; the mapping from figure to function is in DESIGN.md §4.
#ifndef PIT_RUNTIME_MODELS_H_
#define PIT_RUNTIME_MODELS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pit/core/compiler.h"
#include "pit/gpusim/cost_model.h"
#include "pit/graph/execution_plan.h"
#include "pit/nn/modules.h"
#include "pit/runtime/engine.h"
#include "pit/tensor/tensor.h"

namespace pit {

struct TransformerDims {
  std::string name;
  int64_t layers = 12;
  int64_t hidden = 768;
  int64_t heads = 12;
  int64_t ffn_hidden = 3072;
  int64_t vocab = 32000;
  // Decoder-only models: PyTorch-S cannot exploit sequence-length sparsity
  // there (no 32-block row structure in causal attention), so it keeps the
  // padded batch (§5.1 OPT: only PIT removes the padding).
  bool decoder = false;
};

TransformerDims BertBase();
TransformerDims BertLarge();
TransformerDims LongformerBase();
TransformerDims LongformerLarge();
TransformerDims MuseformerDims();
// OPT family: "125M", "350M", "1.3B", "13B", "30B".
TransformerDims OptDims(const std::string& size);
// Switch Transformer (encoder-decoder backbone priced as 2x encoder stack).
TransformerDims SwitchDims();
TransformerDims SwinMoeDims();

struct ModelRunCost {
  CostBreakdown cost;
  int64_t memory_bytes = 0;
  bool oom = false;  // exceeded device memory (Tutel/DeepSpeed at 256 experts)
  double LatencyMs() const { return cost.Total() / 1000.0; }
  double MemoryGb() const { return static_cast<double>(memory_bytes) / (1024.0 * 1024.0 * 1024.0); }
};

// ---- Dense-backbone transformer with varying sequence lengths (BERT, Fig.11;
//      also the backbone part of every other model).
ModelRunCost TransformerRun(const CostModel& model, Engine engine, const TransformerDims& dims,
                            const std::vector<int64_t>& lens, bool training = false);

// ---- MoE models -----------------------------------------------------------
struct MoeRunConfig {
  int num_experts = 64;
  // Tokens per expert for each MoE layer (outer: layer; inner: expert).
  std::vector<std::vector<int64_t>> layer_loads;
  int64_t device_memory_bytes = 80ll << 30;  // A100-80GB
};

// Switch Transformer (Fig. 8): backbone with every-other-layer MoE FFN.
ModelRunCost SwitchTransformerRun(const CostModel& model, Engine engine,
                                  const TransformerDims& dims, const std::vector<int64_t>& lens,
                                  const MoeRunConfig& moe);

// Swin-MoE (Fig. 9): vision backbone, fixed sequence length per image.
ModelRunCost SwinMoeRun(const CostModel& model, Engine engine, const TransformerDims& dims,
                        int64_t batch, int64_t tokens_per_image, const MoeRunConfig& moe);

// ---- OPT (Fig. 10 inference, Fig. 14 training) -----------------------------
struct OptRunConfig {
  double activation_sparsity = 0.99;  // ReLU output sparsity in the FFN
  bool training = false;
  int64_t device_memory_bytes = 8ll * (32ll << 30);  // 8x V100-32GB
};
ModelRunCost OptRun(const CostModel& model, Engine engine, const TransformerDims& dims,
                    const std::vector<int64_t>& lens, const OptRunConfig& config);

// ---- Sparse attention models (Longformer Fig. 12, Museformer Fig. 13) ------
struct SparseAttentionRunConfig {
  int64_t seq_len = 2048;
  int64_t batch = 1;
  double mask_density = 0.1;      // nonzero fraction of the attention mask
  double block32_density = 0.2;   // fraction covered at 32x32 blocks (PyTorch-S)
  int64_t device_memory_bytes = 32ll << 30;  // V100-32GB
};
ModelRunCost SparseAttentionRun(const CostModel& model, Engine engine,
                                const TransformerDims& dims,
                                const SparseAttentionRunConfig& config);

// ---- Sparse training by iterative pruning (Fig. 15) ------------------------
struct SparseTrainingRunConfig {
  int64_t batch = 32;
  int64_t seq_len = 128;
  int64_t block_rows = 32;  // pruning granularity
  int64_t block_cols = 64;
  double sparsity = 0.9;    // weight sparsity ratio
};
ModelRunCost SparseTrainingRun(const CostModel& model, Engine engine,
                               const TransformerDims& dims,
                               const SparseTrainingRunConfig& config);

// ---- Planned real-tensor execution ----------------------------------------
//
// The stack interface the serving engine drives: a stack of planned layers,
// each a cached ExecutionPlan over weights referenced in place, replayed one
// after another through per-stream state. Both stacks below share it, so
// every caller that only serves (the ServingEngine, benches) has one code
// path whatever the stack's layers compute.
class PlannedStack {
 public:
  // Per-stream replay state over the stack's shared compiled plans for one
  // (tokens, masked?) shape: per layer a co-owning plan handle, a private
  // ExecutionContext and a private feed map, plus private staging between
  // layers. Distinct streams forward concurrently over the same plans with
  // zero shared mutable state. Movable, so callers can pool streams.
  struct Stream {
    struct Layer {
      std::shared_ptr<ExecutionPlan> plan;
      std::unique_ptr<ExecutionContext> ctx;
      std::map<std::string, const Tensor*> feeds;
    };
    std::vector<Layer> layers;
    std::vector<Tensor> staging;  // layers-1 buffers; the last layer writes `out`
    int64_t tokens = 0;
    bool masked = false;
    // Arena bytes the stream's contexts pin (for serving-pool accounting).
    int64_t ArenaBytes() const;
    int64_t NumContexts() const { return static_cast<int64_t>(layers.size()); }
    // Installs one shared cancel token on every layer context, so a token
    // fired mid-forward stops the remaining layers' replays at their next
    // step boundary (cancellation.h). Borrowed: the token must outlive every
    // ForwardWith. Re-installing the same pointer is free (pooled streams).
    void SetCancelToken(const CancelToken* token);
  };

  explicit PlannedStack(int64_t hidden) : hidden_(hidden) {}
  virtual ~PlannedStack();
  // Plans reference the stack's weights in place: the object is pinned.
  PlannedStack(const PlannedStack&) = delete;
  PlannedStack& operator=(const PlannedStack&) = delete;

  int64_t hidden() const { return hidden_; }
  // Whether forwards accept a [tokens, tokens] attention mask.
  virtual bool takes_mask() const = 0;
  // Builds a stream for (tokens, masked?), compiling/caching the shared plans
  // if needed (the only part that takes a lock). `masked` requires
  // takes_mask(). `pit` plans the layers with their PIT-pass decisions;
  // replay then needs one compiler per concurrent stream.
  virtual Stream MakeStream(int64_t tokens, bool masked, bool pit) const = 0;
  // Lock-free forward over a stream's private contexts: safe concurrently
  // with other streams' ForwardWith, bitwise identical to the stack's
  // Forward. x: [tokens, hidden]; mask: [tokens, tokens] iff the stream is
  // masked; `compiler` nullptr runs dense; `out` is preallocated.
  void ForwardWith(Stream& stream, const Tensor& x, const Tensor* attn_mask,
                   PitCompiler* compiler, Tensor* out) const;

 protected:
  // The shape-independent half of MakeStream: fresh contexts, feed maps and
  // staging over the given per-layer plans.
  Stream AssembleStream(std::vector<std::shared_ptr<ExecutionPlan>> plans, int64_t tokens,
                        bool masked) const;

 private:
  int64_t hidden_ = 0;
};

// Unlike the cost functions above (which price simulated latency), this is a
// functional model trunk — an OPT-style stack of residual FFN blocks
// (x + Down(ReLU(Up(x)))) on real tensors — whose per-layer forwards replay
// cached ExecutionPlans: graphs are compiled once per token count, weights
// are referenced in place, intermediates live in reused arenas, and the PIT
// variant dispatches each layer's sparse down-projection through the
// compiler's per-site kernel handles.
class PlannedFfnStack : public PlannedStack {
 public:
  PlannedFfnStack(int64_t layers, int64_t hidden, int64_t ffn_hidden, Rng& rng);
  ~PlannedFfnStack() override;

  // Planned dense forward; x: [tokens, hidden].
  Tensor Forward(const Tensor& x) const;
  // Planned PIT forward: each layer's down-projection consumes its ReLU
  // activation through `compiler`'s sparse path.
  Tensor ForwardPit(const Tensor& x, PitCompiler& compiler) const;
  // Eager reference: direct ops, one fresh tensor per intermediate — the
  // differential oracle and the bench baseline for the planned path.
  Tensor ForwardEager(const Tensor& x) const;

  // FFN blocks have no attention: streams are never masked.
  bool takes_mask() const override { return false; }
  Stream MakeStream(int64_t tokens, bool masked, bool pit) const override;
  // Unmasked shorthands for the stack interface.
  Stream MakeStream(int64_t tokens, bool pit = false) const {
    return MakeStream(tokens, false, pit);
  }
  using PlannedStack::ForwardWith;
  void ForwardWith(Stream& stream, const Tensor& x, PitCompiler* compiler, Tensor* out) const {
    ForwardWith(stream, x, nullptr, compiler, out);
  }

  // Aggregate memory-planning stats over the dense plans for this token
  // count (compiles them if needed).
  PlanStats StatsFor(int64_t tokens) const;
  int64_t layers() const { return static_cast<int64_t>(weights_.size()); }

 private:
  struct LayerWeights {
    Tensor w_up, b_up, w_down, b_down;
  };
  struct TokenEntry {
    std::vector<std::unique_ptr<Graph>> graphs;             // one per layer
    std::vector<std::vector<MatmulDecision>> decisions;     // PIT pass per layer
    std::map<std::string, const Tensor*> feeds;
    std::vector<Tensor> outs;  // per-layer output staging, allocated once
  };
  TokenEntry& EntryFor(int64_t tokens) const;
  Tensor RunPlanned(const Tensor& x, PitCompiler* compiler) const;

  std::vector<LayerWeights> weights_;
  mutable std::map<int64_t, TokenEntry> entries_;  // keyed by token count, bounded
  mutable std::mutex mu_;  // forwards share plan arenas; serialize them
};

// ---- Planned full-transformer execution ------------------------------------
//
// The PlannedFfnStack's seam extended to whole encoder blocks: a stack of
// TransformerEncoderLayers (pre-norm attention + FFN) whose per-layer
// forwards replay cached whole-block ExecutionPlans — layernorms, per-head
// batched attention, masked softmax, residuals, and the FFN all dispatch as
// compiled arena steps. Steady-state dense forwards perform ~zero heap
// allocations: layer outputs stage into per-token-count buffers allocated
// once, and each layer's plan reuses its own arena.
class PlannedTransformerStack : public PlannedStack {
 public:
  PlannedTransformerStack(int64_t layers, int64_t hidden, int64_t heads, int64_t ffn_hidden,
                          Rng& rng);
  ~PlannedTransformerStack() override;

  // Planned dense forward; x: [tokens, hidden], mask: [tokens, tokens] or
  // nullptr (shared by every layer).
  Tensor Forward(const Tensor& x, const Tensor* attn_mask = nullptr) const;
  // Planned PIT forward: each layer's FFN down-projection consumes its ReLU
  // activation through `compiler`'s per-site kernel handles.
  Tensor ForwardPit(const Tensor& x, PitCompiler& compiler,
                    const Tensor* attn_mask = nullptr) const;
  // Allocation-free seam for steady-state serving loops (and the bench's
  // thread-sweep measurements): writes the stack's output into the
  // preallocated `out` ([tokens, hidden]); the final layer targets it
  // directly, so no per-call result tensor is materialized. `compiler`
  // nullptr runs dense.
  void ForwardInto(const Tensor& x, const Tensor* attn_mask, PitCompiler* compiler,
                   Tensor* out) const;
  // Eager reference: direct ops, one fresh tensor per intermediate — the
  // differential oracle and the bench baseline for the planned path.
  Tensor ForwardEager(const Tensor& x, const Tensor* attn_mask = nullptr) const;

  bool takes_mask() const override { return true; }
  // Locks each layer's plan cache once.
  Stream MakeStream(int64_t tokens, bool masked, bool pit = false) const override;

  // Aggregate memory-planning stats over the layers' dense plans for this
  // shape (compiles them if needed).
  PlanStats StatsFor(int64_t tokens, bool masked = false) const;
  int64_t layers() const { return static_cast<int64_t>(layers_.size()); }

 private:
  Tensor RunPlanned(const Tensor& x, const Tensor* attn_mask, PitCompiler* compiler) const;

  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
  // Per-layer output staging, allocated once per token count (bounded).
  mutable std::map<int64_t, std::vector<Tensor>> staging_;
  mutable std::mutex mu_;  // staging buffers are shared; serialize forwards
};

}  // namespace pit

#endif  // PIT_RUNTIME_MODELS_H_
