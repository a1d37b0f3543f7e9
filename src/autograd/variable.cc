#include "autograd/variable.h"

#include <atomic>
#include <cmath>
#include <mutex>
#include <new>

#include "common/buffer_pool.h"
#include "common/trace.h"
#include "tensor/tensor_ops.h"

namespace autocts {

namespace {

// ----------------------------------------------------------------------
// Tape-node chunk freelist. MakeNode runs a few thousand times per search
// step, and each make_shared<Node> was one heap allocation of the same
// fixed size (control block + Node fused). Recycling those chunks through
// an intrusive freelist makes a warmed-up step allocate nothing for the
// tape skeleton. Keyed by chunk size so the allocate_shared rebind below
// gets its own list; obeys the AUTOCTS_TENSOR_POOL kill switch so pool-off
// runs keep full allocator-level debugging precision (ASan use-after-free
// on freed nodes).
// ----------------------------------------------------------------------

template <size_t kSize>
class ChunkFreeList {
 public:
  static void* Get() {
    if (BufferPool::Global().enabled()) {
      std::lock_guard<std::mutex> lock(Mutex());
      if (head_ != nullptr) {
        FreeChunk* chunk = head_;
        head_ = chunk->next;
        --cached_;
        return chunk;
      }
    }
    return ::operator new(kSize);
  }

  static void Put(void* p) {
    if (BufferPool::Global().enabled()) {
      std::lock_guard<std::mutex> lock(Mutex());
      if (cached_ < kMaxCached) {
        auto* chunk = static_cast<FreeChunk*>(p);
        chunk->next = head_;
        head_ = chunk;
        ++cached_;
        return;
      }
    }
    ::operator delete(p);
  }

 private:
  // The freed chunk itself stores the link, so the list costs no memory
  // beyond the parked chunks.
  struct FreeChunk {
    FreeChunk* next;
  };
  static_assert(kSize >= sizeof(FreeChunk));

  // A LIFO freelist caches at most the peak number of simultaneously live
  // nodes — one search step's tape — so the cap is a backstop, not a
  // steady-state limit.
  static constexpr int64_t kMaxCached = int64_t{1} << 16;

  // Leaked, like BufferPool::Global(): nodes held by objects with static
  // storage duration may release after normal static destruction.
  static std::mutex& Mutex() {
    static std::mutex* mutex = new std::mutex();
    return *mutex;
  }

  inline static FreeChunk* head_ = nullptr;
  inline static int64_t cached_ = 0;
};

// std::allocate_shared adaptor: single-object allocations (the fused
// control-block+Node chunk) go through the freelist; anything else falls
// back to the global allocator.
template <typename T>
struct TapeAllocator {
  using value_type = T;

  TapeAllocator() = default;
  template <typename U>
  TapeAllocator(const TapeAllocator<U>&) noexcept {}  // NOLINT: rebind

  T* allocate(size_t n) {
    if (n == 1) return static_cast<T*>(ChunkFreeList<sizeof(T)>::Get());
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) noexcept {
    if (n == 1) {
      ChunkFreeList<sizeof(T)>::Put(p);
      return;
    }
    ::operator delete(p);
  }

  template <typename U>
  bool operator==(const TapeAllocator<U>&) const noexcept {
    return true;
  }
};

std::shared_ptr<internal::Node> AllocateNode() {
  return std::allocate_shared<internal::Node>(
      TapeAllocator<internal::Node>());
}

// Numeric-trace state (see variable.h). thread_local so that concurrent
// training loops — e.g. the eval scheduler's candidate workers — can each
// attribute their own divergence without seeing (or corrupting) another
// thread's trace. A traced computation must run entirely on the thread
// that called BeginNumericTrace, which holds everywhere: attribution
// re-runs the loss closure synchronously on the caller (ParallelFor
// worker chunks never call MakeNode; kernels run below the tape).
thread_local bool g_trace_active = false;
thread_local int64_t g_trace_next_index = 0;
thread_local NumericTraceReport g_trace_report;

// Grad mode (see NoGradScope). thread_local for the same reason: a
// serving worker's forward pass must not stop a training thread's tape.
thread_local bool g_grad_enabled = true;

bool HasNonFinite(const Tensor& tensor) {
  if (!tensor.defined()) return false;
  const double* values = tensor.data();
  for (int64_t i = 0; i < tensor.size(); ++i) {
    if (!std::isfinite(values[i])) return true;
  }
  return false;
}

void RecordTraceHit(const internal::Node* node, bool in_backward) {
  if (g_trace_report.triggered) return;
  g_trace_report.triggered = true;
  g_trace_report.op = node->op != nullptr ? node->op : "";
  g_trace_report.node_index = node->trace_index;
  g_trace_report.in_backward = in_backward;
}

}  // namespace

namespace internal {

void AccumulateGrad(Node* node, Tensor g) {
  AUTOCTS_CHECK(g.shape() == node->value.shape())
      << "gradient shape " << ShapeToString(g.shape())
      << " does not match value shape "
      << ShapeToString(node->value.shape());
  if (node->grad.defined()) {
    AddInPlace(&node->grad, g);
    return;
  }
  // The use_count rule of PyTorch's AccumulateGrad: a buffer no other
  // handle holds can become the gradient as is, since later in-place
  // accumulation is invisible to everyone else.
  node->grad = g.unique() ? std::move(g) : g.Clone();
}

}  // namespace internal

Variable::Variable() = default;

Variable::Variable(Tensor value, bool requires_grad) {
  node_ = AllocateNode();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

const Tensor& Variable::value() const {
  AUTOCTS_CHECK(defined());
  return node_->value;
}

Tensor& Variable::mutable_value() {
  AUTOCTS_CHECK(defined());
  return node_->value;
}

bool Variable::requires_grad() const {
  AUTOCTS_CHECK(defined());
  return node_->requires_grad;
}

const Tensor& Variable::grad() const {
  AUTOCTS_CHECK(defined());
  AUTOCTS_CHECK(node_->grad.defined()) << "no gradient accumulated";
  return node_->grad;
}

bool Variable::has_grad() const { return defined() && node_->grad.defined(); }

void Variable::ClearGrad() {
  AUTOCTS_CHECK(defined());
  node_->grad = Tensor();
}

void Variable::AccumulateGrad(const Tensor& g) {
  AUTOCTS_CHECK(defined());
  internal::AccumulateGrad(node_.get(), g);
}

void Variable::Backward() {
  AUTOCTS_CHECK_EQ(size(), 1) << "Backward() without seed needs a scalar";
  Backward(Tensor::Ones(shape()));
}

void Variable::Backward(const Tensor& seed) {
  AUTOCTS_CHECK(defined());
  AUTOCTS_CHECK(seed.shape() == shape());

  // Iterative post-order DFS to get a topological order of the reachable
  // subgraph restricted to nodes that require grad. Visitation is tracked
  // by stamping Node::visit_epoch with a fresh per-traversal epoch — a
  // pointer hash set here would heap-allocate once per tape node per step.
  // Atomic so concurrent Backward() calls on disjoint graphs (one per
  // eval-scheduler worker) draw globally unique epochs: tape nodes recycle
  // across threads through the freelist, so a stale visit_epoch stamp must
  // never collide with a live traversal's epoch.
  static std::atomic<uint64_t> backward_epoch{0};
  const uint64_t epoch =
      backward_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  const auto visited = [epoch](const internal::Node* node) {
    return node->visit_epoch == epoch;
  };
  std::vector<internal::Node*> topo_order;
  struct Frame {
    internal::Node* node;
    size_t next_input;
  };
  std::vector<Frame> stack;
  if (node_->requires_grad) stack.push_back({node_.get(), 0});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_input == 0 && visited(frame.node)) {
      stack.pop_back();
      continue;
    }
    if (frame.next_input < frame.node->inputs.size()) {
      internal::Node* child = frame.node->inputs[frame.next_input++].get();
      if (child->requires_grad && !visited(child)) {
        stack.push_back({child, 0});
      }
    } else {
      if (!visited(frame.node)) {
        frame.node->visit_epoch = epoch;
        topo_order.push_back(frame.node);
      }
      stack.pop_back();
    }
  }

  internal::AccumulateGrad(node_.get(), seed);
  for (auto it = topo_order.rbegin(); it != topo_order.rend(); ++it) {
    internal::Node* node = *it;
    if (node->backward && node->grad.defined()) {
      {
        // Spans the node's backward closure under the forward op's label
        // (aggregated separately as "<op>.bwd").
        trace::Scope span(node->op != nullptr ? node->op : "unlabeled",
                          /*backward=*/true);
        node->backward(node);
      }
      if (g_trace_active && !g_trace_report.triggered) {
        // The closure that just ran wrote into its inputs' grads; the first
        // non-finite value to appear there is attributed to this node's op.
        for (const std::shared_ptr<internal::Node>& input : node->inputs) {
          if (HasNonFinite(input->grad)) {
            RecordTraceHit(node, /*in_backward=*/true);
            break;
          }
        }
      }
      // Fully propagated: an interior gradient lives for one backward pass
      // (a second pass through this node must not count it again).
      node->grad = Tensor();
    }
  }
}

Variable Variable::FromNode(std::shared_ptr<internal::Node> node) {
  Variable v;
  v.node_ = std::move(node);
  return v;
}

Variable MakeNode(Tensor value, std::vector<Variable> inputs,
                  std::function<void(internal::Node*)> backward,
                  const char* op_name) {
  std::shared_ptr<internal::Node> node = AllocateNode();
  node->value = std::move(value);
  node->op = op_name;
  bool requires_grad = false;
  for (const Variable& input : inputs) {
    AUTOCTS_CHECK(input.defined());
    requires_grad = requires_grad || input.node()->requires_grad;
  }
  // Backward() never visits a node that does not require grad, so such a
  // node keeps neither its inputs nor its closure (nor what they capture).
  if (requires_grad && g_grad_enabled) {
    node->requires_grad = true;
    node->inputs.reserve(inputs.size());
    for (const Variable& input : inputs) node->inputs.push_back(input.node());
    node->backward = std::move(backward);
  }
  if (g_trace_active) {
    node->trace_index = g_trace_next_index++;
    if (HasNonFinite(node->value)) {
      RecordTraceHit(node.get(), /*in_backward=*/false);
    }
  }
  return Variable::FromNode(std::move(node));
}

NoGradScope::NoGradScope() : previous_(g_grad_enabled) {
  g_grad_enabled = false;
}

NoGradScope::~NoGradScope() { g_grad_enabled = previous_; }

std::string NumericTraceReport::ToString() const {
  if (!triggered) return "no non-finite value traced";
  std::string out = "op '";
  out += op.empty() ? "<unnamed>" : op;
  out += "' (node #" + std::to_string(node_index);
  out += in_backward ? ", backward pass)" : ", forward pass)";
  return out;
}

void BeginNumericTrace() {
  g_trace_active = true;
  g_trace_next_index = 0;
  g_trace_report = NumericTraceReport();
}

NumericTraceReport EndNumericTrace() {
  g_trace_active = false;
  return g_trace_report;
}

}  // namespace autocts
