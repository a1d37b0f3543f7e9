// Reverse-mode automatic differentiation.
//
// A Variable is a cheap handle to a tape Node holding a value tensor, an
// optional gradient tensor, and a backward closure that propagates the
// node's gradient to its inputs. Calling Backward() on a (scalar) Variable
// topologically sorts the reachable subgraph and runs the closures in
// reverse order, accumulating gradients into every node with
// requires_grad set (typically the model parameters). The tape holds only
// what a backward pass still needs (DESIGN.md, "Tape lifetime").
#ifndef AUTOCTS_AUTOGRAD_VARIABLE_H_
#define AUTOCTS_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace autocts {

namespace internal {

// One tape entry. Exposed only so custom operations (e.g. the causal
// convolution in nn/) can build their own nodes via MakeNode below.
struct Node {
  Tensor value;
  // Undefined until first accumulation; on an interior node, undefined
  // again once Backward() has run its closure.
  Tensor grad;
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> inputs;
  // Propagates this node's grad into inputs' grads. May be empty for leaves.
  std::function<void(Node*)> backward;
  // Operation that built this node (static string; nullptr for leaves and
  // callers that predate naming). Used by the numeric trace below.
  const char* op = nullptr;
  // Creation ordinal while a numeric trace is active; -1 otherwise.
  int64_t trace_index = -1;
  // Visitation stamp for Backward()'s topological sort: the node counts as
  // visited when this equals the current traversal's epoch. Replaces a
  // per-Backward hash set (one heap allocation per tape node per step).
  // Driver-thread only, like the rest of the tape.
  uint64_t visit_epoch = 0;
};

// Adds `g` (same shape as the node value) into `node`'s gradient. The
// first accumulation keeps `g`'s buffer when no other handle shares it (a
// kernel result passed as a temporary) and copies it otherwise.
void AccumulateGrad(Node* node, Tensor g);

}  // namespace internal

// Differentiable tensor handle. Copies share the underlying node.
class Variable {
 public:
  // An undefined placeholder.
  Variable();
  // Wraps `value` as a leaf. With requires_grad, gradients accumulate here.
  explicit Variable(Tensor value, bool requires_grad = false);

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const;
  // Mutable access for optimizers; must not be called mid-graph.
  Tensor& mutable_value();
  bool requires_grad() const;

  // The accumulated gradient; CHECK-fails if none has been accumulated.
  const Tensor& grad() const;
  bool has_grad() const;
  // Drops the accumulated gradient (optimizer ZeroGrad).
  void ClearGrad();
  // Adds `g` into the gradient directly (same shape as the value); used by
  // algorithms that assemble gradients manually, e.g. the second-order
  // DARTS update in core/searcher.cc.
  void AccumulateGrad(const Tensor& g);

  // Runs backpropagation seeding this (single-element) variable with 1.
  // Gradients reach leaves only: an interior node's gradient lives for one
  // backward pass, so has_grad() is false on it afterwards.
  void Backward();
  // Runs backpropagation with an explicit seed gradient (same shape).
  void Backward(const Tensor& seed);

  const Shape& shape() const { return value().shape(); }
  int64_t ndim() const { return value().ndim(); }
  int64_t dim(int64_t axis) const { return value().dim(axis); }
  int64_t size() const { return value().size(); }

  // Internal: the underlying tape node.
  const std::shared_ptr<internal::Node>& node() const { return node_; }

  // Internal: wraps an existing node.
  static Variable FromNode(std::shared_ptr<internal::Node> node);

 private:
  std::shared_ptr<internal::Node> node_;
};

// Builds an interior tape node for a custom operation. `backward` receives
// the node (whose grad is fully accumulated) and must propagate into
// node->inputs via internal::AccumulateGrad. requires_grad is inferred from
// the inputs (always false under a NoGradScope); a node that does not
// require grad keeps neither its inputs nor `backward`. `op_name` labels
// the node for the numeric trace; it must point to storage outliving the
// node (string literals).
Variable MakeNode(Tensor value, std::vector<Variable> inputs,
                  std::function<void(internal::Node*)> backward,
                  const char* op_name = nullptr);

// Turns tape recording off on the calling thread while alive: MakeNode
// builds value-only nodes, so a forward pass holds no graph and frees
// every intermediate as soon as its last handle goes. Forward values are
// unchanged. Scopes nest (each restores the mode it found) and are
// thread-local: other threads keep recording.
class NoGradScope {
 public:
  NoGradScope();
  ~NoGradScope();
  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

 private:
  bool previous_;
};

// --------------------------------------------------------------------------
// Numeric trace (debug mode): attributes the FIRST non-finite value produced
// anywhere on the tape to the op that produced it.
//
// While a trace is active, every node built by MakeNode has its forward
// value scanned at construction, and Backward() scans the gradients written
// by each backward closure as it runs. The first non-finite hit is recorded
// (op name, creation ordinal, forward/backward phase); later hits are
// ignored. The scans make every op O(size) more expensive, so the trace is
// meant for attribution re-runs after a divergence is detected (see
// common/numerics.h AttributeDivergence), not for steady-state training.
// Global and not thread-safe: enable only from the single driver thread.
// --------------------------------------------------------------------------

struct NumericTraceReport {
  bool triggered = false;
  std::string op;          // "" when the producing node was unnamed
  int64_t node_index = -1; // creation ordinal since BeginNumericTrace
  bool in_backward = false;

  // e.g. "op 'softmax' (node #42, backward pass)".
  std::string ToString() const;
};

// Starts a fresh trace (resets the ordinal counter and the report).
void BeginNumericTrace();
// Stops tracing and returns the report of the first offender, if any.
NumericTraceReport EndNumericTrace();

}  // namespace autocts

#endif  // AUTOCTS_AUTOGRAD_VARIABLE_H_
