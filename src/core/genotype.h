// The derived architecture description: which operator sits on each kept
// edge of every ST-block's micro-DAG, and how the blocks connect in the
// ST-backbone. Serializable so searched architectures can be stored,
// transferred across datasets (Table 35), and inspected (Figure 8).
#ifndef AUTOCTS_CORE_GENOTYPE_H_
#define AUTOCTS_CORE_GENOTYPE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/text_codec.h"

namespace autocts::core {

// One kept edge h_from -> h_to inside an ST-block, labelled with the
// operator applied along it.
struct EdgeGene {
  int64_t from = 0;
  int64_t to = 0;
  std::string op;

  bool operator==(const EdgeGene& other) const = default;
};

struct BlockGenotype {
  std::vector<EdgeGene> edges;

  bool operator==(const BlockGenotype& other) const = default;
};

struct Genotype {
  int64_t nodes_per_block = 5;  // M
  std::vector<BlockGenotype> blocks;
  // Macro topology: for block j (0-based), the index of the node feeding
  // it: 0 = the embedding layer, i >= 1 = block i-1's output.
  std::vector<int64_t> block_inputs;

  int64_t num_blocks() const { return static_cast<int64_t>(blocks.size()); }

  bool operator==(const Genotype& other) const = default;

  // Round-trippable text form (common/text_codec format). AppendText
  // writes the same records into a larger document; FromReader decodes the
  // records of a parsed one, such as one candidate of a candidate set.
  std::string ToText() const;
  void AppendText(TextWriter* writer) const;
  static StatusOr<Genotype> FromText(std::string text);
  static StatusOr<Genotype> FromReader(const TextReader& reader);

  // Pretty multi-line description for logs and the Figure 8 case study.
  std::string ToPrettyString() const;

  // Count of each operator across all blocks (Figure 8 reports these).
  std::vector<std::pair<std::string, int64_t>> OperatorHistogram() const;

  // Structural validity: edge indices within range, edges acyclic (from <
  // to), every operator registered in ops::OpRegistry, every node 1..M-1
  // fed by at least one edge, block inputs referencing earlier nodes only.
  Status Validate() const;
};

}  // namespace autocts::core

#endif  // AUTOCTS_CORE_GENOTYPE_H_
