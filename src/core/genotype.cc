#include "core/genotype.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "ops/op_registry.h"

namespace autocts::core {

std::string Genotype::ToText() const {
  TextWriter writer;
  AppendText(&writer);
  return writer.Release();
}

void Genotype::AppendText(TextWriter* writer) const {
  writer->AddInt("nodes_per_block", nodes_per_block);
  writer->AddInt("num_blocks", num_blocks());
  for (int64_t b = 0; b < num_blocks(); ++b) {
    writer->AddInt("block_input", block_inputs[b]);
    for (const EdgeGene& edge : blocks[b].edges) {
      writer->Record("edge").Int(b).Int(edge.from).Int(edge.to).Word(edge.op);
      writer->End();
    }
  }
}

StatusOr<Genotype> Genotype::FromText(std::string text) {
  StatusOr<TextReader> reader = TextReader::Parse(std::move(text));
  if (!reader.ok()) return reader.status();
  return FromReader(reader.value());
}

StatusOr<Genotype> Genotype::FromReader(const TextReader& reader) {
  Genotype genotype;
  StatusOr<int64_t> nodes = reader.GetInt("nodes_per_block");
  if (!nodes.ok()) return nodes.status();
  genotype.nodes_per_block = nodes.value();
  StatusOr<int64_t> num_blocks = reader.GetInt("num_blocks");
  if (!num_blocks.ok()) return num_blocks.status();
  for (const std::string_view input : reader.GetAll("block_input")) {
    int64_t block_input = 0;
    if (!ParseExactInt(input, &block_input)) {
      return Status::InvalidArgument("malformed block_input: " +
                                     std::string(input));
    }
    genotype.block_inputs.push_back(block_input);
  }
  // The block count must match the records before it sizes anything.
  if (static_cast<int64_t>(genotype.block_inputs.size()) !=
      num_blocks.value()) {
    return Status::InvalidArgument("block_input count != num_blocks");
  }
  genotype.blocks.resize(num_blocks.value());
  for (const std::string_view edge_text : reader.GetAll("edge")) {
    TokenCursor in(edge_text);
    int64_t block = 0;
    EdgeGene edge;
    const bool numbers =
        in.Int(&block) && in.Int(&edge.from) && in.Int(&edge.to);
    edge.op = in.Word();
    if (!numbers || edge.op.empty() || !in.AtEnd()) {
      return Status::InvalidArgument("malformed edge: " +
                                     std::string(edge_text));
    }
    if (block < 0 || block >= num_blocks.value()) {
      return Status::InvalidArgument("edge block out of range: " +
                                     std::string(edge_text));
    }
    genotype.blocks[block].edges.push_back(edge);
  }
  Status valid = genotype.Validate();
  if (!valid.ok()) return valid;
  return genotype;
}

std::string Genotype::ToPrettyString() const {
  std::ostringstream out;
  out << "ST-backbone with " << num_blocks() << " blocks (M="
      << nodes_per_block << "):\n";
  for (int64_t b = 0; b < num_blocks(); ++b) {
    out << "  block " << b + 1 << " <- "
        << (block_inputs[b] == 0 ? std::string("embedding")
                                 : "block " + std::to_string(block_inputs[b]))
        << "\n";
    for (const EdgeGene& edge : blocks[b].edges) {
      out << "    h" << edge.from << " -[" << edge.op << "]-> h" << edge.to
          << "\n";
    }
  }
  out << "  operator histogram:";
  for (const auto& [op, count] : OperatorHistogram()) {
    out << " " << op << "=" << count;
  }
  out << "\n";
  return out.str();
}

std::vector<std::pair<std::string, int64_t>> Genotype::OperatorHistogram()
    const {
  std::map<std::string, int64_t> counts;
  for (const BlockGenotype& block : blocks) {
    for (const EdgeGene& edge : block.edges) ++counts[edge.op];
  }
  return {counts.begin(), counts.end()};
}

Status Genotype::Validate() const {
  if (nodes_per_block < 2) {
    return Status::InvalidArgument("nodes_per_block must be >= 2");
  }
  if (blocks.size() != block_inputs.size()) {
    return Status::InvalidArgument("blocks/block_inputs size mismatch");
  }
  for (int64_t b = 0; b < num_blocks(); ++b) {
    if (block_inputs[b] < 0 || block_inputs[b] > b) {
      return Status::InvalidArgument(
          "block " + std::to_string(b) + " input must reference the "
          "embedding (0) or an earlier block");
    }
    const std::vector<EdgeGene>& edges = blocks[b].edges;
    // Every node 1..M-1 needs an incoming edge, so a block has at least M-1
    // edges. Checking that first bounds the per-node state below (and what
    // a derived model sizes by M) by the block's own records.
    if (static_cast<int64_t>(edges.size()) < nodes_per_block - 1) {
      return Status::InvalidArgument(
          "block " + std::to_string(b) + " has fewer edges than the " +
          std::to_string(nodes_per_block - 1) + " nodes it must feed");
    }
    std::vector<bool> fed(nodes_per_block, false);
    for (const EdgeGene& edge : edges) {
      if (edge.from < 0 || edge.to >= nodes_per_block ||
          edge.from >= edge.to) {
        return Status::InvalidArgument("edge violates DAG order");
      }
      if (edge.op.empty()) {
        return Status::InvalidArgument("edge with empty operator");
      }
      if (!ops::OpRegistry::Global().Contains(edge.op)) {
        return Status::InvalidArgument("unknown operator: " + edge.op);
      }
      fed[edge.to] = true;
    }
    for (int64_t j = 1; j < nodes_per_block; ++j) {
      if (!fed[j]) {
        return Status::InvalidArgument("block " + std::to_string(b) +
                                       " node " + std::to_string(j) +
                                       " has no incoming edge");
      }
    }
  }
  return Status::Ok();
}

}  // namespace autocts::core
