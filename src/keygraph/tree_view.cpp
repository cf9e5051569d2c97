#include "keygraph/tree_view.h"

#include <algorithm>

#include "common/error.h"
#include "common/io.h"

namespace keygraphs {

TreeView::~TreeView() { secure_wipe(secrets_); }

std::uint32_t TreeView::find(KeyId id) const {
  if (id & (KeyId{1} << 63)) {
    // Individual-key namespace: the id is a fixed function of the user.
    const std::uint32_t index = find_leaf(id & ~(KeyId{1} << 63));
    if (index != kNilIndex && nodes_[index].id == id) return index;
    return kNilIndex;
  }
  if (!by_internal_sparse_.empty()) {
    const auto it = std::lower_bound(
        by_internal_sparse_.begin(), by_internal_sparse_.end(), id,
        [](const auto& entry, KeyId key) { return entry.first < key; });
    if (it == by_internal_sparse_.end() || it->first != id) return kNilIndex;
    return it->second;
  }
  if (id >= by_internal_id_.size()) return kNilIndex;
  return by_internal_id_[static_cast<std::size_t>(id)];
}

std::uint32_t TreeView::find_leaf(UserId user) const {
  const auto it = std::lower_bound(
      by_user_.begin(), by_user_.end(), user,
      [](const auto& entry, UserId u) { return entry.first < u; });
  if (it == by_user_.end() || it->first != user) return kNilIndex;
  return it->second;
}

bool TreeView::has_user(UserId user) const {
  return find_leaf(user) != kNilIndex;
}

SymmetricKey TreeView::group_key() const {
  const Node& root = nodes_.front();
  const BytesView secret = secret_of(0);
  return SymmetricKey{root.id, root.version,
                      Bytes(secret.begin(), secret.end())};
}

std::vector<UserId> TreeView::users_under(KeyId node) const {
  if (find(node) == kNilIndex) throw ProtocolError("KeyTree: no such k-node");
  return resolve_subgroup(node, std::nullopt);
}

std::vector<SymmetricKey> TreeView::keyset(UserId user) const {
  const std::uint32_t leaf = find_leaf(user);
  if (leaf == kNilIndex) throw ProtocolError("KeyTree: user not in group");
  std::vector<SymmetricKey> out;
  for (std::uint32_t i = leaf; i != kNilIndex; i = nodes_[i].parent) {
    const BytesView secret = secret_of(i);
    out.push_back(SymmetricKey{nodes_[i].id, nodes_[i].version,
                               Bytes(secret.begin(), secret.end())});
  }
  return out;
}

bool TreeView::user_holds(UserId user, KeyId key) const {
  const std::uint32_t leaf = find_leaf(user);
  if (leaf == kNilIndex) return false;
  for (std::uint32_t i = leaf; i != kNilIndex; i = nodes_[i].parent) {
    if (nodes_[i].id == key) return true;
  }
  return false;
}

std::vector<UserId> TreeView::users() const {
  std::vector<UserId> out;
  out.reserve(by_user_.size());
  for (const auto& entry : by_user_) out.push_back(entry.first);
  return out;
}

Bytes TreeView::serialize() const {
  ByteWriter writer;
  writer.u8(detail::kTreeMagic);
  writer.u8(detail::kTreeVersion);
  writer.u32(static_cast<std::uint32_t>(degree_));
  writer.u64(key_size_);
  writer.u64(next_id_);
  writer.u64(nodes_.size());
  // nodes_ is stored in the serialization preorder, so the historical
  // stack-driven DFS becomes a linear scan with identical output bytes.
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    writer.u64(node.id);
    writer.u32(node.version);
    writer.var_bytes(secret_of(i));
    writer.u8(node.leaf ? 1 : 0);
    if (node.leaf) writer.u64(leaf_users_[node.leaf_begin]);
    writer.u16(static_cast<std::uint16_t>(node.child_count));
  }
  return writer.take();
}

std::vector<UserId> TreeView::recipients(
    KeyId include, std::optional<KeyId> exclude) const {
  const std::uint32_t inc = find(include);
  if (inc == kNilIndex) return {};  // vanished in the same operation
  // A subtree's members are exactly its slice [leaf_begin, leaf_begin +
  // user_count) of leaf_users_, so userset(include) - userset(exclude) is
  // the interval difference [a, b) - [c, d) = [a, min(b, c)) + [max(a, d),
  // b), clamped to [a, b). An unknown exclude excludes no one: [b, b).
  const std::uint32_t a = nodes_[inc].leaf_begin;
  const std::uint32_t b = a + nodes_[inc].user_count;
  const std::uint32_t exc = exclude ? find(*exclude) : kNilIndex;
  const std::uint32_t c = exc == kNilIndex ? b : nodes_[exc].leaf_begin;
  const std::uint32_t d = exc == kNilIndex ? b : c + nodes_[exc].user_count;
  const std::uint32_t head_end = std::max(a, std::min(b, c));
  const std::uint32_t tail_begin = std::min(b, std::max(a, d));
  std::vector<UserId> out;
  out.reserve((head_end - a) + (b - tail_begin));
  const auto first = leaf_users_.begin();
  out.insert(out.end(), first + a, first + head_end);
  out.insert(out.end(), first + tail_begin, first + b);
  return out;
}

std::vector<UserId> TreeView::resolve_subgroup(
    KeyId include, std::optional<KeyId> exclude) const {
  std::vector<UserId> out = recipients(include, exclude);
  std::sort(out.begin(), out.end());
  return out;
}

BytesView TreeView::find_secret(const KeyRef& ref) const {
  const std::uint32_t index = find(ref.id);
  if (index == kNilIndex || nodes_[index].version != ref.version) return {};
  return secret_of(index);
}

KeyGraph TreeView::to_key_graph() const {
  KeyGraph graph;
  for (const Node& node : nodes_) graph.add_key(node.id);
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    if (node.parent != kNilIndex) {
      graph.add_key_edge(node.id, nodes_[node.parent].id);
    }
    if (node.leaf) {
      const UserId user = leaf_users_[node.leaf_begin];
      graph.add_user(user);
      graph.add_user_edge(user, node.id);
    }
  }
  return graph;
}

}  // namespace keygraphs
