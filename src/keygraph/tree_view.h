// Immutable per-epoch snapshots of the key tree (the RCU read path).
//
// A TreeView is a compact, read-only image of one KeyTree epoch: every
// k-node in preorder, all key material pooled in one contiguous buffer,
// plus index tables for by-id and by-user lookup. The writer rebuilds and
// publishes a fresh view (shared_ptr swap) at the end of every mutation;
// readers acquire() the current view and run entirely outside the group
// lock — a reader's view never changes underneath it, and the key material
// it references stays alive (and is wiped) with the view's last reference.
//
// Layout notes:
//   - nodes_ is stored in the exact preorder KeyTree::serialize() has
//     always emitted, so serialize() is a linear scan and the bytes are
//     identical to the historical pointer-tree encoding;
//   - preorder makes every subtree a contiguous range [i, subtree_end);
//   - leaf_users_ lists every leaf's user in the same preorder, so each
//     subtree's members are one contiguous slice [leaf_begin,
//     leaf_begin + user_count) of it: recipients() copies that slice (in
//     preorder, no scan, no sort), while users_under() and
//     resolve_subgroup() return ascending sorted copies of it;
//   - a Node is 40 bytes: the leaf's user lives in leaf_users_, not in the
//     node, and counts are u32 like every other index;
//   - secrets live at [index * key_size, ...) in one pooled buffer that is
//     securely wiped on destruction;
//   - internal k-node ids are dense counter values, so the id table is a
//     flat vector indexed by id; leaf ids are individual_key_id(user) and
//     resolve through the sorted by-user table instead.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "keygraph/key.h"
#include "keygraph/key_graph.h"

namespace keygraphs {

class KeyTree;

namespace detail {
/// Key-tree snapshot wire constants, shared by TreeView::serialize() and
/// KeyTree::deserialize().
inline constexpr std::uint8_t kTreeMagic = 0x4b;  // 'K'
inline constexpr std::uint8_t kTreeVersion = 1;
}  // namespace detail

class TreeView {
 public:
  /// Sentinel for "no node" in every index field.
  static constexpr std::uint32_t kNilIndex = 0xffffffffu;

  /// One k-node of the snapshot. Secrets live in the pooled buffer, not
  /// here, keeping the node array tightly packed for traversal.
  struct Node {
    KeyId id = 0;
    KeyVersion version = 0;
    std::uint32_t parent = kNilIndex;
    std::uint32_t first_child = 0;  // offset into the children table
    std::uint32_t child_count = 0;
    std::uint32_t subtree_end = 0;  // one past the last preorder descendant
    std::uint32_t user_count = 0;   // leaves in the subtree
    std::uint32_t leaf_begin = 0;   // subtree's first slot in leaf_users_
    bool leaf = false;
  };

  ~TreeView();
  TreeView(const TreeView&) = delete;
  TreeView& operator=(const TreeView&) = delete;

  // --- Whole-tree facts --------------------------------------------------
  [[nodiscard]] std::size_t key_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t user_count() const noexcept {
    return by_user_.size();
  }
  [[nodiscard]] std::size_t height() const noexcept { return height_; }
  [[nodiscard]] int degree() const noexcept { return degree_; }
  [[nodiscard]] std::size_t key_size() const noexcept { return key_size_; }
  [[nodiscard]] KeyId root_id() const noexcept { return nodes_.front().id; }
  /// The epoch label this view was published under. For a server-owned
  /// tree this is the group epoch; for a standalone KeyTree it is the
  /// mutation count.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  // --- Read API (mirrors KeyTree) ----------------------------------------
  [[nodiscard]] bool has_user(UserId user) const;
  [[nodiscard]] SymmetricKey group_key() const;
  /// userset(k), ascending. Throws ProtocolError for an unknown k-node.
  [[nodiscard]] std::vector<UserId> users_under(KeyId node) const;
  /// keyset(u), leaf to root. Throws ProtocolError for a non-member.
  [[nodiscard]] std::vector<SymmetricKey> keyset(UserId user) const;
  /// True when `key` is on u's path (u holds that k-node); false for
  /// non-members. O(height), no key material touched — the retransmit
  /// window's recipient test.
  [[nodiscard]] bool user_holds(UserId user, KeyId key) const;
  /// All users, ascending.
  [[nodiscard]] std::vector<UserId> users() const;
  /// Byte-identical to the historical KeyTree::serialize() encoding.
  [[nodiscard]] Bytes serialize() const;

  /// userset(include) - userset(exclude) in preorder, each user once: the
  /// dispatch path's fan-out resolve, O(recipients). Unknown k-nodes
  /// degrade the way the dispatch path always has: unknown include ->
  /// empty, unknown exclude -> no exclusion (the node vanished in the same
  /// operation). An include inside (or equal to) the exclude gives nobody;
  /// a disjoint exclude excludes no one.
  [[nodiscard]] std::vector<UserId> recipients(
      KeyId include, std::optional<KeyId> exclude) const;
  /// recipients(include, exclude), ascending.
  [[nodiscard]] std::vector<UserId> resolve_subgroup(
      KeyId include, std::optional<KeyId> exclude) const;

  /// The secret of one exact key generation, or an empty (null-data) view
  /// when this snapshot does not hold (id, version). Used by
  /// rekey::KeySnapshot to resolve current-generation keys without copying.
  [[nodiscard]] BytesView find_secret(const KeyRef& ref) const;

  /// Direct node access for traversal-heavy callers (benches, exporters).
  [[nodiscard]] const std::vector<Node>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] BytesView secret_of(std::uint32_t index) const {
    return BytesView{secrets_.data() + index * key_size_, key_size_};
  }

  /// Exports this snapshot as a general key graph (Section 2.1 form) for
  /// the key-covering machinery: one u-node per user, one k-node per
  /// k-node, edges leaf-parent upward.
  [[nodiscard]] KeyGraph to_key_graph() const;

 private:
  friend class KeyTree;
  TreeView() = default;

  /// View index of the k-node `id`, or kNilIndex.
  [[nodiscard]] std::uint32_t find(KeyId id) const;
  /// View index of the user's leaf, or kNilIndex.
  [[nodiscard]] std::uint32_t find_leaf(UserId user) const;
  std::vector<Node> nodes_;                // preorder; root at index 0
  std::vector<UserId> leaf_users_;         // every leaf's user, in preorder
  std::vector<std::uint32_t> children_;    // flattened child index lists
  Bytes secrets_;                          // node i at [i*key_size, ...)
  std::vector<std::uint32_t> by_internal_id_;  // id -> index, dense
  /// Sorted (id, index) fallback used instead of the dense table when the
  /// live internal ids are sparse relative to the node count (ids are
  /// allocation-counter values and are never reused, so a long-churned
  /// tree's id range can dwarf its size).
  std::vector<std::pair<KeyId, std::uint32_t>> by_internal_sparse_;
  std::vector<std::pair<UserId, std::uint32_t>> by_user_;  // ascending
  int degree_ = 0;
  std::size_t key_size_ = 0;
  KeyId next_id_ = 0;  // serialized alongside the structure
  std::uint64_t epoch_ = 0;
  std::size_t height_ = 0;
};

using TreeViewPtr = std::shared_ptr<const TreeView>;

}  // namespace keygraphs
