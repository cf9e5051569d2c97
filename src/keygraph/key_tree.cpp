#include "keygraph/key_tree.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "common/error.h"
#include "common/io.h"
#include "telemetry/stage.h"

namespace keygraphs {

KeyTree::KeyTree(int degree, std::size_t key_size, crypto::SecureRandom& rng,
                 KeyId first_id)
    : degree_(degree), key_size_(key_size), rng_(rng), next_id_(first_id) {
  if (degree < 2) throw ProtocolError("KeyTree: degree must be >= 2");
  if (key_size == 0) throw ProtocolError("KeyTree: key size must be > 0");
  if (first_id == 0 || (first_id & (KeyId{1} << 63)) != 0) {
    throw ProtocolError("KeyTree: first_id collides with reserved id space");
  }
  root_index_ = make_node();
  refresh_key(at(root_index_));
  root_ = at(root_index_).id;
  publish(0);
}

KeyTree::~KeyTree() {
  for (Node& node : arena_) secure_wipe(node.secret);
}

KeyTree::NodeIndex KeyTree::make_node(std::optional<KeyId> fixed_id) {
  NodeIndex index;
  if (free_head_ != kNil) {
    index = free_head_;
    free_head_ = at(index).next_free;
  } else {
    index = static_cast<NodeIndex>(arena_.size());
    arena_.emplace_back();
  }
  Node& node = at(index);
  node = Node{};  // recycled slots carry stale free-list linkage
  node.id = fixed_id.value_or(next_id_++);
  node.in_use = true;
  by_id_.emplace(node.id, index);
  ++live_nodes_;
  return index;
}

void KeyTree::destroy_node(NodeIndex index) {
  Node& node = at(index);
  by_id_.erase(node.id);
  secure_wipe(node.secret);
  node = Node{};
  node.next_free = free_head_;
  free_head_ = index;
  --live_nodes_;
}

void KeyTree::refresh_key(Node& node) {
  // Attributes fresh key material to the keygen stage when an operation is
  // being collected (join/leave/batch); inert otherwise (e.g. restore).
  const telemetry::StageScope scope(telemetry::Stage::kKeygen);
  node.secret = rng_.bytes(key_size_);
  ++node.version;
  if (telemetry::enabled()) {
    static auto& generated =
        telemetry::Registry::global().counter("keygraph.keys_generated");
    generated.add(1);
  }
}

void KeyTree::bump_counts(NodeIndex from, std::ptrdiff_t delta) {
  for (NodeIndex i = from; i != kNil; i = at(i).parent) {
    at(i).user_count = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(at(i).user_count) + delta);
  }
}

KeyTree::NodeIndex KeyTree::find_join_parent() const {
  // Descend toward the lightest subtree; attach at the first node with
  // spare capacity. Returns an internal node with < degree children, or a
  // full node whose lightest child is a leaf (caller splits that leaf).
  NodeIndex index = root_index_;
  for (;;) {
    const Node& node = at(index);
    if (static_cast<int>(node.children.size()) < degree_) return index;
    const NodeIndex lightest = *std::min_element(
        node.children.begin(), node.children.end(),
        [this](NodeIndex a, NodeIndex b) {
          return at(a).user_count < at(b).user_count;
        });
    if (at(lightest).is_leaf()) return index;  // full everywhere: split
    index = lightest;
  }
}

KeyTree::LeafInsert KeyTree::insert_leaf(UserId user, Bytes individual_key) {
  const NodeIndex leaf = make_node(individual_key_id(user));
  {
    Node& node = at(leaf);
    node.user = user;
    node.secret = std::move(individual_key);
    node.version = 1;
    node.user_count = 1;
  }
  user_leaves_.emplace(user, leaf);

  const NodeIndex target = find_join_parent();
  NodeIndex attach_parent = target;
  std::optional<SymmetricKey> split_leaf_key;

  if (static_cast<int>(at(target).children.size()) >= degree_) {
    // Split the lightest (leaf) child: a fresh intermediate k-node takes its
    // place and adopts both the old leaf and the new user's leaf.
    const auto& siblings = at(target).children;
    const NodeIndex old_leaf = *std::min_element(
        siblings.begin(), siblings.end(), [this](NodeIndex a, NodeIndex b) {
          return at(a).user_count < at(b).user_count;
        });
    split_leaf_key = at(old_leaf).key();
    const NodeIndex intermediate = make_node();  // may grow the arena
    Node& parent = at(target);
    *std::find(parent.children.begin(), parent.children.end(), old_leaf) =
        intermediate;
    Node& middle = at(intermediate);
    middle.parent = target;
    middle.user_count = at(old_leaf).user_count;
    middle.children.push_back(old_leaf);
    at(old_leaf).parent = intermediate;
    attach_parent = intermediate;
  }

  at(attach_parent).children.push_back(leaf);
  at(leaf).parent = attach_parent;
  bump_counts(attach_parent, +1);
  return {leaf, attach_parent, std::move(split_leaf_key)};
}

KeyTree::NodeIndex KeyTree::remove_leaf(UserId user,
                                        std::vector<KeyId>& removed) {
  const auto it = user_leaves_.find(user);
  const NodeIndex leaf = it->second;
  const NodeIndex parent = at(leaf).parent;
  user_leaves_.erase(it);
  removed.push_back(at(leaf).id);
  std::erase(at(parent).children, leaf);
  bump_counts(parent, -1);
  destroy_node(leaf);

  if (at(parent).parent == kNil || at(parent).children.size() != 1) {
    return parent;
  }
  const NodeIndex child = at(parent).children.front();
  const NodeIndex grandparent = at(parent).parent;
  auto& uncles = at(grandparent).children;
  *std::find(uncles.begin(), uncles.end(), parent) = child;
  at(child).parent = grandparent;
  removed.push_back(at(parent).id);
  destroy_node(parent);
  return grandparent;
}

JoinRecord KeyTree::join(UserId user, Bytes individual_key) {
  if (user_leaves_.contains(user)) {
    throw ProtocolError("KeyTree: user already in group");
  }
  if (individual_key.size() != key_size_) {
    throw ProtocolError("KeyTree: individual key has wrong size");
  }

  const auto [leaf, attach_parent, split_leaf_key] =
      insert_leaf(user, std::move(individual_key));

  // The pre-join key of every ancestor is what existing members hold; it
  // wraps the corresponding new key. Capture before refreshing.
  JoinRecord record;
  record.user = user;
  record.individual_key = at(leaf).key();

  std::vector<NodeIndex> path;  // attach parent up to root
  for (NodeIndex i = attach_parent; i != kNil; i = at(i).parent) {
    path.push_back(i);
  }
  std::reverse(path.begin(), path.end());  // root first

  const bool had_members = user_count() > 1;
  for (NodeIndex i : path) {
    Node& node = at(i);
    PathChange change;
    change.node = node.id;
    if (split_leaf_key.has_value() && i == attach_parent) {
      // Brand-new intermediate: the only existing holder-to-be is the split
      // leaf's user, reachable through its individual key.
      change.old_key = split_leaf_key;
    } else if (had_members) {
      change.old_key = node.key();
    }
    refresh_key(node);
    change.new_key = node.key();
    record.path.push_back(std::move(change));
  }
  for (NodeIndex child : at(root_index_).children) {
    record.root_children.push_back(at(child).id);
  }
  publish_next();
  return record;
}

LeaveRecord KeyTree::leave(UserId user) {
  if (!user_leaves_.contains(user)) {
    throw ProtocolError("KeyTree: user not in group");
  }
  LeaveRecord record;
  record.user = user;
  const NodeIndex rekey_start = remove_leaf(user, record.removed_nodes);

  std::vector<NodeIndex> path;  // rekey start up to root
  for (NodeIndex i = rekey_start; i != kNil; i = at(i).parent) {
    path.push_back(i);
  }
  std::reverse(path.begin(), path.end());  // root first

  for (NodeIndex i : path) {
    Node& node = at(i);
    refresh_key(node);
    PathChange change;
    change.node = node.id;
    change.new_key = node.key();  // old key is compromised; never recorded
    record.path.push_back(std::move(change));
  }
  // Snapshot children after all refreshes so on-path children already carry
  // their new keys (Figure 8's {K'_{i-1}}_{K'_i} chain).
  record.children.resize(path.size());
  for (std::size_t i = 0; i < path.size(); ++i) {
    const NodeIndex next_on_path = i + 1 < path.size() ? path[i + 1] : kNil;
    for (NodeIndex child : at(path[i]).children) {
      record.children[i].push_back(
          ChildKey{at(child).id, at(child).key(), child == next_on_path});
    }
  }
  publish_next();
  return record;
}

BatchRecord KeyTree::batch_update(
    const std::vector<std::pair<UserId, Bytes>>& joins,
    const std::vector<UserId>& leaves) {
  // Validate everything before mutating anything.
  std::set<UserId> joining, leaving;
  for (const auto& [user, key] : joins) {
    if (user_leaves_.contains(user)) {
      throw ProtocolError("batch: joining user already in group");
    }
    if (!joining.insert(user).second) {
      throw ProtocolError("batch: duplicate join");
    }
    if (key.size() != key_size_) {
      throw ProtocolError("batch: individual key has wrong size");
    }
  }
  for (UserId user : leaves) {
    if (joining.contains(user)) {
      throw ProtocolError("batch: user both joins and leaves");
    }
    if (!user_leaves_.contains(user)) {
      throw ProtocolError("batch: leaving user not in group");
    }
    if (!leaving.insert(user).second) {
      throw ProtocolError("batch: duplicate leave");
    }
  }

  BatchRecord record;
  std::set<KeyId> changed;  // ordered for deterministic key generation

  // Leaves first: free the slots, mark every path to the root.
  for (UserId user : leaves) {
    const std::size_t removed_before = record.removed_nodes.size();
    const NodeIndex start = remove_leaf(user, record.removed_nodes);
    record.left.push_back(user);
    // A spliced-out parent may have been marked by a prior leave.
    for (std::size_t i = removed_before; i < record.removed_nodes.size();
         ++i) {
      changed.erase(record.removed_nodes[i]);
    }
    for (NodeIndex i = start; i != kNil; i = at(i).parent) {
      changed.insert(at(i).id);
    }
  }

  // Then joins: attach per the balance heuristic, mark the paths.
  for (const auto& [user, key] : joins) {
    const NodeIndex attach_parent = insert_leaf(user, key).parent;
    for (NodeIndex i = attach_parent; i != kNil; i = at(i).parent) {
      changed.insert(at(i).id);
    }
    record.joined.push_back(user);
  }

  // Rekey every affected node exactly once — the whole point of batching.
  for (KeyId id : changed) refresh_key(at(by_id_.at(id)));

  // Snapshot after all refreshes so wrapped-under-child keys are current.
  for (KeyId id : changed) {
    const Node& node = at(by_id_.at(id));
    BatchChange change;
    change.node = id;
    change.new_key = node.key();
    for (NodeIndex child : node.children) {
      change.children.push_back(ChildKey{at(child).id, at(child).key(),
                                         changed.contains(at(child).id)});
    }
    record.changes.push_back(std::move(change));
  }
  for (const auto& [user, key] : joins) {
    record.joiner_keysets.emplace_back(user, arena_keyset(user));
  }
  publish_next();
  return record;
}

std::size_t KeyTree::user_count() const noexcept {
  return user_leaves_.size();
}

bool KeyTree::has_user(UserId user) const {
  return user_leaves_.contains(user);
}

std::size_t KeyTree::key_count() const noexcept { return live_nodes_; }

std::size_t KeyTree::height() const { return view()->height(); }

SymmetricKey KeyTree::group_key() const {
  const Node& root = at(root_index_);
  return SymmetricKey{root.id, root.version, root.secret};
}

std::vector<UserId> KeyTree::users_under(KeyId node_id) const {
  return view()->users_under(node_id);
}

std::vector<SymmetricKey> KeyTree::keyset(UserId user) const {
  return view()->keyset(user);
}

std::vector<SymmetricKey> KeyTree::arena_keyset(UserId user) const {
  auto it = user_leaves_.find(user);
  if (it == user_leaves_.end()) {
    throw ProtocolError("KeyTree: user not in group");
  }
  std::vector<SymmetricKey> out;
  for (NodeIndex i = it->second; i != kNil; i = at(i).parent) {
    const Node& node = at(i);
    out.push_back(SymmetricKey{node.id, node.version, node.secret});
  }
  return out;
}

std::vector<UserId> KeyTree::users() const { return view()->users(); }

Bytes KeyTree::serialize() const { return view()->serialize(); }

TreeViewPtr KeyTree::view() const {
  // A leaf mutex held only for the pointer copy: readers pay one refcount
  // increment here, then run entirely on the immutable snapshot. (GCC 12's
  // std::atomic<shared_ptr> reads its pointer word outside any
  // TSan-visible synchronization, so a plain mutex is the portable,
  // sanitizer-clean publication primitive.)
  const std::lock_guard lock(view_mutex_);
  return view_;
}

void KeyTree::stamp_next_epoch(std::uint64_t epoch) { stamped_epoch_ = epoch; }

void KeyTree::publish_view() {
  // Re-label the current state (restore path); no mutation happened, so the
  // epoch counter only moves if a stamp is pending.
  view_epoch_ = stamped_epoch_.value_or(view_epoch_);
  stamped_epoch_.reset();
  publish(view_epoch_);
}

void KeyTree::publish_next() {
  view_epoch_ = stamped_epoch_.value_or(view_epoch_ + 1);
  stamped_epoch_.reset();
  publish(view_epoch_);
}

void KeyTree::publish(std::uint64_t epoch) {
  auto fresh = std::shared_ptr<TreeView>(new TreeView());
  fresh->degree_ = degree_;
  fresh->key_size_ = key_size_;
  fresh->next_id_ = next_id_;
  fresh->epoch_ = epoch;

  const std::size_t count = live_nodes_;
  fresh->nodes_.reserve(count);
  fresh->leaf_users_.reserve(user_leaves_.size());
  fresh->children_.reserve(count > 0 ? count - 1 : 0);
  fresh->secrets_.resize(count * key_size_);

  // Preorder walk with reversed child pushes — the exact order the
  // historical serialize() emitted, so the view's serialize() is a linear
  // scan with identical bytes. `slot` is the child's cell in the parent's
  // children block, assigned before the child is visited. Leaves append
  // their user as they are visited, so every subtree's members land in one
  // contiguous slice of leaf_users_ starting at its leaf_begin.
  struct Frame {
    NodeIndex arena;
    std::uint32_t parent_view;
    std::uint32_t slot;
    std::uint32_t depth;
  };
  std::vector<std::uint32_t> arena_to_view(arena_.size(),
                                           TreeView::kNilIndex);
  std::vector<Frame> stack{{root_index_, TreeView::kNilIndex, 0, 0}};
  KeyId max_internal = 0;
  std::size_t height = 0;
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const Node& src = at(frame.arena);
    const auto v = static_cast<std::uint32_t>(fresh->nodes_.size());
    arena_to_view[frame.arena] = v;
    if (frame.parent_view != TreeView::kNilIndex) {
      fresh->children_[frame.slot] = v;
    }
    height = std::max(height, static_cast<std::size_t>(frame.depth));

    TreeView::Node out;
    out.id = src.id;
    out.version = src.version;
    out.parent = frame.parent_view;
    out.leaf_begin = static_cast<std::uint32_t>(fresh->leaf_users_.size());
    out.leaf = src.is_leaf();
    if (out.leaf) {
      fresh->leaf_users_.push_back(*src.user);
    } else {
      max_internal = std::max(max_internal, src.id);
    }
    out.first_child = static_cast<std::uint32_t>(fresh->children_.size());
    out.child_count = static_cast<std::uint32_t>(src.children.size());
    std::memcpy(fresh->secrets_.data() + std::size_t{v} * key_size_,
                src.secret.data(), key_size_);
    fresh->children_.resize(fresh->children_.size() + src.children.size(), 0);
    for (std::size_t i = src.children.size(); i-- > 0;) {
      stack.push_back({src.children[i], v,
                       out.first_child + static_cast<std::uint32_t>(i),
                       frame.depth + 1});
    }
    fresh->nodes_.push_back(out);
  }
  fresh->height_ = height;

  // Reverse pass: in preorder, a parent's subtree and its leaf slice both
  // end where its last child's do.
  for (std::size_t i = fresh->nodes_.size(); i-- > 0;) {
    TreeView::Node& node = fresh->nodes_[i];
    if (node.child_count == 0) {
      node.subtree_end = static_cast<std::uint32_t>(i) + 1;
      node.user_count = node.leaf ? 1 : 0;
    } else {
      const TreeView::Node& last = fresh->nodes_[
          fresh->children_[node.first_child + node.child_count - 1]];
      node.subtree_end = last.subtree_end;
      node.user_count = last.leaf_begin + last.user_count - node.leaf_begin;
    }
  }

  // Internal-id lookup: dense table when the id range is close to the node
  // count, sorted fallback when churn has made ids sparse.
  if (max_internal + 1 <= 4 * count + 64) {
    fresh->by_internal_id_.assign(static_cast<std::size_t>(max_internal) + 1,
                                  TreeView::kNilIndex);
    for (std::uint32_t i = 0; i < fresh->nodes_.size(); ++i) {
      const TreeView::Node& node = fresh->nodes_[i];
      if (!node.leaf) {
        fresh->by_internal_id_[static_cast<std::size_t>(node.id)] = i;
      }
    }
  } else {
    fresh->by_internal_sparse_.reserve(count - user_leaves_.size());
    for (std::uint32_t i = 0; i < fresh->nodes_.size(); ++i) {
      if (!fresh->nodes_[i].leaf) {
        fresh->by_internal_sparse_.emplace_back(fresh->nodes_[i].id, i);
      }
    }
    std::sort(fresh->by_internal_sparse_.begin(),
              fresh->by_internal_sparse_.end());
  }

  // user_leaves_ is an ordered map, so the by-user table comes out sorted.
  fresh->by_user_.reserve(user_leaves_.size());
  for (const auto& [user, arena_index] : user_leaves_) {
    fresh->by_user_.emplace_back(user, arena_to_view[arena_index]);
  }

  if (telemetry::enabled()) {
    auto& registry = telemetry::Registry::global();
    static auto& users_gauge = registry.gauge("tree.users");
    static auto& keys_gauge = registry.gauge("tree.keys");
    static auto& height_gauge = registry.gauge("tree.height");
    static auto& epoch_gauge = registry.gauge("tree.view_epoch");
    users_gauge.set(static_cast<std::int64_t>(fresh->user_count()));
    keys_gauge.set(static_cast<std::int64_t>(fresh->key_count()));
    height_gauge.set(static_cast<std::int64_t>(fresh->height()));
    epoch_gauge.set(static_cast<std::int64_t>(epoch));
  }

  {
    const std::lock_guard lock(view_mutex_);
    view_ = std::move(fresh);
  }
}

std::unique_ptr<KeyTree> KeyTree::deserialize(BytesView data,
                                              crypto::SecureRandom& rng) {
  ByteReader reader(data);
  if (reader.u8() != detail::kTreeMagic) {
    throw ParseError("KeyTree: bad magic");
  }
  if (reader.u8() != detail::kTreeVersion) {
    throw ParseError("KeyTree: bad version");
  }
  const int degree = static_cast<int>(reader.u32());
  const std::size_t key_size = reader.u64();
  if (degree < 2 || key_size == 0 || key_size > 1024) {
    throw ParseError("KeyTree: implausible parameters");
  }
  auto tree = std::make_unique<KeyTree>(degree, key_size, rng);
  for (Node& node : tree->arena_) secure_wipe(node.secret);
  tree->arena_.clear();
  tree->by_id_.clear();
  tree->user_leaves_.clear();
  tree->free_head_ = kNil;
  tree->live_nodes_ = 0;
  tree->root_index_ = kNil;
  tree->root_ = 0;
  const KeyId stored_next_id = reader.u64();

  const std::uint64_t node_count = reader.u64();
  if (node_count == 0 || node_count > data.size()) {
    throw ParseError("KeyTree: implausible node count");
  }

  // Recursive-descent over the pre-order stream, iteratively: a stack of
  // (parent, remaining-children) frames.
  struct Frame {
    NodeIndex parent;
    std::uint16_t remaining;
  };
  std::vector<Frame> frames;
  std::uint64_t read_nodes = 0;
  KeyId max_internal_id = 0;
  while (read_nodes < node_count) {
    const KeyId id = reader.u64();
    if (tree->by_id_.contains(id)) {
      throw ParseError("KeyTree: duplicate node id");
    }
    const NodeIndex index = tree->make_node(id);
    ++read_nodes;
    {
      Node& node = tree->at(index);
      node.version = reader.u32();
      node.secret = reader.var_bytes();
      if (node.secret.size() != key_size) {
        throw ParseError("KeyTree: key size mismatch");
      }
    }
    if (reader.u8() != 0) {
      const UserId user = reader.u64();
      Node& node = tree->at(index);
      node.user = user;
      node.user_count = 1;
      if (node.id != individual_key_id(user)) {
        throw ParseError("KeyTree: leaf id mismatch");
      }
      if (!tree->user_leaves_.emplace(user, index).second) {
        throw ParseError("KeyTree: duplicate user");
      }
    } else if ((id >> 63) != 0) {
      // The top bit is the individual-key namespace; an internal k-node
      // there would be unreachable through the id tables.
      throw ParseError("KeyTree: implausible internal id");
    } else {
      max_internal_id = std::max(max_internal_id, id);
    }
    const std::uint16_t children = reader.u16();
    if (tree->at(index).is_leaf() && children != 0) {
      throw ParseError("KeyTree: leaf with children");
    }

    if (frames.empty()) {
      if (tree->root_index_ != kNil) {
        throw ParseError("KeyTree: multiple roots");
      }
      tree->root_index_ = index;
      tree->root_ = id;
    } else {
      Frame& top = frames.back();
      tree->at(index).parent = top.parent;
      tree->at(top.parent).children.push_back(index);
      if (--top.remaining == 0) frames.pop_back();
    }
    if (children > 0) frames.push_back(Frame{index, children});
  }
  reader.expect_done();
  if (!frames.empty() || tree->root_index_ == kNil || tree->root_ == 0) {
    throw ParseError("KeyTree: truncated structure");
  }

  // Recompute user counts bottom-up, then let the invariant checker vet
  // everything else (arity, links, key sizes, leaf indexing).
  struct CountFrame {
    NodeIndex node;
    std::size_t child_index;
  };
  std::vector<CountFrame> walk{{tree->root_index_, 0}};
  while (!walk.empty()) {
    CountFrame& frame = walk.back();
    Node& node = tree->at(frame.node);
    if (node.is_leaf()) {
      walk.pop_back();
      continue;
    }
    if (frame.child_index < node.children.size()) {
      walk.push_back({node.children[frame.child_index++], 0});
      continue;
    }
    node.user_count = 0;
    for (NodeIndex child : node.children) {
      node.user_count += tree->at(child).user_count;
    }
    walk.pop_back();
  }
  try {
    tree->check_invariants();
  } catch (const Error& error) {
    throw ParseError(std::string("KeyTree: invalid snapshot: ") +
                     error.what());
  }
  if (stored_next_id <= max_internal_id) {
    throw ParseError("KeyTree: id counter behind live ids");
  }
  // make_node's default-id argument is evaluated even for fixed-id nodes,
  // so parsing advanced the counter by node_count. Restore the serialized
  // value: a replica must keep allocating from the primary's counter, and
  // serialize -> deserialize -> serialize must round-trip byte-identically.
  tree->next_id_ = stored_next_id;
  tree->publish(0);
  return tree;
}

void KeyTree::check_invariants() const {
  std::size_t leaves_seen = 0;
  std::size_t nodes_seen = 0;
  std::vector<NodeIndex> stack{root_index_};
  while (!stack.empty()) {
    const NodeIndex index = stack.back();
    stack.pop_back();
    const Node& node = at(index);
    ++nodes_seen;
    if (!node.in_use) {
      throw Error("invariant: reachable node not marked live");
    }
    if (static_cast<int>(node.children.size()) > degree_) {
      throw Error("invariant: node arity exceeds degree");
    }
    if (node.secret.size() != key_size_) {
      throw Error("invariant: key size mismatch");
    }
    if (node.is_leaf()) {
      ++leaves_seen;
      if (!node.children.empty()) {
        throw Error("invariant: leaf with children");
      }
      if (node.user_count != 1) {
        throw Error("invariant: leaf user_count != 1");
      }
      auto it = user_leaves_.find(*node.user);
      if (it == user_leaves_.end() || it->second != index) {
        throw Error("invariant: leaf not indexed by user");
      }
    } else {
      std::size_t sum = 0;
      for (NodeIndex child : node.children) {
        if (at(child).parent != index) {
          throw Error("invariant: child/parent link broken");
        }
        sum += at(child).user_count;
        stack.push_back(child);
      }
      if (sum != node.user_count) {
        throw Error("invariant: user_count mismatch");
      }
      if (node.parent != kNil && node.children.size() < 2) {
        throw Error("invariant: non-root internal node with < 2 children");
      }
    }
  }
  if (leaves_seen != user_leaves_.size()) {
    throw Error("invariant: leaf count != user count");
  }
  if (nodes_seen != live_nodes_) {
    throw Error("invariant: orphan k-nodes present");
  }
  // Arena accounting: every slot is live or on the free list, never both,
  // and the id index maps exactly the live slots.
  std::size_t free_seen = 0;
  for (NodeIndex i = free_head_; i != kNil; i = at(i).next_free) {
    if (++free_seen > arena_.size()) {
      throw Error("invariant: free-list cycle");
    }
    if (at(i).in_use) {
      throw Error("invariant: free slot marked live");
    }
  }
  if (live_nodes_ + free_seen != arena_.size()) {
    throw Error("invariant: arena slot accounting broken");
  }
  if (by_id_.size() != live_nodes_) {
    throw Error("invariant: id index size mismatch");
  }
  for (const auto& [id, index] : by_id_) {
    if (index >= arena_.size() || !at(index).in_use || at(index).id != id) {
      throw Error("invariant: id index entry broken");
    }
  }
}

}  // namespace keygraphs
