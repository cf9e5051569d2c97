// Dispatch-level fan-out check shared by the server suites: a transport
// that calls every Resolver the dispatch path hands it, plus the check that
// each datagram reached exactly its recipient set.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "transport/transport.h"

namespace keygraphs::fanout {

/// One delivered datagram and the users its Resolver yielded.
struct Delivery {
  rekey::Recipient to;
  std::vector<UserId> users;
};

class ResolvingTransport final : public transport::ServerTransport {
 public:
  void deliver(const rekey::Recipient& to, BytesView datagram,
               const Resolver& resolve) override {
    (void)datagram;
    deliveries_.push_back(Delivery{to, resolve()});
  }

  /// The deliveries since the last take().
  std::vector<Delivery> take() { return std::exchange(deliveries_, {}); }

 private:
  std::vector<Delivery> deliveries_;
};

struct Counts {
  std::size_t subgroups = 0;
  std::size_t excludes = 0;  // subgroup datagrams that carried an exclude
};

/// A user recipient must resolve to that user alone; a subgroup recipient
/// to exactly `userset(include, exclude)` (ascending), each user once.
/// Returns what the deliveries covered, so callers can assert coverage.
template <typename Userset>
Counts expect_exact(const std::vector<Delivery>& deliveries,
                    const Userset& userset) {
  Counts counts;
  for (const Delivery& delivery : deliveries) {
    const rekey::Recipient& to = delivery.to;
    std::vector<UserId> got = delivery.users;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
        << "a user resolved twice for k-node " << to.include;
    if (to.kind == rekey::Recipient::Kind::kUser) {
      EXPECT_EQ(got, std::vector<UserId>{to.user});
      continue;
    }
    ++counts.subgroups;
    if (to.exclude.has_value()) ++counts.excludes;
    EXPECT_EQ(got, userset(to.include, to.exclude)) << "k-node " << to.include;
  }
  return counts;
}

}  // namespace keygraphs::fanout
