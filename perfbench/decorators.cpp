#include "decorators.h"

namespace perfbench {

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kOp: return "server.op";
    case SpanName::kPlan: return "server.plan";
    case SpanName::kSeal: return "rekey.seal";
    case SpanName::kDispatch: return "server.dispatch";
    case SpanName::kAppend: return "storage.append";
    case SpanName::kSync: return "storage.sync";
    case SpanName::kSend: return "transport.send";
    case SpanName::kResolve: return "transport.resolve";
    case SpanName::kApply: return "client.apply";
    case SpanName::kMutate: return "keygraph.mutate";
    case SpanName::kPublish: return "keygraph.publish";
  }
  return "unknown";
}

std::int32_t SpanLog::begin(SpanName name) {
  if (!enabled_) return -1;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(
      {name, trace_, now_ns(), 0, open_.empty() ? -1 : open_.back()});
  open_.push_back(index);
  return index;
}

void SpanLog::end(std::int32_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::record(SpanName name, std::uint64_t trace,
                     std::int64_t start_ns, std::int64_t end_ns) {
  if (enabled_) spans_.push_back({name, trace, start_ns, end_ns, -1});
}

keygraphs::transport::ServerTransport::Resolver TimingTransport::timed(
    const Resolver& resolve) {
  return [this, &resolve] {
    const SpanLog::Scope span(log_, SpanName::kResolve);
    return resolve();
  };
}

void TimingTransport::deliver(const keygraphs::rekey::Recipient& to,
                              keygraphs::BytesView datagram,
                              const Resolver& resolve) {
  const SpanLog::Scope span(log_, SpanName::kSend);
  if (!log_.enabled()) {
    inner_.deliver(to, datagram, resolve);
    return;
  }
  inner_.deliver(to, datagram, timed(resolve));
}

void TimingTransport::deliver_many(std::span<const OutboundDatagram> items) {
  const SpanLog::Scope span(log_, SpanName::kSend);
  if (!log_.enabled()) {
    inner_.deliver_many(items);
    return;
  }
  std::vector<OutboundDatagram> wrapped;
  wrapped.reserve(items.size());
  for (const OutboundDatagram& item : items) {
    wrapped.push_back({item.to, item.datagram, timed(item.resolve)});
  }
  inner_.deliver_many(wrapped);
}

void TimingStorage::append(std::size_t lane, keygraphs::BytesView frame) {
  bytes_ += frame.size();
  const SpanLog::Scope span(log_, SpanName::kAppend);
  inner_->append(lane, frame);
}

void TimingStorage::sync(std::size_t lane) {
  const SpanLog::Scope span(log_, SpanName::kSync);
  inner_->sync(lane);
}

}  // namespace perfbench
