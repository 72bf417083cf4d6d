#include "exec/profile.h"

#include <chrono>

#include "common/logging.h"
#include "common/memory_tracker.h"
#include "common/string_util.h"

namespace indbml::exec {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::string FormatNanos(int64_t nanos) {
  return StrFormat("%.3fms", static_cast<double>(nanos) / 1e6);
}

}  // namespace

void OperatorStats::MergeFrom(const OperatorStats& other) {
  rows += other.rows;
  chunks += other.chunks;
  open_nanos += other.open_nanos;
  next_nanos += other.next_nanos;
  close_nanos += other.close_nanos;
  rewind_nanos += other.rewind_nanos;
  for (const auto& [name, nanos] : other.phase_nanos) phase_nanos[name] += nanos;
}

int QueryProfile::RegisterNode(std::string label, int depth) {
  INDBML_CHECK(num_workers_ == 0) << "RegisterNode after SetNumWorkers";
  nodes_.push_back(Node{std::move(label), depth});
  return static_cast<int>(nodes_.size()) - 1;
}

void QueryProfile::SetNumWorkers(int n) {
  INDBML_CHECK(n > 0);
  num_workers_ = n;
  slots_.assign(nodes_.size() * static_cast<size_t>(n), OperatorStats());
}

OperatorStats QueryProfile::Aggregate(int node) const {
  OperatorStats total;
  for (int p = 0; p < num_workers_; ++p) {
    total.MergeFrom(
        slots_[static_cast<size_t>(node) * static_cast<size_t>(num_workers_) +
               static_cast<size_t>(p)]);
  }
  return total;
}

std::string QueryProfile::ToString() const {
  std::string out =
      StrFormat("EXPLAIN ANALYZE  workers=%d  wall=%s", num_workers_,
                FormatNanos(wall_nanos_).c_str());
  if (peak_memory_bytes_ >= 0) {
    out += "  peak_memory=" + FormatBytes(peak_memory_bytes_);
  }
  out += "\n";
  for (int node = 0; node < num_nodes(); ++node) {
    OperatorStats stats = Aggregate(node);
    out += std::string(static_cast<size_t>(nodes_[static_cast<size_t>(node)].depth) * 2,
                       ' ');
    out += nodes_[static_cast<size_t>(node)].label;
    out += StrFormat("  rows=%lld chunks=%lld open=%s next=%s close=%s",
                     static_cast<long long>(stats.rows),
                     static_cast<long long>(stats.chunks),
                     FormatNanos(stats.open_nanos).c_str(),
                     FormatNanos(stats.next_nanos).c_str(),
                     FormatNanos(stats.close_nanos).c_str());
    if (stats.rewind_nanos > 0) {
      out += " rewind=" + FormatNanos(stats.rewind_nanos);
    }
    if (!stats.phase_nanos.empty()) {
      out += " [";
      bool first = true;
      for (const auto& [name, nanos] : stats.phase_nanos) {
        if (!first) out += " ";
        first = false;
        out += name + "=" + FormatNanos(nanos);
      }
      out += "]";
    }
    out += "\n";
  }
  return out;
}

Status ProfiledOperator::Open(ExecContext* ctx) {
  OperatorStats* stats = profile_->slot(node_id_, ctx->worker_id);
  OperatorStats* saved = ctx->active_stats;
  ctx->active_stats = stats;
  Status status;
  {
    ScopedNanos timer(&stats->open_nanos);
    status = inner_->Open(ctx);
  }
  ctx->active_stats = saved;
  return status;
}

Status ProfiledOperator::Rewind(ExecContext* ctx) {
  OperatorStats* stats = profile_->slot(node_id_, ctx->worker_id);
  OperatorStats* saved = ctx->active_stats;
  ctx->active_stats = stats;
  Status status;
  {
    ScopedNanos timer(&stats->rewind_nanos);
    status = inner_->Rewind(ctx);
  }
  ctx->active_stats = saved;
  return status;
}

Status ProfiledOperator::Next(ExecContext* ctx, DataChunk* out, bool* eof) {
  OperatorStats* stats = profile_->slot(node_id_, ctx->worker_id);
  OperatorStats* saved = ctx->active_stats;
  ctx->active_stats = stats;
  Status status;
  {
    ScopedNanos timer(&stats->next_nanos);
    status = inner_->Next(ctx, out, eof);
  }
  ctx->active_stats = saved;
  if (status.ok() && out->size > 0) {
    stats->rows += out->size;
    ++stats->chunks;
  }
  return status;
}

void ProfiledOperator::Close(ExecContext* ctx) {
  OperatorStats* stats = profile_->slot(node_id_, ctx->worker_id);
  OperatorStats* saved = ctx->active_stats;
  ctx->active_stats = stats;
  {
    ScopedNanos timer(&stats->close_nanos);
    inner_->Close(ctx);
  }
  ctx->active_stats = saved;
}

}  // namespace indbml::exec
