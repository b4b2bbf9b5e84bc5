#include "obs/trace.h"

#include "obs/json.h"

namespace legion::obs {

SpanId TraceLog::BeginSpan(SimTime ts, std::string name, const char* category,
                           SpanId parent, TraceArgs args) {
  if (!enabled()) return kNoSpan;
  const SpanId span = next_span_++;
  open_.emplace(span, std::make_pair(name, category));
  events_.push_back(TraceEvent{TraceEvent::Phase::kBegin, ts, span, parent,
                               std::move(name), category, std::move(args)});
  return span;
}

void TraceLog::EndSpan(SimTime ts, SpanId span, TraceArgs args) {
  if (!enabled() || span == kNoSpan) return;
  std::string name;
  const char* category = "";
  if (auto it = open_.find(span); it != open_.end()) {
    name = std::move(it->second.first);
    category = it->second.second;
    open_.erase(it);
  }
  events_.push_back(TraceEvent{TraceEvent::Phase::kEnd, ts, span, kNoSpan,
                               std::move(name), category, std::move(args)});
}

void TraceLog::Clear() {
  events_.clear();
  events_.shrink_to_fit();
  open_.clear();
  next_span_ = 1;
  current_ = kNoSpan;
}

namespace {

std::string HexId(SpanId id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(id));
  return buf;
}

void AppendArgs(std::string& out, const TraceEvent& event,
                bool include_parent) {
  out += "\"args\":{";
  bool first = true;
  if (include_parent && event.parent != kNoSpan) {
    out += "\"parent\":" + JsonString(HexId(event.parent));
    first = false;
  }
  for (const TraceArg& arg : event.args) {
    if (!first) out += ',';
    first = false;
    out += JsonString(arg.key) + ":" + JsonString(arg.value);
  }
  out += '}';
}

}  // namespace

std::string TraceLog::ToChromeJson() const {
  std::string out = "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& event = events_[i];
    if (i != 0) out += ",\n";
    out += "{\"name\":" + JsonString(event.name) +
           ",\"cat\":" + JsonString(event.category);
    out += event.phase == TraceEvent::Phase::kBegin ? ",\"ph\":\"b\""
                                                    : ",\"ph\":\"e\"";
    out += ",\"id\":" + JsonString(HexId(event.span));
    out += ",\"pid\":1,\"tid\":1,\"ts\":" +
           JsonNumber(static_cast<std::int64_t>(event.ts.micros())) + ",";
    AppendArgs(out, event, /*include_parent=*/true);
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

std::string TraceLog::ToJsonl() const {
  std::string out;
  for (const TraceEvent& event : events_) {
    out += event.phase == TraceEvent::Phase::kBegin ? "{\"ph\":\"B\""
                                                    : "{\"ph\":\"E\"";
    out += ",\"ts\":" +
           JsonNumber(static_cast<std::int64_t>(event.ts.micros())) +
           ",\"span\":" + JsonNumber(event.span);
    if (event.parent != kNoSpan) {
      out += ",\"parent\":" + JsonNumber(event.parent);
    }
    out += ",\"name\":" + JsonString(event.name) +
           ",\"cat\":" + JsonString(event.category) + ",";
    AppendArgs(out, event, /*include_parent=*/false);
    out += "}\n";
  }
  return out;
}

}  // namespace legion::obs
