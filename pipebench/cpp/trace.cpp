#include "trace.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>

namespace pipebench {

namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
}

int Tracer::begin(std::string_view layer, std::string_view name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::string(layer), std::string(name), now_ns(), 0,
                        open_.empty() ? -1 : open_.back(), run_, 1});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::add_accumulated(int parent, std::string_view layer, std::string_view name,
                             std::int64_t ns, std::uint64_t calls) {
  if (!enabled_ || parent < 0) return;
  const Span& p = spans_[static_cast<std::size_t>(parent)];
  spans_.push_back(Span{std::string(layer), std::string(name), p.start_ns, p.start_ns + ns,
                        parent, p.run, calls});
}

double Tracer::total(int run, std::string_view name) const {
  std::int64_t ns = 0;
  for (const auto& s : spans_) {
    if (s.run == run && s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::map<std::string, double> Tracer::self_by_layer(int run) const {
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    self[i] += s.end_ns - s.start_ns;
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].run == run) out[spans_[i].layer] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

double Tracer::stage_sum(int run) const {
  std::int64_t ns = 0;
  for (const auto& s : spans_) {
    if (s.run != run || s.parent < 0) continue;
    if (spans_[static_cast<std::size_t>(s.parent)].parent == -1) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

void Tracer::write_chrome(const std::filesystem::path& path,
                          const std::map<std::string, std::string>& metadata) const {
  std::unique_ptr<std::FILE, decltype(&std::fclose)> f(std::fopen(path.c_str(), "w"),
                                                        &std::fclose);
  if (!f) throw std::runtime_error("cannot write " + path.string());
  std::fprintf(f.get(), "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f.get(),
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"run\": %d, \"calls\": %llu}}",
                 i ? ",\n" : "", json_escape(s.name).c_str(), json_escape(s.layer).c_str(),
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent, s.run,
                 static_cast<unsigned long long>(s.calls));
  }
  std::fprintf(f.get(), "\n], \"displayTimeUnit\": \"ms\", \"metadata\": {");
  bool first = true;
  for (const auto& [k, v] : metadata) {
    std::fprintf(f.get(), "%s\"%s\": \"%s\"", first ? "" : ", ", json_escape(k).c_str(),
                 json_escape(v).c_str());
    first = false;
  }
  std::fprintf(f.get(), "}}\n");
  if (std::fflush(f.get()) != 0) throw std::runtime_error("cannot write " + path.string());
}

}  // namespace pipebench
