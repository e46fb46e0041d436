// Minimal JSON reading/writing for failure artifacts and tool output.
//
// The repro/replay pipeline needs a self-describing on-disk format that a
// human can read and an external tool can consume; JSON is the obvious pick
// and the schema is tiny, so a ~200-line value type beats a dependency.
// Supported: null, bool, 64-bit signed integers, doubles, strings, arrays,
// objects.  Object keys keep insertion order so dumped artifacts are stable
// and diffable.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace wfsort {

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() = default;  // null
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(std::int64_t i) : type_(Type::kInt), int_(i) {}
  Json(std::uint64_t u) : type_(Type::kInt), int_(static_cast<std::int64_t>(u)) {}
  Json(int i) : type_(Type::kInt), int_(i) {}
  Json(double d) : type_(Type::kDouble), double_(d) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}

  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  // --- builders ---
  Json& push_back(Json v) {
    arr_.push_back(std::move(v));
    return *this;
  }
  Json& set(const std::string& key, Json v) {
    for (auto& [k, existing] : obj_) {
      if (k == key) {
        existing = std::move(v);
        return *this;
      }
    }
    obj_.emplace_back(key, std::move(v));
    return *this;
  }

  // --- accessors (checked; wrong-type access aborts via WFSORT_CHECK) ---
  bool as_bool() const;
  std::int64_t as_int() const;
  std::uint64_t as_u64() const;
  double as_double() const;  // accepts kInt too
  const std::string& as_string() const;
  const std::vector<Json>& items() const;
  // Object members in insertion order (the dumped order).
  const std::vector<std::pair<std::string, Json>>& object_items() const;

  // Object lookup; returns nullptr when absent (callers choose defaults).
  const Json* find(const std::string& key) const;
  // Checked lookup: the key must exist.
  const Json& at(const std::string& key) const;

  // --- serialization ---
  // Two-space-indented, trailing newline; stable field order.
  std::string dump(int indent = 0) const;

  // Single-line serialization (no whitespace, no trailing newline).
  std::string dump_compact() const;

  // Parse a whole document.  Returns a null value and sets *error on failure
  // (error stays empty on success).
  static Json parse(const std::string& text, std::string* error);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;

  void dump_to(std::string& out, int indent) const;
  void dump_compact_to(std::string& out) const;
  friend class JsonParser;
};

}  // namespace wfsort
