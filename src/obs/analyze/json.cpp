#include "obs/analyze/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace insitu::obs::analyze {

const Json* Json::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Json::number_or(std::string_view key, double fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
}

std::string Json::string_or(std::string_view key, std::string fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->kind == Kind::kString ? v->string
                                                  : std::move(fallback);
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<Json> run() {
    skip_ws();
    Json out;
    INSITU_RETURN_IF_ERROR(value(out));
    skip_ws();
    if (pos_ != text_.size()) return error("trailing characters");
    return out;
  }

 private:
  Status error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  Status value(Json& out) {
    switch (peek()) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': {
        out.kind = Json::Kind::kString;
        return string(out.string);
      }
      case 't':
      case 'f': {
        const bool is_true = peek() == 't';
        const std::string_view want = is_true ? "true" : "false";
        if (text_.substr(pos_, want.size()) != want) {
          return error("bad literal");
        }
        pos_ += want.size();
        out.kind = Json::Kind::kBool;
        out.boolean = is_true;
        return Status::Ok();
      }
      case 'n':
        if (text_.substr(pos_, 4) != "null") return error("bad literal");
        pos_ += 4;
        out.kind = Json::Kind::kNull;
        return Status::Ok();
      default: return number(out);
    }
  }

  Status object(Json& out) {
    out.kind = Json::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Status::Ok();
    }
    while (true) {
      skip_ws();
      std::string key;
      INSITU_RETURN_IF_ERROR(string(key));
      skip_ws();
      if (peek() != ':') return error("expected ':'");
      ++pos_;
      skip_ws();
      Json member;
      INSITU_RETURN_IF_ERROR(value(member));
      out.members.emplace_back(std::move(key), std::move(member));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return Status::Ok();
      }
      return error("expected ',' or '}'");
    }
  }

  Status array(Json& out) {
    out.kind = Json::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Status::Ok();
    }
    while (true) {
      skip_ws();
      Json element;
      INSITU_RETURN_IF_ERROR(value(element));
      out.array.push_back(std::move(element));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return Status::Ok();
      }
      return error("expected ',' or ']'");
    }
  }

  Status string(std::string& out) {
    if (peek() != '"') return error("expected string");
    ++pos_;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return error("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return error("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return error("bad \\u escape");
          }
          // Our exporters only \u-escape control characters (< 0x20);
          // anything else is passed through as raw UTF-8 already.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return error("unknown escape");
      }
    }
    if (pos_ >= text_.size()) return error("unterminated string");
    ++pos_;  // closing quote
    return Status::Ok();
  }

  Status number(Json& out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '.' ||
          c == 'e' || c == 'E' || c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return error("expected value");
    out.kind = Json::Kind::kNumber;
    const auto [ptr, ec] = std::from_chars(text_.data() + start,
                                           text_.data() + pos_, out.number);
    if (ec != std::errc() || ptr != text_.data() + pos_) {
      return error("bad number");
    }
    return Status::Ok();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

StatusOr<Json> parse_json(std::string_view text) {
  return Parser(text).run();
}

}  // namespace insitu::obs::analyze
