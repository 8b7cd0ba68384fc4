#include "rdf/ntriples.h"

#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace kgnet::rdf {

namespace {

/// Hex digit value, or -1 for a non-hex character.
int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Appends the UTF-8 encoding of `cp` to `out`. False for code points
/// outside Unicode (> U+10FFFF) or in the surrogate range, which UCHAR
/// escapes must not denote.
bool AppendUtf8(uint32_t cp, std::string* out) {
  if (cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) return false;
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
  return true;
}

/// Decodes a UCHAR escape (\uXXXX or \UXXXXXXXX) whose digits start at
/// s[*i]; appends the code point as UTF-8 and advances *i past the
/// digits.
Status DecodeUchar(std::string_view s, size_t* i, int ndigits,
                   std::string* out) {
  if (*i + static_cast<size_t>(ndigits) > s.size())
    return Status::ParseError("truncated \\u escape in literal");
  uint32_t cp = 0;
  for (int k = 0; k < ndigits; ++k) {
    const int v = HexValue(s[*i + static_cast<size_t>(k)]);
    if (v < 0)
      return Status::ParseError("non-hex digit in \\u escape");
    cp = (cp << 4) | static_cast<uint32_t>(v);
  }
  if (!AppendUtf8(cp, out))
    return Status::ParseError("\\u escape denotes an invalid code point");
  *i += static_cast<size_t>(ndigits);
  return Status::OK();
}

// Consumes one term starting at s[pos]; advances pos past the term.
Result<Term> ParseTermAt(std::string_view s, size_t* pos) {
  while (*pos < s.size() && std::isspace(static_cast<unsigned char>(s[*pos])))
    ++*pos;
  if (*pos >= s.size())
    return Status::ParseError("unexpected end of line while reading term");

  char c = s[*pos];
  if (c == '<') {
    size_t end = s.find('>', *pos + 1);
    if (end == std::string_view::npos)
      return Status::ParseError("unterminated IRI");
    Term t = Term::Iri(std::string(s.substr(*pos + 1, end - *pos - 1)));
    *pos = end + 1;
    return t;
  }
  if (c == '_') {
    if (*pos + 1 >= s.size() || s[*pos + 1] != ':')
      return Status::ParseError("malformed blank node");
    size_t end = *pos + 2;
    while (end < s.size() &&
           !std::isspace(static_cast<unsigned char>(s[end])) && s[end] != '.')
      ++end;
    Term t = Term::Blank(std::string(s.substr(*pos + 2, end - *pos - 2)));
    *pos = end;
    return t;
  }
  if (c == '"') {
    std::string value;
    size_t i = *pos + 1;
    bool closed = false;
    while (i < s.size()) {
      char d = s[i];
      if (d == '\\') {
        if (i + 1 >= s.size()) return Status::ParseError("dangling escape");
        char e = s[i + 1];
        switch (e) {
          case 'n':
            value += '\n';
            break;
          case 'r':
            value += '\r';
            break;
          case 't':
            value += '\t';
            break;
          case '"':
            value += '"';
            break;
          case '\'':
            value += '\'';
            break;
          case 'b':
            value += '\b';
            break;
          case 'f':
            value += '\f';
            break;
          case '\\':
            value += '\\';
            break;
          case 'u':
          case 'U': {
            // UCHAR: \uXXXX / \UXXXXXXXX, decoded to UTF-8.
            size_t digits = i + 2;
            KGNET_RETURN_IF_ERROR(
                DecodeUchar(s, &digits, e == 'u' ? 4 : 8, &value));
            i = digits;
            continue;
          }
          default:
            return Status::ParseError("unsupported escape in literal");
        }
        i += 2;
        continue;
      }
      if (d == '"') {
        closed = true;
        ++i;
        break;
      }
      value += d;
      ++i;
    }
    if (!closed) return Status::ParseError("unterminated literal");
    Term t = Term::Literal(std::move(value));
    if (i < s.size() && s[i] == '@') {
      size_t end = i + 1;
      while (end < s.size() &&
             (std::isalnum(static_cast<unsigned char>(s[end])) ||
              s[end] == '-'))
        ++end;
      t.lang = std::string(s.substr(i + 1, end - i - 1));
      i = end;
    } else if (i + 1 < s.size() && s[i] == '^' && s[i + 1] == '^') {
      if (i + 2 >= s.size() || s[i + 2] != '<')
        return Status::ParseError("malformed datatype");
      size_t end = s.find('>', i + 3);
      if (end == std::string_view::npos)
        return Status::ParseError("unterminated datatype IRI");
      t.datatype = std::string(s.substr(i + 3, end - i - 3));
      i = end + 1;
    }
    *pos = i;
    return t;
  }
  return Status::ParseError("unrecognised term start '" + std::string(1, c) +
                            "'");
}

}  // namespace

Result<ParsedTriple> ParseNTriplesLine(std::string_view line) {
  std::string_view body = StripWhitespace(line);
  if (body.empty() || body[0] == '#')
    return Status::NotFound("blank or comment line");

  size_t pos = 0;
  KGNET_ASSIGN_OR_RETURN(Term s, ParseTermAt(body, &pos));
  KGNET_ASSIGN_OR_RETURN(Term p, ParseTermAt(body, &pos));
  if (!p.is_iri()) return Status::ParseError("predicate must be an IRI");
  KGNET_ASSIGN_OR_RETURN(Term o, ParseTermAt(body, &pos));

  while (pos < body.size() &&
         std::isspace(static_cast<unsigned char>(body[pos])))
    ++pos;
  if (pos >= body.size() || body[pos] != '.')
    return Status::ParseError("missing terminating '.'");
  return ParsedTriple{std::move(s), std::move(p), std::move(o)};
}

Result<size_t> LoadNTriples(std::string_view document, TripleStore* store) {
  // Bulk load in bounded windows: split the next kWindow lines off the
  // document (serial, cheap), parse them in parallel on the shared pool
  // (term parsing dominates and touches no shared state), then intern
  // and insert serially in document order — dictionary ids, insertion
  // results and the partial-load-before-a-parse-error behavior are all
  // identical to a line-at-a-time load. The window bounds peak memory
  // (one window of views + parsed terms, never the whole document) and
  // stops all parse work at the first failing window.
  constexpr size_t kGrain = 512;    // lines per parallel chunk
  constexpr size_t kWindow = 16 * kGrain;  // lines per window
  struct ChunkError {
    size_t line_no = 0;  // 1-based; 0 = chunk parsed clean
    std::string message;
  };
  std::vector<std::string_view> lines;
  std::vector<std::optional<ParsedTriple>> parsed;
  std::vector<ChunkError> errors;

  // Every window inserts into one batch, so the store builds its
  // permutation runs once, when the scope closes (also on the early
  // return at a parse error).
  TripleStore::BulkLoad bulk(store);
  size_t added = 0;
  size_t window_first_line = 1;  // 1-based line number of lines[0]
  size_t start = 0;
  bool more = true;
  while (more) {
    lines.clear();
    while (lines.size() < kWindow) {
      if (start > document.size()) {
        more = false;
        break;
      }
      size_t end = document.find('\n', start);
      if (end == std::string_view::npos) end = document.size();
      lines.push_back(document.substr(start, end - start));
      if (end == document.size()) {
        more = false;
        break;
      }
      start = end + 1;
    }
    if (lines.empty()) break;

    // Parallel parse; each chunk records its first error into its own
    // slot (chunk bounds are a fixed function of the grain, so slot
    // indexing is deterministic).
    parsed.assign(lines.size(), std::nullopt);
    errors.assign((lines.size() + kGrain - 1) / kGrain, ChunkError{});
    common::ParallelFor(0, lines.size(), kGrain, [&](size_t b, size_t e) {
      ChunkError& err = errors[b / kGrain];
      for (size_t i = b; i < e; ++i) {
        if (StripWhitespace(lines[i]).empty()) continue;
        auto r = ParseNTriplesLine(lines[i]);
        if (r.ok()) {
          parsed[i] = std::move(*r);
        } else if (r.status().code() != StatusCode::kNotFound) {
          err.line_no = window_first_line + i;
          err.message = r.status().message();
          return;  // a serial load never reaches past its first error
        }
      }
    });

    // First failing line of this window, in document order.
    const ChunkError* first_error = nullptr;
    for (const ChunkError& err : errors) {
      if (err.line_no != 0) {
        first_error = &err;
        break;
      }
    }

    // Serial insert in document order, up to the first error.
    for (size_t i = 0; i < parsed.size(); ++i) {
      if (first_error != nullptr &&
          window_first_line + i >= first_error->line_no)
        break;
      if (!parsed[i]) continue;
      if (store->Insert(parsed[i]->s, parsed[i]->p, parsed[i]->o)) ++added;
    }
    if (first_error != nullptr)
      return Status::ParseError("line " +
                                std::to_string(first_error->line_no) + ": " +
                                first_error->message);
    window_first_line += lines.size();
  }
  return added;
}

Result<size_t> LoadNTriplesFile(const std::string& path, TripleStore* store) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string content = buf.str();
  return LoadNTriples(content, store);
}

Status WriteNTriples(const TripleStore& store, std::ostream& os) {
  const Dictionary& dict = store.dict();
  store.Scan(TriplePattern(), [&](const Triple& t) {
    os << dict.Lookup(t.s).ToNTriples() << ' ' << dict.Lookup(t.p).ToNTriples()
       << ' ' << dict.Lookup(t.o).ToNTriples() << " .\n";
    return true;
  });
  return Status::OK();
}

}  // namespace kgnet::rdf
