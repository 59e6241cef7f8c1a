#include "lint/rules.h"

#include <algorithm>

namespace ulc::lint {

namespace {

bool is_ident(const Token& t) { return t.kind == TokKind::kIdent; }
bool is_punct(const Token& t, const char* s) {
  return t.kind == TokKind::kPunct && t.text == s;
}
bool is_word(const Token& t, const char* s) {
  return t.kind == TokKind::kIdent && t.text == s;
}
bool path_has(const FileUnit& u, const char* frag) {
  return u.lexed.path.find(frag) != std::string::npos;
}
bool is_header(const FileUnit& u) {
  const std::string& p = u.lexed.path;
  return p.size() > 2 && p.compare(p.size() - 2, 2, ".h") == 0;
}

const Token& tok(const FileUnit& u, std::size_t i) {
  static const Token kEof{TokKind::kPunct, "", 0, 0};
  return i < u.lexed.tokens.size() ? u.lexed.tokens[i] : kEof;
}

void add(std::vector<Finding>& out, const FileUnit& u, const Token& at,
         const char* rule, std::string message) {
  out.push_back(Finding{u.lexed.path, at.line, at.col, rule, Severity::kError,
                        std::move(message)});
}

// ---- determinism -----------------------------------------------------------

void rule_determinism(const FileUnit& u, std::vector<Finding>& out) {
  const auto& toks = u.lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (!is_ident(t)) continue;
    const bool libc_call =
        (t.text == "rand" || t.text == "srand" || t.text == "time") &&
        is_punct(tok(u, i + 1), "(");
    if (libc_call || t.text == "random_device")
      add(out, u, t, "determinism",
          "wall-clock or libc randomness breaks reproducible runs; use "
          "util/prng.h with an explicit seed");
  }
}

// ---- wall-clock ------------------------------------------------------------

void rule_wall_clock(const FileUnit& u, std::vector<Finding>& out) {
  for (const Token& t : u.lexed.tokens) {
    if (is_ident(t) && (t.text == "system_clock" || t.text == "steady_clock" ||
                        t.text == "high_resolution_clock"))
      add(out, u, t, "wall-clock",
          "machine clocks break replay determinism; key measurements to sim "
          "time or access index, or go through util/wallclock.h (the "
          "allow-listed stopwatch shim)");
  }
}

// ---- unordered-iteration ---------------------------------------------------

void collect_unordered_names(const TuSymbols& sym, std::set<std::string>& names) {
  for (const auto& [name, heads] : sym.var_types) {
    if (heads.count("unordered_map") != 0 || heads.count("unordered_set") != 0)
      names.insert(name);
  }
}

void rule_unordered_iteration(const FileUnit& u, const GlobalContext& ctx,
                              std::vector<Finding>& out) {
  std::set<std::string> unordered;
  collect_unordered_names(u.symbols, unordered);
  if (const FileUnit* sib = ctx.sibling_of(u))
    collect_unordered_names(sib->symbols, unordered);
  if (unordered.empty()) return;
  const auto& toks = u.lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_word(toks[i], "for") || !is_punct(tok(u, i + 1), "(")) continue;
    const std::size_t close = skip_balanced(toks, i + 1);
    // Range-for: a top-level `:` inside the parens, then the range expr.
    int depth = 0;
    for (std::size_t j = i + 1; j + 1 < close; ++j) {
      const Token& t = toks[j];
      if (is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{")) ++depth;
      if (is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}")) --depth;
      if (depth == 1 && is_punct(t, ":")) {
        // Flag only when the whole range expression is one identifier: an
        // adapter call like sorted(m) is exactly the sanctioned fix.
        if (j + 2 + 1 == close && is_ident(toks[j + 1]) &&
            unordered.count(toks[j + 1].text) != 0)
          add(out, u, toks[i], "unordered-iteration",
              "hash-order iteration over '" + toks[j + 1].text +
                  "' may leak into output; iterate a sorted copy");
        break;
      }
    }
  }
}

// ---- ensure-msg ------------------------------------------------------------

void rule_ensure_msg(const FileUnit& u, std::vector<Finding>& out) {
  const auto& toks = u.lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (!is_ident(t) || (t.text != "ULC_ENSURE" && t.text != "ULC_REQUIRE"))
      continue;
    if (!is_punct(tok(u, i + 1), "(")) continue;
    const std::size_t close = skip_balanced(toks, i + 1);
    // Last top-level comma-separated argument.
    std::size_t last_start = i + 2;
    int depth = 1;
    for (std::size_t j = i + 2; j + 1 < close; ++j) {
      const Token& a = toks[j];
      if (is_punct(a, "(") || is_punct(a, "[") || is_punct(a, "{")) ++depth;
      if (is_punct(a, ")") || is_punct(a, "]") || is_punct(a, "}")) --depth;
      if (depth == 1 && is_punct(a, ",")) last_start = j + 1;
    }
    const std::size_t last_end = close >= 1 ? close - 1 : close;  // before )
    bool empty = last_start >= last_end;
    if (last_end == last_start + 1 && toks[last_start].kind == TokKind::kString &&
        toks[last_start].text == "\"\"")
      empty = true;
    if (empty)
      add(out, u, t, "ensure-msg", "invariant check without a diagnostic message");
  }
}

// ---- pragma-once / using-namespace ----------------------------------------

std::string squeeze(const std::string& s) {
  std::string out;
  for (char c : s)
    if (c != ' ' && c != '\t') out.push_back(c);
  return out;
}

void rule_header_hygiene(const FileUnit& u, std::vector<Finding>& out) {
  if (!is_header(u)) return;
  bool has_pragma = false;
  for (const Token& t : u.lexed.tokens) {
    if (t.kind == TokKind::kPreprocessor && squeeze(t.text) == "#pragmaonce")
      has_pragma = true;
  }
  if (!has_pragma) {
    Token at{TokKind::kPunct, "", 1, 1};
    add(out, u, at, "pragma-once", "header lacks #pragma once");
  }
  const auto& toks = u.lexed.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (is_word(toks[i], "using") && is_word(toks[i + 1], "namespace"))
      add(out, u, toks[i], "using-namespace",
          "headers must not inject namespaces into every includer");
  }
}

// ---- float-eq --------------------------------------------------------------

void rule_float_eq(const FileUnit& u, std::vector<Finding>& out) {
  const auto& toks = u.lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (!is_punct(t, "==") && !is_punct(t, "!=")) continue;
    const bool lhs = i > 0 && is_float_literal(toks[i - 1]);
    const bool rhs = i + 1 < toks.size() && is_float_literal(toks[i + 1]);
    if (lhs || rhs)
      add(out, u, t, "float-eq",
          "exact comparison against a floating-point literal; compare with a "
          "tolerance or justify with an allow marker");
  }
}

// ---- unbounded-retry -------------------------------------------------------

void rule_unbounded_retry(const FileUnit& u, std::vector<Finding>& out) {
  const auto& toks = u.lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    std::size_t after_header = 0;
    if (is_word(toks[i], "while") && is_punct(tok(u, i + 1), "(") &&
        (is_word(tok(u, i + 2), "true") || tok(u, i + 2).text == "1") &&
        is_punct(tok(u, i + 3), ")")) {
      after_header = i + 4;
    } else if (is_word(toks[i], "for") && is_punct(tok(u, i + 1), "(") &&
               is_punct(tok(u, i + 2), ";") && is_punct(tok(u, i + 3), ";") &&
               is_punct(tok(u, i + 4), ")")) {
      after_header = i + 5;
    } else {
      continue;
    }
    std::size_t body_begin = after_header, body_end = after_header;
    if (is_punct(tok(u, after_header), "{")) {
      body_end = skip_balanced(toks, after_header);
    } else {
      while (body_end < toks.size() && !is_punct(toks[body_end], ";")) ++body_end;
    }
    bool sends = false, bounded = false;
    for (std::size_t j = body_begin; j < body_end; ++j) {
      const Token& b = toks[j];
      if (!is_ident(b)) continue;
      if ((b.text == "send" || b.text == "deliver_at" || b.text == "transfer") &&
          is_punct(tok(u, j + 1), "("))
        sends = true;
      if (b.text.find("attempt") != std::string::npos ||
          b.text.find("retry") != std::string::npos ||
          b.text.find("retries") != std::string::npos ||
          b.text.find("tries") != std::string::npos)
        bounded = true;
    }
    if (sends && !bounded)
      add(out, u, toks[i], "unbounded-retry",
          "infinite loop around a protocol send with no attempts bound; "
          "retries must be counted against RetryPolicy::max_attempts "
          "(proto/reliable.h)");
  }
}

// ---- hot-container ---------------------------------------------------------

void rule_hot_container(const FileUnit& u, std::vector<Finding>& out) {
  if (!path_has(u, "src/ulc/") && !path_has(u, "src/replacement/") &&
      !path_has(u, "src/hierarchy/") && !path_has(u, "src/order/") &&
      !path_has(u, "src/runtime/"))
    return;
  const auto& toks = u.lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (!is_ident(t)) continue;
    const bool unordered =
        (t.text == "unordered_map" || t.text == "unordered_set") &&
        is_punct(tok(u, i + 1), "<");
    const bool std_list = t.text == "list" && is_punct(tok(u, i + 1), "<") &&
                          i >= 2 && is_punct(toks[i - 1], "::") &&
                          is_word(toks[i - 2], "std");
    if (unordered || std_list)
      add(out, u, t, "hot-container",
          "node-based container in a hot path; use FlatMap (util/flat_hash.h) "
          "and Slab/SlabList (util/slab.h), or allow-mark an offline/"
          "reference path");
  }
}

// ---- count-capacity --------------------------------------------------------

bool capacity_ident(const Token& t) {
  return is_ident(t) && (t.text.find("cap") != std::string::npos ||
                         t.text.find("budget") != std::string::npos);
}

bool comparison(const Token& t) {
  return t.kind == TokKind::kPunct &&
         (t.text == "<" || t.text == ">" || t.text == "<=" || t.text == ">=" ||
          t.text == "==" || t.text == "!=");
}

void rule_count_capacity(const FileUnit& u, std::vector<Finding>& out) {
  if (!path_has(u, "src/replacement/") && !path_has(u, "src/hierarchy/")) return;
  const auto& toks = u.lexed.tokens;
  auto same_stmt = [&](std::size_t from, auto&& pred) {
    for (std::size_t j = from;
         j < toks.size() && toks[j].line == toks[from == 0 ? 0 : from - 1].line;
         ++j) {
      if (is_punct(toks[j], ";") || is_punct(toks[j], "{")) return false;
      if (pred(j)) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!comparison(toks[i])) continue;
    // `x.size() <op> ...cap...` — size() immediately left of the operator.
    if (i >= 4 && is_punct(toks[i - 1], ")") && is_punct(toks[i - 2], "(") &&
        is_word(toks[i - 3], "size") && is_punct(toks[i - 4], ".")) {
      if (same_stmt(i + 1, [&](std::size_t j) { return capacity_ident(toks[j]); })) {
        add(out, u, toks[i], "count-capacity",
            "entry count compared against a capacity; budgets are bytes "
            "(SizeUnits), so compare occupied bytes, or allow-mark a genuinely "
            "count-bounded structure (ghost/metadata lists)");
        continue;
      }
    }
    // `...cap... <op> x.size()` — capacity identifier (optionally indexed)
    // immediately left of the operator.
    std::size_t left = i;
    if (left >= 1 && is_punct(toks[left - 1], "]")) {
      std::size_t k = left - 1;
      int depth = 0;
      while (k > 0) {
        if (is_punct(toks[k], "]")) ++depth;
        if (is_punct(toks[k], "[")) {
          if (--depth == 0) break;
        }
        --k;
      }
      left = k;
    }
    if (left >= 1 && capacity_ident(toks[left - 1])) {
      const bool rhs_size = same_stmt(i + 1, [&](std::size_t j) {
        return j >= 3 && is_punct(toks[j], ")") && is_punct(toks[j - 1], "(") &&
               is_word(toks[j - 2], "size") && is_punct(toks[j - 3], ".");
      });
      if (rhs_size)
        add(out, u, toks[i], "count-capacity",
            "entry count compared against a capacity; budgets are bytes "
            "(SizeUnits), so compare occupied bytes, or allow-mark a genuinely "
            "count-bounded structure (ghost/metadata lists)");
    }
  }
}

// ---- dangling-slab-handle --------------------------------------------------
//
// A pointer handed out by FlatMap::find or Slab's node accessors stays valid
// only until the container mutates: FlatMap rehashes on un-reserved inserts
// and tombstones on erase; a Slab slot is recycled the moment it is freed.
// The rule tracks pointer/reference locals whose initializer is one of those
// accessors and reports any use after a call that can invalidate them —
// either a direct mutation of the same container or a call to a same-TU
// function that (transitively) performs one. This is exactly the bug class
// behind the LIRS ghost-trim dangling handle fixed in the arena-core PR.

struct TrackedPtr {
  std::string name;
  std::string source;      // receiver the pointer came from
  bool from_slab = false;  // else FlatMap
  bool invalidated = false;
  std::string invalidator;
  std::size_t invalidated_line = 0;
  bool reported = false;
};

// Does the call at ident index `i` (receiver.method form) invalidate
// pointers from `source`? `sym` supplies receiver types.
enum class CallEffect { kNone, kFlatMapMutate, kSlabMutate };

CallEffect method_effect(const FileUnit& u, std::size_t i) {
  const auto& toks = u.lexed.tokens;
  if (!is_ident(toks[i])) return CallEffect::kNone;
  if (i + 2 >= toks.size()) return CallEffect::kNone;
  if (!is_punct(toks[i + 1], ".") && !is_punct(toks[i + 1], "->"))
    return CallEffect::kNone;
  if (!is_ident(toks[i + 2]) || !is_punct(tok(u, i + 3), "("))
    return CallEffect::kNone;
  const std::string& recv = toks[i].text;
  const std::string& method = toks[i + 2].text;
  const TuSymbols& sym = u.symbols;
  if (sym.declared_as(recv, "FlatMap")) {
    if (method == "erase" || method == "clear") return CallEffect::kFlatMapMutate;
    const bool insertion =
        method == "put" || method == "insert" || method == "insert_new";
    // A reserve()d map never rehashes, so insertions cannot move slots.
    if (insertion && sym.reserved_receivers.count(recv) == 0)
      return CallEffect::kFlatMapMutate;
  }
  if (sym.declared_as(recv, "Slab")) {
    if (method == "free" || method == "clear") return CallEffect::kSlabMutate;
  }
  return CallEffect::kNone;
}

// Same-TU functions that (transitively) contain an invalidating mutation.
std::set<std::string> may_invalidate_functions(const FileUnit& u) {
  std::set<std::string> unsafe;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const FunctionDef& f : u.symbols.functions) {
      if (unsafe.count(f.name) != 0) continue;
      for (std::size_t i = f.body_begin; i < f.body_end; ++i) {
        const Token& t = u.lexed.tokens[i];
        if (!is_ident(t)) continue;
        if (method_effect(u, i) != CallEffect::kNone) {
          unsafe.insert(f.name);
          changed = true;
          break;
        }
        // Bare call to an already-unsafe function.
        const bool bare_call =
            is_punct(tok(u, i + 1), "(") &&
            (i == 0 || (!is_punct(u.lexed.tokens[i - 1], ".") &&
                        !is_punct(u.lexed.tokens[i - 1], "->") &&
                        !is_punct(u.lexed.tokens[i - 1], "::")));
        if (bare_call && unsafe.count(t.text) != 0) {
          unsafe.insert(f.name);
          changed = true;
          break;
        }
      }
    }
  }
  return unsafe;
}

void rule_dangling_slab_handle(const FileUnit& u, std::vector<Finding>& out) {
  const auto& toks = u.lexed.tokens;
  const std::set<std::string> unsafe_fns = may_invalidate_functions(u);
  for (const FunctionDef& f : u.symbols.functions) {
    std::vector<TrackedPtr> tracked;
    bool pending_path_clear = false;
    for (std::size_t i = f.body_begin; i < f.body_end; ++i) {
      const Token& t = toks[i];
      // The scan is path-insensitive, so an invalidation followed by a
      // completed `return` statement before the next use means the two sit
      // on mutually exclusive paths (the common early-exit branch shape):
      // forget the invalidation once the return statement ends. Uses inside
      // the return expression itself are still checked.
      if (pending_path_clear && is_punct(t, ";")) {
        for (TrackedPtr& p : tracked) p.invalidated = false;
        pending_path_clear = false;
        continue;
      }
      if (!is_ident(t)) continue;
      if (is_word(t, "return")) {
        pending_path_clear = true;
        continue;
      }

      // New tracked pointer?  <*|&|auto> name = recv.find( / recv.get( /
      // recv[ ...  (a plain value copy is safe and is not tracked).
      if (is_punct(tok(u, i + 1), "=") && i > f.body_begin) {
        const Token& before = toks[i - 1];
        const bool ptr_decl = is_punct(before, "*") || is_punct(before, "&");
        const bool auto_decl = is_word(before, "auto");
        std::size_t j = i + 2;
        if (is_punct(tok(u, j), "&") || is_punct(tok(u, j), "*")) ++j;
        if (is_ident(tok(u, j))) {
          const std::string recv = tok(u, j).text;
          const bool map_find = u.symbols.declared_as(recv, "FlatMap") &&
                                (is_punct(tok(u, j + 1), ".") ||
                                 is_punct(tok(u, j + 1), "->")) &&
                                is_word(tok(u, j + 2), "find") &&
                                is_punct(tok(u, j + 3), "(");
          const bool slab_get = u.symbols.declared_as(recv, "Slab") &&
                                (is_punct(tok(u, j + 1), ".") ||
                                 is_punct(tok(u, j + 1), "->")) &&
                                is_word(tok(u, j + 2), "get") &&
                                is_punct(tok(u, j + 3), "(");
          const bool slab_index = u.symbols.declared_as(recv, "Slab") &&
                                  is_punct(tok(u, j + 1), "[");
          const bool track = (map_find && (ptr_decl || auto_decl)) ||
                             (slab_get && (ptr_decl || auto_decl)) ||
                             (slab_index && ptr_decl);
          // Reassignment of a name always supersedes earlier tracking.
          for (TrackedPtr& p : tracked)
            if (p.name == t.text) p.invalidated = false;
          tracked.erase(std::remove_if(tracked.begin(), tracked.end(),
                                       [&](const TrackedPtr& p) {
                                         return p.name == t.text;
                                       }),
                        tracked.end());
          if (track) {
            TrackedPtr p;
            p.name = t.text;
            p.source = recv;
            p.from_slab = slab_get || slab_index;
            tracked.push_back(std::move(p));
            i = j + 1;
            continue;
          }
        }
        continue;
      }

      if (tracked.empty()) continue;

      // Invalidating events.
      const CallEffect eff = method_effect(u, i);
      if (eff != CallEffect::kNone) {
        for (TrackedPtr& p : tracked) {
          const bool hits = p.source == t.text &&
                            ((eff == CallEffect::kFlatMapMutate && !p.from_slab) ||
                             (eff == CallEffect::kSlabMutate && p.from_slab));
          if (hits && !p.invalidated) {
            p.invalidated = true;
            p.invalidator = t.text + "." + toks[i + 2].text + "()";
            p.invalidated_line = t.line;
          }
        }
        i += 3;  // past recv . method (
        continue;
      }
      const bool bare_call =
          is_punct(tok(u, i + 1), "(") &&
          (i == 0 || (!is_punct(toks[i - 1], ".") && !is_punct(toks[i - 1], "->") &&
                      !is_punct(toks[i - 1], "::")));
      if (bare_call && unsafe_fns.count(t.text) != 0 && t.text != f.name) {
        for (TrackedPtr& p : tracked) {
          if (!p.invalidated) {
            p.invalidated = true;
            p.invalidator = t.text + "()";
            p.invalidated_line = t.line;
          }
        }
        continue;
      }

      // Use of a tracked pointer. Field accesses named like the pointer
      // (x.f) do not count; the identifier itself does.
      if (i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->") ||
                    is_punct(toks[i - 1], "::")))
        continue;
      for (TrackedPtr& p : tracked) {
        if (p.name != t.text || !p.invalidated || p.reported) continue;
        p.reported = true;
        add(out, u, t, "dangling-slab-handle",
            "'" + p.name + "' (from " + p.source +
                (p.from_slab ? " slab node access" : "::find") +
                ") is used after " + p.invalidator + " (line " +
                std::to_string(p.invalidated_line) +
                "), which may invalidate it; re-acquire the pointer after "
                "the mutation");
      }
    }
  }
}

// ---- narration-completeness ------------------------------------------------
//
// Every MultiLevelScheme narrates its block movements into the audit sink so
// the shadow auditor (src/check) can replay them. A scheme method that
// mutates level contents without ever reaching audit_emit silently drifts
// the shadow model — the exact failure mode the mutation tests seed. The
// rule applies to classes deriving from MultiLevelScheme in src/hierarchy
// and src/ulc that narrate at all (schemes that opt out of auditing
// entirely, like the OPT reference layout, fall back to the auditor's
// statistics-conservation checks and are exempt).

bool body_mentions(const FileUnit& u, const FunctionDef& f, const char* name) {
  for (std::size_t i = f.body_begin; i < f.body_end; ++i) {
    if (is_word(u.lexed.tokens[i], name)) return true;
  }
  return false;
}

void rule_narration_completeness(const FileUnit& u, std::vector<Finding>& out) {
  if (!path_has(u, "src/hierarchy/") && !path_has(u, "src/ulc/")) return;
  static const char* const kMutators[] = {"insert",    "insert_new", "erase",
                                          "evict_one", "evict",      "remove"};
  for (const ClassDef& cls : u.symbols.classes) {
    if (std::find(cls.bases.begin(), cls.bases.end(), "MultiLevelScheme") ==
        cls.bases.end())
      continue;
    // Member functions: inside the class body, or out-of-line Class::name.
    std::vector<const FunctionDef*> members;
    for (const FunctionDef& f : u.symbols.functions) {
      const bool inside =
          f.header_begin > cls.body_begin && f.body_end <= cls.body_end;
      if (inside || f.qualifier == cls.name) members.push_back(&f);
    }
    // narrates: direct audit_emit/auditing use, then closed over bare calls
    // to sibling members.
    std::set<std::string> narrating;
    for (const FunctionDef* f : members) {
      if (body_mentions(u, *f, "audit_emit") || body_mentions(u, *f, "auditing"))
        narrating.insert(f->name);
    }
    if (narrating.empty()) continue;  // scheme opted out of auditing
    bool changed = true;
    while (changed) {
      changed = false;
      for (const FunctionDef* f : members) {
        if (narrating.count(f->name) != 0) continue;
        for (std::size_t i = f->body_begin; i < f->body_end; ++i) {
          const Token& t = u.lexed.tokens[i];
          const bool bare_call =
              is_ident(t) && is_punct(tok(u, i + 1), "(") &&
              (i == 0 || (!is_punct(u.lexed.tokens[i - 1], ".") &&
                          !is_punct(u.lexed.tokens[i - 1], "->") &&
                          !is_punct(u.lexed.tokens[i - 1], "::")));
          if (bare_call && narrating.count(t.text) != 0) {
            narrating.insert(f->name);
            changed = true;
            break;
          }
        }
      }
    }
    for (const FunctionDef* f : members) {
      if (f->is_const || f->name == cls.name || f->name == "reset_stats")
        continue;
      if (narrating.count(f->name) != 0) continue;
      bool mutates = false;
      std::string mutator;
      for (std::size_t i = f->body_begin; i < f->body_end && !mutates; ++i) {
        const Token& t = u.lexed.tokens[i];
        if (!is_ident(t) || !is_punct(tok(u, i + 1), "(")) continue;
        if (i == 0 || (!is_punct(u.lexed.tokens[i - 1], ".") &&
                       !is_punct(u.lexed.tokens[i - 1], "->")))
          continue;  // only receiver.method(...) forms mutate contents
        for (const char* m : kMutators) {
          if (t.text == m) {
            mutates = true;
            mutator = t.text;
            break;
          }
        }
      }
      if (!mutates) continue;
      Token at{TokKind::kIdent, f->name, f->line, 1};
      add(out, u, at, "narration-completeness",
          "'" + cls.name + "::" + f->name + "' mutates level contents (" +
              mutator +
              ") but never reaches audit_emit; narrate the movement or "
              "allow-mark a metadata-only mutation");
    }
  }
}

// ---- enum-switch -----------------------------------------------------------

struct SwitchInfo {
  std::size_t kw = 0;          // token index of `switch`
  std::size_t body_begin = 0;  // `{`
  std::size_t body_end = 0;    // one past `}`
};

void find_switches(const FileUnit& u, std::vector<SwitchInfo>& out) {
  const auto& toks = u.lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_word(toks[i], "switch") || !is_punct(tok(u, i + 1), "(")) continue;
    const std::size_t cond_end = skip_balanced(toks, i + 1);
    if (!is_punct(tok(u, cond_end), "{")) continue;
    SwitchInfo s;
    s.kw = i;
    s.body_begin = cond_end;
    s.body_end = skip_balanced(toks, cond_end);
    out.push_back(s);
  }
}

void rule_enum_switch(const FileUnit& u, const GlobalContext& ctx,
                      std::vector<Finding>& out) {
  std::vector<SwitchInfo> switches;
  find_switches(u, switches);
  const auto& toks = u.lexed.tokens;
  for (const SwitchInfo& s : switches) {
    bool has_default = false;
    std::set<std::string> labels;     // enumerator names
    std::set<std::string> enum_names; // qualifier directly before them
    bool unqualified_label = false;
    for (std::size_t i = s.body_begin + 1; i + 1 < s.body_end; ++i) {
      // Skip nested switch bodies: their cases belong to them.
      for (const SwitchInfo& n : switches) {
        if (n.kw > s.kw && n.kw == i) i = n.body_end;
      }
      if (i >= s.body_end) break;
      const Token& t = toks[i];
      if (is_word(t, "default") && is_punct(tok(u, i + 1), ":")) {
        has_default = true;
        continue;
      }
      if (!is_word(t, "case")) continue;
      // Label tokens up to the `:`.
      std::size_t j = i + 1;
      std::vector<const Token*> label;
      while (j < s.body_end && !is_punct(toks[j], ":")) {
        label.push_back(&toks[j]);
        ++j;
      }
      i = j;
      if (label.size() >= 3 && is_ident(*label[label.size() - 1]) &&
          label[label.size() - 2]->text == "::" &&
          is_ident(*label[label.size() - 3])) {
        labels.insert(label.back()->text);
        enum_names.insert(label[label.size() - 3]->text);
      } else {
        unqualified_label = true;
      }
    }
    if (has_default || unqualified_label || enum_names.size() != 1 ||
        labels.empty())
      continue;
    const std::string& ename = *enum_names.begin();
    auto it = ctx.enums.find(ename);
    if (it == ctx.enums.end()) continue;  // not a repo-defined enum
    // Candidate defs that explain every label; pick the tightest.
    const EnumDef* best = nullptr;
    for (const EnumDef* def : it->second) {
      const std::set<std::string> all(def->enumerators.begin(),
                                      def->enumerators.end());
      if (!std::includes(all.begin(), all.end(), labels.begin(), labels.end()))
        continue;
      if (best == nullptr || def->enumerators.size() < best->enumerators.size())
        best = def;
    }
    if (best == nullptr) continue;
    std::vector<std::string> missing;
    for (const std::string& e : best->enumerators)
      if (labels.count(e) == 0) missing.push_back(e);
    if (missing.empty()) continue;
    std::string list;
    for (const std::string& m : missing) {
      if (!list.empty()) list += ", ";
      list += m;
    }
    add(out, u, toks[s.kw], "enum-switch",
        "switch over enum '" + ename + "' (" + best->path +
            ") has no default and misses: " + list);
  }
}

// ---- include-layering ------------------------------------------------------

void rule_include_layering(const FileUnit& u, const GlobalContext& ctx,
                           std::vector<Finding>& out) {
  if (ctx.layers.empty()) return;
  const std::string self = module_of(u.lexed.path);
  if (self.empty()) return;
  auto it = ctx.layers.find(self);
  if (it == ctx.layers.end()) {
    Token at{TokKind::kPunct, "", 1, 1};
    add(out, u, at, "include-layering",
        "module '" + self +
            "' is not declared in layers.txt; add it to the layering DAG");
    return;
  }
  const std::set<std::string>& allowed = it->second;
  if (allowed.count("*") != 0) return;
  for (const Token& t : u.lexed.tokens) {
    if (t.kind != TokKind::kPreprocessor) continue;
    const std::string sq = squeeze(t.text);
    if (sq.compare(0, 9, "#include\"") != 0) continue;
    const std::size_t open = t.text.find('"');
    const std::size_t close = t.text.find('"', open + 1);
    if (open == std::string::npos || close == std::string::npos) continue;
    const std::string inc = t.text.substr(open + 1, close - open - 1);
    const std::size_t slash = inc.find('/');
    if (slash == std::string::npos) continue;  // same-directory include
    const std::string target = inc.substr(0, slash);
    if (target == self || allowed.count(target) != 0) continue;
    add(out, u, t, "include-layering",
        "module '" + self + "' must not include '" + inc + "': '" + target +
            "' is not among its declared dependencies in layers.txt");
  }
}

// ---- lock-order ------------------------------------------------------------

// The serving runtime is deadlock-free by construction: every function takes
// at most one guard (shard locks are leaves; cross-shard work goes through
// the MPSC queues instead of nesting). A second guard construction in one
// function body therefore either needs a documented lock order or a
// restructure — flag it, allow-markable with the ordering comment.
void rule_lock_order(const FileUnit& u, std::vector<Finding>& out) {
  if (!path_has(u, "src/runtime/")) return;
  const auto& toks = u.lexed.tokens;
  for (const FunctionDef& fn : u.symbols.functions) {
    std::size_t guards = 0;
    for (std::size_t i = fn.body_begin; i < fn.body_end && i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (!is_ident(t)) continue;
      const bool guard_type = t.text == "lock_guard" || t.text == "unique_lock" ||
                              t.text == "scoped_lock" || t.text == "shared_lock";
      if (!guard_type) continue;
      if (!is_punct(tok(u, i + 1), "<") && !is_punct(tok(u, i + 1), "("))
        continue;  // mention, not a construction
      if (++guards == 2) {
        add(out, u, t, "lock-order",
            "second lock guard in '" + fn.name +
                "': nested shard-lock acquisition risks deadlock; route "
                "cross-shard work through the MPSC queues, or document the "
                "global lock order with an allow marker");
        break;  // one finding per function
      }
    }
  }
}

// ---- raw-intrinsic ---------------------------------------------------------
//
// util/simd.h is the single place raw SSE/NEON intrinsics (and the bare
// prefetch builtin) are allowed: it owns the per-ISA group-probe policies and
// the scalar fallback that the differential fuzz pins against them. An
// intrinsic anywhere else forks the portability surface — the scalar build
// stops covering it, and determinism between ISAs is no longer tested. The
// rule is pattern-based (x86 `_mm*_` / `__m128`-family types /
// `__builtin_ia32_*`, NEON `v*_<lane-type>` calls and `uint8x16_t`-style
// vector types, and `__builtin_prefetch`) so new intrinsics are caught
// without a list update; a genuinely unrelated identifier that trips the
// NEON heuristic can be allow-marked.

bool neon_lane_suffix(const std::string& s) {
  static const char* const kSuffixes[] = {"u8",  "u16", "u32", "u64", "s8",
                                          "s16", "s32", "s64", "f16", "f32",
                                          "f64", "p8",  "p16", "p64"};
  const std::size_t us = s.rfind('_');
  if (us == std::string::npos || us + 1 >= s.size()) return false;
  const std::string tail = s.substr(us + 1);
  for (const char* suf : kSuffixes)
    if (tail == suf) return true;
  return false;
}

bool neon_vector_type(const std::string& s) {
  // uint8x16_t, int16x8_t, float32x4_t, poly8x8_t, uint8x8x2_t ...
  if (s.size() < 7 || s.compare(s.size() - 2, 2, "_t") != 0) return false;
  std::size_t i = 0;
  if (s.compare(0, 4, "uint") == 0) i = 4;
  else if (s.compare(0, 3, "int") == 0) i = 3;
  else if (s.compare(0, 5, "float") == 0) i = 5;
  else if (s.compare(0, 4, "poly") == 0) i = 4;
  else return false;
  bool saw_x = false;
  for (; i + 2 < s.size(); ++i) {
    const char c = s[i];
    if (c == 'x') saw_x = true;
    else if (c < '0' || c > '9') return false;
  }
  return saw_x;
}

bool raw_intrinsic_ident(const std::string& s) {
  if (s.compare(0, 4, "_mm_") == 0 || s.compare(0, 7, "_mm256_") == 0 ||
      s.compare(0, 7, "_mm512_") == 0)
    return true;
  if (s.compare(0, 4, "__m1") == 0 || s.compare(0, 4, "__m2") == 0 ||
      s.compare(0, 4, "__m5") == 0)
    return true;
  if (s.compare(0, 14, "__builtin_ia32") == 0) return true;
  if (s == "__builtin_prefetch") return true;
  if (s.size() > 4 && s[0] == 'v' && neon_lane_suffix(s)) return true;
  return neon_vector_type(s);
}

void rule_raw_intrinsic(const FileUnit& u, std::vector<Finding>& out) {
  const std::string& p = u.lexed.path;
  if (p.size() >= 11 && p.compare(p.size() - 11, 11, "util/simd.h") == 0)
    return;
  for (const Token& t : u.lexed.tokens) {
    if (is_ident(t) && raw_intrinsic_ident(t.text))
      add(out, u, t, "raw-intrinsic",
          "raw SIMD/prefetch intrinsic '" + t.text +
              "' outside util/simd.h; go through the Group16 policies and "
              "prefetch_read/prefetch_write so the scalar fallback and the "
              "differential fuzz keep covering this code");
  }
}

}  // namespace

const std::vector<RuleInfo>& all_rules() {
  static const std::vector<RuleInfo> kRules = {
      {"determinism", Severity::kError,
       "libc randomness / time() calls break bit-reproducible runs"},
      {"wall-clock", Severity::kError,
       "std::chrono machine clocks outside util/wallclock.h"},
      {"unordered-iteration", Severity::kError,
       "range-for over an unordered container leaks hash order"},
      {"ensure-msg", Severity::kError,
       "ULC_ENSURE/ULC_REQUIRE with an empty diagnostic message"},
      {"pragma-once", Severity::kError, "header without #pragma once"},
      {"using-namespace", Severity::kError, "`using namespace` in a header"},
      {"float-eq", Severity::kError,
       "exact ==/!= against a floating-point literal"},
      {"unbounded-retry", Severity::kError,
       "infinite loop around protocol sends with no attempts bound"},
      {"hot-container", Severity::kError,
       "node-based std container in an arena-core hot directory"},
      {"count-capacity", Severity::kError,
       "entry count compared against a byte budget"},
      {"dangling-slab-handle", Severity::kError,
       "FlatMap/Slab pointer used after a call that can invalidate it"},
      {"narration-completeness", Severity::kError,
       "scheme mutates level contents without narrating to the audit sink"},
      {"enum-switch", Severity::kError,
       "switch over a repo enum without default misses enumerators"},
      {"include-layering", Severity::kError,
       "include edge not in the declared module DAG (tools/lint/layers.txt)"},
      {"lock-order", Severity::kError,
       "nested lock-guard acquisition in src/runtime without an ordering "
       "comment"},
      {"raw-intrinsic", Severity::kError,
       "SSE/NEON/prefetch intrinsic used outside util/simd.h"},
  };
  return kRules;
}

bool is_known_rule(const std::string& name) {
  for (const RuleInfo& r : all_rules())
    if (name == r.name) return true;
  return false;
}

std::string module_of(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : path) {
    if (c == '/') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  parts.push_back(cur);
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    if (parts[i] == "src") return parts[i + 1];
    if (parts[i] == "bench" || parts[i] == "tools" || parts[i] == "tests")
      return parts[i];
  }
  return {};
}

void run_rules(const FileUnit& unit, const GlobalContext& ctx,
               std::vector<Finding>& out) {
  rule_determinism(unit, out);
  rule_wall_clock(unit, out);
  rule_unordered_iteration(unit, ctx, out);
  rule_ensure_msg(unit, out);
  rule_header_hygiene(unit, out);
  rule_float_eq(unit, out);
  rule_unbounded_retry(unit, out);
  rule_hot_container(unit, out);
  rule_count_capacity(unit, out);
  rule_dangling_slab_handle(unit, out);
  rule_narration_completeness(unit, out);
  rule_enum_switch(unit, ctx, out);
  rule_include_layering(unit, ctx, out);
  rule_lock_order(unit, out);
  rule_raw_intrinsic(unit, out);
}

}  // namespace ulc::lint
