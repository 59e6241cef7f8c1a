// Unit tests for the ulc_lint library: lexer regressions (raw strings and
// the quote-R near-miss), symbol scanning, one firing plus one clean
// near-miss fixture per rule, and the suppression/baseline/JSON machinery.
//
// Fixtures are raw strings with a `__` delimiter so their contents — which
// deliberately include every forbidden construct — are opaque tokens when
// this file is itself linted.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "lint/engine.h"
#include "lint/lexer.h"
#include "lint/symbols.h"

namespace ulc::lint {
namespace {

// ---------- helpers ---------------------------------------------------------

Report lint_source(const std::string& path, const std::string& text,
                   Options opts = {}) {
  Engine engine(std::move(opts));
  engine.add_source(path, text);
  return engine.run();
}

bool fires(const Report& report, const std::string& rule) {
  return std::any_of(report.findings.begin(), report.findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

bool fires(const std::string& path, const std::string& text,
           const std::string& rule, Options opts = {}) {
  return fires(lint_source(path, text, std::move(opts)), rule);
}

std::string write_temp(const std::string& name, const std::string& content) {
  std::ofstream out(name, std::ios::binary);
  out << content;
  return name;
}

std::vector<std::string> token_texts(const LexedFile& f) {
  std::vector<std::string> out;
  for (const Token& t : f.tokens) out.push_back(t.text);
  return out;
}

// ---------- lexer -----------------------------------------------------------

TEST(Lexer, TokensCarryLineAndColumn) {
  const LexedFile f = lex("a.cpp", "int x;\n  x = 1;\n");
  ASSERT_EQ(f.tokens.size(), 7u);
  EXPECT_EQ(f.tokens[0].text, "int");
  EXPECT_EQ(f.tokens[0].line, 1u);
  EXPECT_EQ(f.tokens[0].col, 1u);
  EXPECT_EQ(f.tokens[3].text, "x");
  EXPECT_EQ(f.tokens[3].line, 2u);
  EXPECT_EQ(f.tokens[3].col, 3u);
}

TEST(Lexer, CommentsAreKeptOutOfTheTokenStream) {
  const LexedFile f = lex("a.cpp",
                          "int a;  // rand() here is commentary\n"
                          "/* and rand() here\n   spans lines */ int b;\n");
  const auto texts = token_texts(f);
  EXPECT_EQ(std::count(texts.begin(), texts.end(), "rand"), 0);
  ASSERT_EQ(f.comments.size(), 2u);
  EXPECT_EQ(f.comments[1].line, 2u);
  // Tokens after the block comment land on the right line.
  EXPECT_EQ(f.tokens.back().line, 3u);
}

// The regression pinned here: analyzers.cpp returns measure names "R" and
// "LLD-R" as ordinary string literals. A naive raw-string detector sees the
// `"` + `R` sequence (or the R adjacent to a quote in "LLD-R") and treats
// the rest of the file as raw-string content, silencing every rule after
// that point. The leading quote must win: these are kString tokens and the
// statements after them still lex.
TEST(Lexer, QuoteRStringsFromAnalyzersAreNotRawStrings) {
  const LexedFile f = lex("measures/analyzers.cpp",
                          R"__(
const char* measure_name_r() { return "R"; }
const char* measure_name_lld() { return "LLD-R"; }
int after() { return rand(); }
)__");
  const auto texts = token_texts(f);
  ASSERT_NE(std::find(texts.begin(), texts.end(), "\"R\""), texts.end());
  ASSERT_NE(std::find(texts.begin(), texts.end(), "\"LLD-R\""), texts.end());
  // Lexing continued past them: the rand() call in after() is visible.
  EXPECT_NE(std::find(texts.begin(), texts.end(), "rand"), texts.end());
  for (const Token& t : f.tokens) EXPECT_NE(t.kind, TokKind::kRawString);
}

TEST(Lexer, EnsureMessageStringFromLirsStaysIntact) {
  const LexedFile f =
      lex("replacement/lirs.cpp",
          R"__(ULC_ENSURE(e.status == Status::kHir, "ghost must be HIR");)__");
  const auto texts = token_texts(f);
  EXPECT_NE(std::find(texts.begin(), texts.end(), "\"ghost must be HIR\""),
            texts.end());
}

TEST(Lexer, RawStringSwallowsForbiddenConstructs) {
  // The quote-paren inside the body must not close the literal: only the
  // delimiter sequence does.
  const LexedFile f = lex("a.cpp",
                          "const char* s = R\"x(rand() and a )\" inside)x\";\n"
                          "int y;\n");
  std::size_t raw = 0;
  for (const Token& t : f.tokens)
    if (t.kind == TokKind::kRawString) ++raw;
  EXPECT_EQ(raw, 1u);
  const auto texts = token_texts(f);
  EXPECT_EQ(std::count(texts.begin(), texts.end(), "rand"), 0);
  EXPECT_NE(std::find(texts.begin(), texts.end(), "y"), texts.end());
}

TEST(Lexer, RawStringPrefixesAndGluedIdentifiers) {
  const LexedFile f = lex("a.cpp",
                          "auto a = u8R\"(p)\";\n"
                          "auto b = LR\"(q)\";\n"
                          "auto c = FOO_R\"not raw\";\n");
  std::size_t raw = 0, plain = 0;
  for (const Token& t : f.tokens) {
    if (t.kind == TokKind::kRawString) ++raw;
    if (t.kind == TokKind::kString) ++plain;
  }
  EXPECT_EQ(raw, 2u);   // u8R"..." and LR"..."
  EXPECT_EQ(plain, 1u); // FOO_R is an identifier; "not raw" a plain string
}

TEST(Lexer, MultilineRawStringKeepsLineNumbers) {
  const LexedFile f = lex("a.cpp", "auto s = R\"(one\ntwo\nthree)\";\nint z;\n");
  EXPECT_EQ(f.tokens.back().line, 4u);  // the `;` after z
}

TEST(Lexer, PreprocessorDirectivesAreSingleTokens) {
  const LexedFile f = lex("a.h",
                          "#pragma once\n"
                          "#include \"trace/types.h\"  // tail comment\n"
                          "#define TWO \\\n  2\n"
                          "int x;\n");
  std::vector<std::string> pp;
  for (const Token& t : f.tokens)
    if (t.kind == TokKind::kPreprocessor) pp.push_back(t.text);
  ASSERT_EQ(pp.size(), 3u);
  EXPECT_EQ(pp[0], "#pragma once");
  EXPECT_EQ(pp[1], "#include \"trace/types.h\"");
  // Continuation joined into one token (interior spacing is not pinned).
  EXPECT_EQ(pp[2].rfind("#define TWO", 0), 0u);
  EXPECT_EQ(pp[2].back(), '2');
}

TEST(Lexer, UnterminatedStringStopsAtEndOfLine) {
  const LexedFile f = lex("a.cpp", "auto s = \"oops\nint x;\n");
  const auto texts = token_texts(f);
  EXPECT_NE(std::find(texts.begin(), texts.end(), "x"), texts.end());
}

TEST(Lexer, NumberClassification) {
  const LexedFile f = lex("a.cpp", "a = 1'000'000 + 1.5 + 1e9 + 0x1F + 10;");
  std::vector<Token> nums;
  for (const Token& t : f.tokens)
    if (t.kind == TokKind::kNumber) nums.push_back(t);
  ASSERT_EQ(nums.size(), 5u);
  EXPECT_EQ(nums[0].text, "1'000'000");
  EXPECT_FALSE(is_float_literal(nums[0]));
  EXPECT_TRUE(is_float_literal(nums[1]));
  EXPECT_TRUE(is_float_literal(nums[2]));
  EXPECT_FALSE(is_float_literal(nums[3]));  // hex is never "float"
  EXPECT_FALSE(is_float_literal(nums[4]));
}

// ---------- symbols ---------------------------------------------------------

TEST(Symbols, EnumWithInitializersAndUnderlyingType) {
  const LexedFile f = lex("a.h",
                          R"__(enum class Kind : std::uint8_t {
  kA = 1 << 2,
  kB = f(3, 4),
  kC,
};)__");
  const TuSymbols sym = scan(f);
  ASSERT_EQ(sym.enums.size(), 1u);
  EXPECT_EQ(sym.enums[0].name, "Kind");
  EXPECT_EQ(sym.enums[0].enumerators,
            (std::vector<std::string>{"kA", "kB", "kC"}));
}

TEST(Symbols, VariableDeclarationsRecordTypeHeads) {
  const LexedFile f = lex("a.cpp",
                          R"__(FlatMap<BlockId, SlabHandle> entries_;
Slab<Node> slab_;
std::unordered_map<int, int> scratch;
entries_.reserve(128);)__");
  const TuSymbols sym = scan(f);
  EXPECT_TRUE(sym.declared_as("entries_", "FlatMap"));
  EXPECT_TRUE(sym.declared_as("slab_", "Slab"));
  EXPECT_TRUE(sym.declared_as("scratch", "unordered_map"));
  EXPECT_EQ(sym.reserved_receivers.count("entries_"), 1u);
  EXPECT_EQ(sym.reserved_receivers.count("slab_"), 0u);
}

TEST(Symbols, FunctionBodiesAndConstness) {
  const LexedFile f = lex("a.cpp",
                          R"__(int Foo::size() const { return n_; }
void Foo::grow(int by) { n_ += by; }
int free_fn() { return 1; })__");
  const TuSymbols sym = scan(f);
  ASSERT_EQ(sym.functions.size(), 3u);
  EXPECT_EQ(sym.functions[0].name, "size");
  EXPECT_EQ(sym.functions[0].qualifier, "Foo");
  EXPECT_TRUE(sym.functions[0].is_const);
  EXPECT_FALSE(sym.functions[1].is_const);
  EXPECT_EQ(sym.functions[2].qualifier, "");
}

TEST(Symbols, ClassBasesAreRecorded) {
  const LexedFile f = lex("a.cpp",
                          R"__(class MyScheme final : public MultiLevelScheme {
 public:
  int x;
};)__");
  const TuSymbols sym = scan(f);
  ASSERT_EQ(sym.classes.size(), 1u);
  EXPECT_EQ(sym.classes[0].name, "MyScheme");
  ASSERT_EQ(sym.classes[0].bases.size(), 1u);
  EXPECT_EQ(sym.classes[0].bases[0], "MultiLevelScheme");
}

// ---------- ported rules: firing + clean near-miss --------------------------

TEST(Rules, DeterminismFires) {
  EXPECT_TRUE(fires("src/ulc/a.cpp", R"__(int f() { return rand(); })__",
                    "determinism"));
}

TEST(Rules, DeterminismNearMissClean) {
  // Identifiers containing "rand", and rand() in comments/strings, are fine.
  EXPECT_FALSE(fires("src/ulc/a.cpp",
                     R"__(int strand();
int f() { return strand(); }  // rand() would be bad
const char* s = "rand()";)__",
                     "determinism"));
}

TEST(Rules, WallClockFires) {
  EXPECT_TRUE(fires("src/obs/a.cpp",
                    R"__(auto t = std::chrono::steady_clock::now();)__",
                    "wall-clock"));
}

TEST(Rules, WallClockNearMissClean) {
  EXPECT_FALSE(fires("src/obs/a.cpp",
                     R"__(// steady_clock is banned outside util/wallclock.h
int steady_clock_like = 3;)__",
                     "wall-clock"));
}

TEST(Rules, UnorderedIterationFires) {
  EXPECT_TRUE(fires("src/exp/a.cpp",
                    R"__(std::unordered_map<int, int> m;
void f() { for (auto& kv : m) { use(kv); } })__",
                    "unordered-iteration"));
}

TEST(Rules, UnorderedIterationSortedAdapterClean) {
  EXPECT_FALSE(fires("src/exp/a.cpp",
                     R"__(std::unordered_map<int, int> m;
void f() { for (auto& kv : sorted(m)) { use(kv); } })__",
                     "unordered-iteration"));
}

TEST(Rules, EnsureMsgFires) {
  EXPECT_TRUE(fires("src/ulc/a.cpp", R"__(void f() { ULC_ENSURE(a == b, ""); })__",
                    "ensure-msg"));
}

TEST(Rules, EnsureMsgWithMessageClean) {
  EXPECT_FALSE(fires("src/ulc/a.cpp",
                     R"__(void f() { ULC_ENSURE(a == b, "a and b must agree"); })__",
                     "ensure-msg"));
}

TEST(Rules, PragmaOnceFiresOnHeaderWithoutIt) {
  EXPECT_TRUE(fires("src/util/a.h", "int x;\n", "pragma-once"));
}

TEST(Rules, PragmaOnceCleanWhenPresentAndInSources) {
  EXPECT_FALSE(fires("src/util/a.h", "#pragma once\nint x;\n", "pragma-once"));
  EXPECT_FALSE(fires("src/util/a.cpp", "int x;\n", "pragma-once"));
}

TEST(Rules, UsingNamespaceFiresInHeader) {
  EXPECT_TRUE(fires("src/util/a.h",
                    "#pragma once\nusing namespace std;\n", "using-namespace"));
}

TEST(Rules, UsingDeclarationClean) {
  EXPECT_FALSE(fires("src/util/a.h",
                     "#pragma once\nusing std::vector;\n", "using-namespace"));
}

TEST(Rules, FloatEqFires) {
  EXPECT_TRUE(
      fires("src/measures/a.cpp", R"__(bool b = x == 0.5;)__", "float-eq"));
}

TEST(Rules, FloatComparisonNearMissClean) {
  EXPECT_FALSE(fires("src/measures/a.cpp",
                     R"__(bool b = x <= 0.5; bool c = x == half();)__",
                     "float-eq"));
}

TEST(Rules, UnboundedRetryFires) {
  EXPECT_TRUE(fires("src/proto/a.cpp",
                    R"__(void pump() { while (true) { send(msg); } })__",
                    "unbounded-retry"));
}

TEST(Rules, BoundedRetryClean) {
  EXPECT_FALSE(fires("src/proto/a.cpp",
                     R"__(void pump() {
  while (true) {
    if (attempts >= policy.max_attempts) break;
    send(msg);
    ++attempts;
  }
})__",
                     "unbounded-retry"));
}

TEST(Rules, HotContainerFiresInHotDirectories) {
  EXPECT_TRUE(fires("src/replacement/a.cpp",
                    R"__(std::unordered_map<int, int> m;)__", "hot-container"));
  EXPECT_TRUE(fires("src/ulc/a.cpp", R"__(std::list<int> l;)__",
                    "hot-container"));
}

TEST(Rules, HotContainerFiresInOrderStructures) {
  EXPECT_TRUE(fires("src/order/segmented_list.h",
                    R"__(std::unordered_map<Key, Node*> index_;)__", "hot-container"));
  EXPECT_TRUE(fires("src/order/a.cpp", R"__(std::list<int> l;)__",
                    "hot-container"));
  EXPECT_FALSE(fires("src/order/a.cpp", R"__(FlatMap<Key, SlabHandle> index_;)__",
                     "hot-container"));
}

TEST(Rules, HotContainerFiresInRuntime) {
  EXPECT_TRUE(fires("src/runtime/block_cache.h",
                    R"__(std::unordered_set<BlockId> dirty_;)__", "hot-container"));
  EXPECT_TRUE(fires("src/runtime/tier.cpp",
                    R"__(std::unordered_map<BlockId, std::size_t> slots_;)__",
                    "hot-container"));
  EXPECT_FALSE(fires("src/runtime/tier.cpp",
                     R"__(FlatMap<BlockId, std::uint32_t> slots_;)__",
                     "hot-container"));
  EXPECT_FALSE(fires("src/runtime/tier.cpp",
                     R"__(std::unordered_map<BlockId, Bytes> store_;  // ulc-lint: allow(hot-container))__",
                     "hot-container"));
}

TEST(Rules, HotContainerCleanOutsideAndForFlatStructures) {
  EXPECT_FALSE(fires("src/exp/a.cpp", R"__(std::unordered_map<int, int> m;)__",
                     "hot-container"));
  EXPECT_FALSE(fires("src/replacement/a.cpp", R"__(std::vector<int> v;)__",
                     "hot-container"));
}

TEST(Rules, CountCapacityFires) {
  EXPECT_TRUE(fires("src/replacement/a.cpp",
                    R"__(bool full() { return q.size() >= cap_; })__",
                    "count-capacity"));
  EXPECT_TRUE(fires("src/hierarchy/a.cpp",
                    R"__(bool over() { return budget < q.size(); })__",
                    "count-capacity"));
}

TEST(Rules, CountCapacityNearMissClean) {
  // Byte-occupancy comparisons and genuinely count-bounded limits are fine.
  EXPECT_FALSE(fires("src/replacement/a.cpp",
                     R"__(bool full() { return used_bytes >= cap_; }
bool trim() { return ghosts.size() > max_ghosts_; })__",
                     "count-capacity"));
}

// ---------- dangling-slab-handle --------------------------------------------

TEST(Rules, DanglingHandleFiresOnFindThenErase) {
  EXPECT_TRUE(fires("src/replacement/a.cpp",
                    R"__(FlatMap<int, int> m;
void f() {
  int* p = m.find(1);
  m.erase(2);
  if (p != nullptr) use(*p);
})__",
                    "dangling-slab-handle"));
}

TEST(Rules, DanglingHandleFiresOnUnreservedInsert) {
  EXPECT_TRUE(fires("src/replacement/a.cpp",
                    R"__(FlatMap<int, int> m;
void f() {
  int* p = m.find(1);
  m.insert(2, 3);
  use(*p);
})__",
                    "dangling-slab-handle"));
}

TEST(Rules, DanglingHandleReservedInsertClean) {
  // reserve() pins the table: inserts cannot rehash, handles stay valid.
  EXPECT_FALSE(fires("src/replacement/a.cpp",
                     R"__(FlatMap<int, int> m;
void setup() { m.reserve(128); }
void f() {
  int* p = m.find(1);
  m.insert(2, 3);
  use(*p);
})__",
                     "dangling-slab-handle"));
}

TEST(Rules, DanglingHandleFiresOnSlabFree) {
  EXPECT_TRUE(fires("src/replacement/a.cpp",
                    R"__(Slab<Node> slab_;
void f(SlabHandle h, SlabHandle g) {
  Node* n = slab_.get(h);
  slab_.free(g);
  n->x = 1;
})__",
                    "dangling-slab-handle"));
}

TEST(Rules, DanglingHandleFiresTransitively) {
  // The LIRS ghost-trim shape: find, then a helper whose callee erases.
  EXPECT_TRUE(fires("src/replacement/a.cpp",
                    R"__(FlatMap<int, int> m;
void drop_entry(int k) { m.erase(k); }
void evict_one() { drop_entry(7); }
void f() {
  int* p = m.find(1);
  evict_one();
  use(*p);
})__",
                    "dangling-slab-handle"));
}

TEST(Rules, DanglingHandleReacquireAfterMutationClean) {
  // The fixed LIRS shape: mutate first, acquire the pointer afterwards.
  EXPECT_FALSE(fires("src/replacement/a.cpp",
                     R"__(FlatMap<int, int> m;
void evict_one() { m.erase(7); }
void f() {
  evict_one();
  int* p = m.find(1);
  if (p != nullptr) use(*p);
})__",
                     "dangling-slab-handle"));
}

TEST(Rules, DanglingHandleEarlyReturnBranchClean) {
  // Invalidation on a branch that returns cannot reach the later use.
  EXPECT_FALSE(fires("src/replacement/a.cpp",
                     R"__(FlatMap<int, int> m;
void f(bool ghost) {
  int* p = m.find(1);
  if (ghost) {
    m.erase(1);
    return;
  }
  use(*p);
})__",
                     "dangling-slab-handle"));
}

TEST(Rules, DanglingHandleUseInReturnExpressionStillFires) {
  EXPECT_TRUE(fires("src/replacement/a.cpp",
                    R"__(FlatMap<int, int> m;
int f() {
  int* p = m.find(1);
  m.erase(2);
  return *p;
})__",
                    "dangling-slab-handle"));
}

TEST(Rules, DanglingHandleValueCopyClean) {
  // Copying the value out before mutating is the sanctioned pattern.
  EXPECT_FALSE(fires("src/replacement/a.cpp",
                     R"__(FlatMap<int, int> m;
void f() {
  int v = *m.find(1);
  m.erase(2);
  use(v);
})__",
                     "dangling-slab-handle"));
}

// ---------- narration-completeness ------------------------------------------

TEST(Rules, NarrationFiresOnSilentMutation) {
  EXPECT_TRUE(fires("src/hierarchy/a.cpp",
                    R"__(class S : public MultiLevelScheme {
 public:
  void access(int b) { audit_emit(kGet, b); map_.insert(b, 1); }
  void silent_drop(int b) { map_.erase(b); }
 private:
  FlatMap<int, int> map_;
};)__",
                    "narration-completeness"));
}

TEST(Rules, NarrationThroughHelperClean) {
  // Reaching audit_emit through a sibling member call counts as narrating.
  EXPECT_FALSE(fires("src/hierarchy/a.cpp",
                     R"__(class S : public MultiLevelScheme {
 public:
  void access(int b) { audit_emit(kGet, b); map_.insert(b, 1); }
  void drop(int b) { map_.erase(b); narrate_drop(b); }
 private:
  void narrate_drop(int b) { audit_emit(kEvict, b); }
  FlatMap<int, int> map_;
};)__",
                     "narration-completeness"));
}

TEST(Rules, NarrationOptedOutSchemeClean) {
  // A scheme with no audit plumbing at all (the OPT reference layout) is
  // covered by the auditor's statistics checks instead.
  EXPECT_FALSE(fires("src/hierarchy/a.cpp",
                     R"__(class Ref : public MultiLevelScheme {
 public:
  void rebuild(int b) { map_.erase(b); map_.insert(b, 1); }
 private:
  FlatMap<int, int> map_;
};)__",
                     "narration-completeness"));
}

TEST(Rules, NarrationConstAndNonSchemeClean) {
  // Const members cannot mutate; classes outside the scheme hierarchy and
  // files outside src/hierarchy + src/ulc are out of scope.
  EXPECT_FALSE(fires("src/hierarchy/a.cpp",
                     R"__(class S : public MultiLevelScheme {
 public:
  void access(int b) { audit_emit(kGet, b); map_.insert(b, 1); }
  int peek(int b) const { return lookup(map_, b); }
 private:
  FlatMap<int, int> map_;
};)__",
                     "narration-completeness"));
  EXPECT_FALSE(fires("src/util/a.cpp",
                     R"__(class Plain {
 public:
  void drop(int b) { map_.erase(b); }
  FlatMap<int, int> map_;
};)__",
                     "narration-completeness"));
}

// ---------- lock-order ------------------------------------------------------

TEST(Rules, LockOrderFiresOnNestedGuards) {
  EXPECT_TRUE(fires("src/runtime/a.cpp",
                    R"__(void Cache::move(int b) {
  std::lock_guard<std::mutex> a(from_.lock);
  std::lock_guard<std::mutex> c(to_.lock);
  transfer(b);
})__",
                    "lock-order"));
}

TEST(Rules, LockOrderOneGuardPerFunctionClean) {
  // The structural discipline: one guard per function, even across several
  // functions in one file, is exactly what the rule wants to see.
  EXPECT_FALSE(fires("src/runtime/a.cpp",
                     R"__(void Cache::read(int b) {
  std::lock_guard<std::mutex> guard(lock_);
  serve(b);
}
void Cache::write(int b) {
  std::unique_lock<std::mutex> guard(lock_);
  store(b);
})__",
                     "lock-order"));
}

TEST(Rules, LockOrderTypeMentionIsNotAConstruction) {
  // Naming the guard type (an alias, a template parameter) without
  // constructing one must not count toward the nesting.
  EXPECT_FALSE(fires("src/runtime/a.cpp",
                     R"__(using Guard = std::lock_guard;
void Cache::read(int b) {
  std::lock_guard<std::mutex> guard(lock_);
  serve(b);
})__",
                     "lock-order"));
}

TEST(Rules, LockOrderAllowMarkedWithOrderingComment) {
  // A documented global order is the sanctioned escape hatch.
  EXPECT_FALSE(fires("src/runtime/a.cpp",
                     R"__(void Cache::move(int b) {
  std::lock_guard<std::mutex> a(from_.lock);
  // Lock order: shards are always taken in ascending index order.
  std::lock_guard<std::mutex> c(to_.lock);  // ulc-lint: allow(lock-order)
  transfer(b);
})__",
                     "lock-order"));
}

TEST(Rules, LockOrderOutOfTreeClean) {
  // Only src/runtime carries the shard-lock discipline.
  EXPECT_FALSE(fires("src/proto/a.cpp",
                     R"__(void Sim::step() {
  std::lock_guard<std::mutex> a(x_);
  std::lock_guard<std::mutex> b(y_);
})__",
                     "lock-order"));
}

// ---------- raw-intrinsic ---------------------------------------------------

TEST(Rules, RawIntrinsicFiresOnSseOutsideSimdHeader) {
  EXPECT_TRUE(fires("src/util/flat_hash.h",
                    R"__(int mask(const unsigned char* p) {
  const __m128i g = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  return _mm_movemask_epi8(g);
})__",
                    "raw-intrinsic"));
}

TEST(Rules, RawIntrinsicFiresOnNeonAndPrefetchBuiltin) {
  EXPECT_TRUE(fires("src/ulc/uni_lru_stack.cpp",
                    R"__(void warm(const unsigned char* p) {
  uint8x16_t g = vld1q_u8(p);
  (void)g;
  __builtin_prefetch(p);
})__",
                    "raw-intrinsic"));
}

TEST(Rules, RawIntrinsicSimdHeaderIsTheSanctionedHome) {
  // util/simd.h owns the per-ISA policies; intrinsics there are the point.
  EXPECT_FALSE(fires("src/util/simd.h",
                     R"__(int mask(const unsigned char* p) {
  const __m128i g = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  return _mm_movemask_epi8(g);
})__",
                     "raw-intrinsic"));
}

TEST(Rules, RawIntrinsicNearMissIdentifiersClean) {
  // Wrapper names and NEON-shaped-but-ordinary identifiers stay clean: the
  // sanctioned prefetch_read wrapper, a lane-suffix lookalike without the
  // 'v' prefix, and a _t type without the MxN lane shape.
  EXPECT_FALSE(fires("src/ulc/ulc_client.cpp",
                     R"__(void touch(const void* p) {
  prefetch_read(p);
  int checksum_u32 = 0;
  uint_fast8_t small = 0;
  (void)checksum_u32;
  (void)small;
})__",
                     "raw-intrinsic"));
}

TEST(Rules, RawIntrinsicAllowMarkedClean) {
  EXPECT_FALSE(fires("src/util/slab.h",
                     R"__(void warm(const void* p) {
  __builtin_prefetch(p);  // ulc-lint: allow(raw-intrinsic)
})__",
                     "raw-intrinsic"));
}

// ---------- enum-switch -----------------------------------------------------

TEST(Rules, EnumSwitchFiresOnMissingEnumerator) {
  const Report r = lint_source("src/measures/a.cpp",
                               R"__(enum class Kind { kA, kB, kC };
const char* name(Kind k) {
  switch (k) {
    case Kind::kA: return "a";
    case Kind::kB: return "b";
  }
  return "?";
})__");
  ASSERT_TRUE(fires(r, "enum-switch"));
  // The message names what is missing.
  for (const Finding& f : r.findings) {
    if (f.rule == "enum-switch") {
      EXPECT_NE(f.message.find("kC"), std::string::npos);
    }
  }
}

TEST(Rules, EnumSwitchExhaustiveOrDefaultedClean) {
  EXPECT_FALSE(fires("src/measures/a.cpp",
                     R"__(enum class Kind { kA, kB };
int full(Kind k) {
  switch (k) {
    case Kind::kA: return 1;
    case Kind::kB: return 2;
  }
  return 0;
}
int defaulted(Kind k) {
  switch (k) {
    case Kind::kA: return 1;
    default: return 0;
  }
})__",
                     "enum-switch"));
}

TEST(Rules, EnumSwitchUnknownEnumClean) {
  // Switches over enums the linted set does not define make no claim.
  EXPECT_FALSE(fires("src/measures/a.cpp",
                     R"__(int f(std::errc e) {
  switch (e) {
    case std::errc::invalid_argument: return 1;
  }
  return 0;
})__",
                     "enum-switch"));
}

// ---------- include-layering ------------------------------------------------

class LayeringTest : public ::testing::Test {
 protected:
  Options opts_;
  void SetUp() override {
    opts_.layers_file = write_temp("lint_test_layers.txt",
                                   "util:\n"
                                   "trace: util\n"
                                   "tests: *\n");
  }
};

TEST_F(LayeringTest, FiresOnUndeclaredEdge) {
  EXPECT_TRUE(fires("src/util/b.h",
                    "#pragma once\n#include \"trace/types.h\"\n",
                    "include-layering", opts_));
}

TEST_F(LayeringTest, DeclaredEdgeAndSelfIncludeClean) {
  EXPECT_FALSE(fires("src/trace/t.h",
                     "#pragma once\n#include \"util/prng.h\"\n"
                     "#include \"trace/types.h\"\n",
                     "include-layering", opts_));
}

TEST_F(LayeringTest, WildcardModuleUnconstrained) {
  EXPECT_FALSE(fires("tests/a.cpp", "#include \"proto/reliable.h\"\n",
                     "include-layering", opts_));
}

TEST_F(LayeringTest, UnknownModuleIsItselfAFinding) {
  EXPECT_TRUE(fires("src/newmod/a.cpp", "int x;\n", "include-layering", opts_));
}

TEST(Rules, LayeringDisabledWithoutLayersFile) {
  EXPECT_FALSE(fires("src/util/b.h",
                     "#pragma once\n#include \"trace/types.h\"\n",
                     "include-layering"));
}

TEST(Layers, ParseRejectsMalformedLines) {
  std::vector<std::string> errors;
  const auto layers = parse_layers("util\ntrace: util\n", errors);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(layers.count("trace"), 1u);
}

// ---------- engine machinery ------------------------------------------------

TEST(Engine, SameLineAllowMarkerSuppresses) {
  const Report r = lint_source(
      "src/ulc/a.cpp",
      "int f() { return rand(); }  // ulc-lint: allow(determinism)\n");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed_count, 1u);
  EXPECT_TRUE(r.ok());
}

TEST(Engine, LineAboveAllowMarkerSuppresses) {
  const Report r = lint_source("src/ulc/a.cpp",
                               "// ulc-lint: allow(determinism)\n"
                               "int f() { return rand(); }\n");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed_count, 1u);
}

TEST(Engine, AllowMarkerListsSeveralRules) {
  const Report r = lint_source(
      "src/ulc/a.cpp",
      "int f() { return rand(); }  // ulc-lint: allow(wall-clock, determinism)\n");
  EXPECT_EQ(r.suppressed_count, 1u);
}

TEST(Engine, AllowMarkerForOtherRuleDoesNotSuppress) {
  const Report r = lint_source(
      "src/ulc/a.cpp",
      "int f() { return rand(); }  // ulc-lint: allow(float-eq)\n");
  EXPECT_EQ(r.error_count, 1u);
}

TEST(Engine, BaselineSuppressesAndReportsStaleEntries) {
  Options opts;
  opts.baseline_file = write_temp("lint_test_baseline.txt",
                                  "# known findings\n"
                                  "src/ulc/a.cpp:2:determinism\n"
                                  "src/ulc/a.cpp:99:float-eq\n");
  const Report r = lint_source("src/ulc/a.cpp",
                               "int before;\n"
                               "int f() { return rand(); }\n", opts);
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.baselined_count, 1u);
  ASSERT_EQ(r.unused_baseline.size(), 1u);
  EXPECT_EQ(r.unused_baseline[0], "src/ulc/a.cpp:99:float-eq");
}

TEST(Engine, WarnDemotionKeepsExitClean) {
  Options opts;
  opts.warn_rules.insert("determinism");
  const Report r =
      lint_source("src/ulc/a.cpp", "int f() { return rand(); }\n", opts);
  EXPECT_EQ(r.error_count, 0u);
  EXPECT_EQ(r.warning_count, 1u);
  EXPECT_TRUE(r.ok());
}

TEST(Engine, RootMakesPathsRelative) {
  Options opts;
  opts.root = "/fake/repo";
  const Report r = lint_source("/fake/repo/src/ulc/a.cpp",
                               "int f() { return rand(); }\n", opts);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].path, "src/ulc/a.cpp");
}

TEST(Engine, JsonOutputCarriesFindings) {
  const Report r =
      lint_source("src/ulc/a.cpp", "int f() { return rand(); }\n");
  const std::string doc = Engine::render_json(r);
  EXPECT_NE(doc.find("\"rule\": \"determinism\""), std::string::npos);
  EXPECT_NE(doc.find("\"path\": \"src/ulc/a.cpp\""), std::string::npos);
  EXPECT_NE(doc.find("\"errors\": 1"), std::string::npos);
}

TEST(Engine, JsonEscapesQuotesInMessages) {
  Finding f;
  f.path = "a\"b.cpp";
  f.line = 1;
  f.col = 1;
  f.rule = "determinism";
  f.message = "says \"hi\"\nnewline";
  Report r;
  r.findings.push_back(f);
  r.error_count = 1;
  const std::string doc = Engine::render_json(r);
  EXPECT_NE(doc.find("a\\\"b.cpp"), std::string::npos);
  EXPECT_NE(doc.find("\\\"hi\\\"\\nnewline"), std::string::npos);
}

TEST(Engine, SiblingHeaderTypesFeedUnorderedIteration) {
  // The container is declared in the header; the .cpp iterates it.
  Engine engine((Options()));
  engine.add_source("src/exp/pair.h",
                    "#pragma once\nstd::unordered_map<int, int> m;\n");
  engine.add_source("src/exp/pair.cpp",
                    "void f() { for (auto& kv : m) { use(kv); } }\n");
  const Report r = engine.run();
  EXPECT_TRUE(fires(r, "unordered-iteration"));
}

}  // namespace
}  // namespace ulc::lint
