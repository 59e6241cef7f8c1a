// serve_hot and serve_churn: ServingRuntime driven in a closed loop through
// its public read/write calls only.
//
// Set-up (timed as setup_s, repeated and reported as a median) generates
// every request stream, builds the runtime over a RAM-backed origin, and
// replays a warm-up stream on one thread until the cache is full. The timed
// region then runs `client_threads` closed-loop clients for --seconds; each
// request is timed call-to-return into preallocated exact recorders and every
// read is checked against the self-verifying payloads (payload.h).
#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <thread>

#include "payload.h"
#include "runtime/serving.h"
#include "util/flat_hash.h"
#include "util/prng.h"
#include "workloads.h"
#include "workloads/synthetic.h"

namespace perfbench {

std::uint64_t ServingWorkload::footprint() const {
  return traffic == Traffic::kZipf ? zipf_blocks : ulc::streaming_footprint(streaming);
}

const ServingWorkload& serve_hot_workload() {
  static const ServingWorkload w = [] {
    ServingWorkload s;
    s.name = "serve_hot";
    s.traffic = Traffic::kZipf;
    s.zipf_blocks = 64 * 1024;
    s.zipf_theta = 0.9;
    s.write_frac = 0.05;
    s.ram_blocks_total = 32 * 1024;
    s.near_blocks_total = 32 * 1024;
    return s;
  }();
  return w;
}

const ServingWorkload& serve_churn_workload() {
  static const ServingWorkload w = [] {
    ServingWorkload s;
    s.name = "serve_churn";
    s.traffic = Traffic::kStreaming;
    s.streaming.n_titles = 2000;
    s.streaming.churn_period = 500;
    s.streaming.layout_seed = s.layout_seed;
    s.write_frac = 0.30;
    s.ram_blocks_total = 2 * 1024;
    s.near_blocks_total = 8 * 1024;
    return s;
  }();
  return w;
}

std::vector<std::uint64_t> generate_stream(const ServingWorkload& w, std::uint64_t seed,
                                           std::uint64_t stream_id, std::size_t n) {
  ulc::PatternPtr source;
  if (w.traffic == Traffic::kZipf) {
    source = ulc::make_zipf_source(0, w.zipf_blocks, w.zipf_theta, /*scramble=*/true,
                                   /*scramble_seed=*/w.layout_seed);
  } else {
    source = ulc::make_streaming_source(w.streaming);
  }
  ulc::Rng rng(ulc::splitmix64_mix(seed) ^ (0x5eed0000ULL + stream_id));
  std::vector<std::uint64_t> ops(n);
  for (std::uint64_t& op : ops) {
    const std::uint64_t block = source->next(rng);
    op = rng.next_bool(w.write_frac) ? (block | kWriteBit) : block;
  }
  return ops;
}

namespace {

constexpr std::size_t kStreamLength = std::size_t{1} << 20;  // per client, replayed cyclically
constexpr double kIntervalSeconds = 0.25;
constexpr std::uint64_t kSpanSampleEvery = 32;  // traced run: spans for 1 request in 32
constexpr std::uint32_t kWarmupWriter = 1;

// One closed-loop client: its stream, its verification state and its
// preallocated recorders.
struct alignas(64) Client {
  std::uint32_t writer = 0;
  const std::vector<std::uint64_t>* stream = nullptr;
  std::size_t cursor = 0;
  std::uint64_t next_seq = 1;
  std::vector<std::uint64_t> own_seq;  // per block: seq of this writer's last write
  std::vector<std::byte> buf;
  LatencyRecorder reads;   // call-to-return ns, exact
  LatencyRecorder writes;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  SpanRecorder spans;
  alignas(64) std::atomic<std::uint64_t> progress{0};
};

struct Fixture {
  const ServingWorkload* w = nullptr;
  std::unique_ptr<ulc::Origin> backing;
  std::unique_ptr<ulc::ServingRuntime> runtime;
  std::vector<std::uint64_t> warm;                   // warm-up stream
  std::vector<std::vector<std::uint64_t>> streams;   // one per client
  std::unique_ptr<std::atomic<std::uint8_t>[]> written;  // per block, ever written
  std::uint64_t footprint = 0;
  double synth_s = 0.0;
  double setup_s = 0.0;
  std::uint64_t warm_ops = 0;
  std::uint64_t warm_failed = 0;
  std::string warm_failure;
  std::size_t warm_distinct = 0;
};

void client_fail(Client& c, const std::string& what) {
  if (c.failed++ == 0) c.first_failure = what;
}

// Checks one read result against what this client knows.
void check_read(Client& c, std::uint64_t block, bool was_written) {
  Version v;
  switch (check_payload(c.buf, block, &v)) {
    case PayloadCheck::kCorrupt:
      client_fail(c, strprintf("block %llu: corrupt payload",
                               static_cast<unsigned long long>(block)));
      return;
    case PayloadCheck::kZero:
      if (was_written || c.own_seq[block] != 0)
        client_fail(c, strprintf("block %llu: written block read as zeroes",
                                 static_cast<unsigned long long>(block)));
      return;
    case PayloadCheck::kValid:
      // A payload of this writer must be its latest write to the block: any
      // other writer's version may have replaced it since, but never an
      // older version of its own.
      if (v.writer == c.writer && v.seq != c.own_seq[block])
        client_fail(c, strprintf("block %llu: stale version %llu (last written %llu)",
                                 static_cast<unsigned long long>(block),
                                 static_cast<unsigned long long>(v.seq),
                                 static_cast<unsigned long long>(c.own_seq[block])));
      return;
  }
}

// Issues one request. `spans` is non-null for requests sampled by the
// traced run.
struct SpanIds {
  std::uint32_t request = 0, read = 0, write = 0, fill = 0, verify = 0;
};

void do_op(Fixture& f, Client& c, std::uint64_t op, SpanRecorder* spans,
           const SpanIds& ids, std::uint64_t request_id) {
  const std::uint64_t block = op_block(op);
  ulc::ServingRuntime& rt = *f.runtime;
  const std::uint32_t root =
      spans != nullptr ? spans->open(ids.request, request_id) : Span::kNoParent;
  try {
    if (op_is_write(op)) {
      const std::uint64_t seq = c.next_seq++;
      const std::uint64_t f0 = now_ns();
      fill_payload(c.buf, block, Version{c.writer, seq});
      const std::uint64_t t0 = now_ns();
      rt.write(block, c.buf);
      const std::uint64_t t1 = now_ns();
      c.writes.record(t1 - t0);
      f.written[block].store(1, std::memory_order_release);
      c.own_seq[block] = seq;
      if (spans != nullptr) {
        spans->add(ids.fill, request_id, f0, t0, root);
        spans->add(ids.write, request_id, t0, t1, root);
      }
    } else {
      const bool was_written = f.written[block].load(std::memory_order_acquire) != 0;
      const std::uint64_t t0 = now_ns();
      rt.read(block, c.buf);
      const std::uint64_t t1 = now_ns();
      c.reads.record(t1 - t0);
      check_read(c, block, was_written);
      if (spans != nullptr) {
        spans->add(ids.read, request_id, t0, t1, root);
        spans->add(ids.verify, request_id, t1, now_ns(), root);
      }
    }
  } catch (const std::exception& e) {
    client_fail(c, strprintf("block %llu: exception: %s",
                             static_cast<unsigned long long>(block), e.what()));
  }
  if (spans != nullptr) spans->close(root);
  ++c.ops;
}

void init_client(Client& c, const Fixture& f, std::uint32_t writer,
                 const std::vector<std::uint64_t>* stream) {
  c.writer = writer;
  c.stream = stream;
  c.own_seq.assign(f.footprint, 0);
  c.buf.assign(f.w->block_size, std::byte{0});
}

std::unique_ptr<Fixture> set_up(const ServingWorkload& w, std::uint64_t seed,
                                const OriginWrapper& wrap_origin) {
  const std::uint64_t t0 = now_ns();
  auto f = std::make_unique<Fixture>();
  f->w = &w;
  f->footprint = w.footprint();
  const std::size_t capacity = w.ram_blocks_total + w.near_blocks_total;
  // The warm-up replays the stream until the cache is full: until it has
  // referenced as many distinct blocks as the cache holds. When the whole
  // footprint fits (serve_hot), the last blocks of the Zipf tail would take
  // millions of requests to reach, so the warm-up first reads every block
  // once in a seeded order, which fills the cache, and then replays four
  // cache-fulls of the stream so the hot set settles.
  const bool fits = f->footprint <= capacity;

  const std::uint64_t g0 = now_ns();
  if (fits) {
    f->warm.resize(f->footprint);
    for (std::uint64_t b = 0; b < f->footprint; ++b) f->warm[b] = b;
    ulc::Rng rng(ulc::splitmix64_mix(seed) ^ 0x5ca9ULL);
    for (std::uint64_t i = f->footprint; i > 1; --i)
      std::swap(f->warm[i - 1], f->warm[rng.next_below(i)]);
  }
  const std::vector<std::uint64_t> replay =
      generate_stream(w, seed, 0, (fits ? 4 : 8) * capacity);
  f->warm.insert(f->warm.end(), replay.begin(), replay.end());
  for (std::size_t t = 0; t < w.client_threads; ++t)
    f->streams.push_back(generate_stream(w, seed, t + 1, kStreamLength));
  f->synth_s = seconds_since(g0);

  f->written = std::make_unique<std::atomic<std::uint8_t>[]>(f->footprint);
  for (std::uint64_t b = 0; b < f->footprint; ++b) f->written[b].store(0);

  std::unique_ptr<ulc::Origin> origin = ulc::make_memory_origin(w.block_size);
  f->backing = wrap_origin ? wrap_origin(std::move(origin)) : std::move(origin);
  ulc::ServingConfig cfg;
  cfg.cache_shards = w.cache_shards;
  cfg.per_shard.block_size = w.block_size;
  cfg.per_shard.memory_blocks = w.ram_blocks_total / w.cache_shards;
  cfg.near_blocks_per_shard = w.near_blocks_total / w.cache_shards;
  cfg.enable_directory = true;
  cfg.directory.shards = w.directory_shards;
  f->runtime = std::make_unique<ulc::ServingRuntime>(cfg, *f->backing);

  Client warm;
  init_client(warm, *f, kWarmupWriter, &f->warm);
  std::vector<std::uint8_t> seen(f->footprint, 0);
  const SpanIds none;
  for (std::uint64_t op : f->warm) {
    const std::uint64_t block = op_block(op);
    if (seen[block] == 0) {
      seen[block] = 1;
      ++f->warm_distinct;
    }
    do_op(*f, warm, op, nullptr, none, 0);
    if (!fits && f->warm_distinct >= capacity) break;
  }
  f->runtime->drain();
  f->warm_ops = warm.ops;
  f->warm_failed = warm.failed;
  f->warm_failure = warm.first_failure;
  f->setup_s = seconds_since(t0);
  return f;
}

struct PhaseResult {
  double ops_per_s = 0.0;
  double seconds = 0.0;
  std::uint64_t ops = 0;
  double cpu_s = 0.0;
  LatencyRecorder reads, writes;  // merged over the clients
  std::vector<double> rates;      // requests/s per interval
  double steal = 0.0;             // host CPU share stolen meanwhile
  ulc::BlockCacheStats before, after;
  ulc::DirectoryStats dir_before, dir_after;
  std::uint64_t failed = 0;
  std::string first_failure;
  std::vector<std::uint64_t> shard_ops;
  std::vector<const SpanRecorder*> spans;

  double mean_ns() const {
    const double n = static_cast<double>(reads.count() + writes.count());
    return n > 0 ? (reads.mean_ns() * reads.count() + writes.mean_ns() * writes.count()) / n
                 : 0.0;
  }
};

// Runs `threads` closed-loop clients for `seconds`, sampling progress every
// kIntervalSeconds. With `ids` set, every kSpanSampleEvery-th request of
// each client records spans.
void run_phase(Fixture& f, std::vector<std::unique_ptr<Client>>& clients,
               std::size_t threads, double seconds, const SpanIds* ids,
               PhaseResult& out) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  std::vector<std::size_t> cursor_before;
  for (std::size_t t = 0; t < threads; ++t) {
    Client& c = *clients[t];
    c.reads.clear();
    c.writes.clear();
    c.ops = 0;
    c.progress.store(0);
    cursor_before.push_back(c.cursor);
    workers.emplace_back([&f, &c, &go, &stop, ids] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const std::vector<std::uint64_t>& stream = *c.stream;
      const SpanIds none;
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t op = stream[c.cursor];
        if (++c.cursor == stream.size()) c.cursor = 0;
        SpanRecorder* spans =
            ids != nullptr && i % kSpanSampleEvery == 0 ? &c.spans : nullptr;
        do_op(f, c, op, spans, ids != nullptr ? *ids : none,
              (std::uint64_t{c.writer} << 48) | i);
        c.progress.store(++i, std::memory_order_release);
      }
    });
  }
  out.before = f.runtime->cache().stats();
  if (f.runtime->directory() != nullptr) out.dir_before = f.runtime->directory()->stats();
  const double cpu0 = process_cpu_seconds();
  const CpuTicks ticks0 = cpu_ticks();
  const std::uint64_t start = now_ns();
  go.store(true, std::memory_order_release);

  // ticks[k][t]: requests client t had completed at the end of interval k.
  std::vector<std::vector<std::uint64_t>> ticks{std::vector<std::uint64_t>(threads, 0)};
  std::vector<std::uint64_t> tick_ns{start};
  for (;;) {
    const double elapsed = seconds_since(start);
    if (elapsed >= seconds) break;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::min(kIntervalSeconds, seconds - elapsed)));
    std::vector<std::uint64_t> done(threads);
    for (std::size_t t = 0; t < threads; ++t)
      done[t] = clients[t]->progress.load(std::memory_order_acquire);
    ticks.push_back(std::move(done));
    tick_ns.push_back(now_ns());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : workers) w.join();
  out.seconds = seconds_since(start);
  out.cpu_s = process_cpu_seconds() - cpu0;
  out.steal = steal_share(ticks0, cpu_ticks());
  out.after = f.runtime->cache().stats();
  f.runtime->drain();
  if (f.runtime->directory() != nullptr) out.dir_after = f.runtime->directory()->stats();

  for (std::size_t k = 1; k < ticks.size(); ++k) {
    std::uint64_t n = 0;
    for (std::size_t t = 0; t < threads; ++t) n += ticks[k][t] - ticks[k - 1][t];
    // A short last interval says little about the rate; skip it.
    const double dt = static_cast<double>(tick_ns[k] - tick_ns[k - 1]) * 1e-9;
    if (dt < kIntervalSeconds / 2 || n == 0) continue;
    out.rates.push_back(static_cast<double>(n) / dt);
  }

  out.ops = 0;
  out.shard_ops.assign(f.w->cache_shards, 0);
  for (std::size_t t = 0; t < threads; ++t) {
    Client& c = *clients[t];
    out.ops += c.ops;
    out.reads.merge(c.reads);
    out.writes.merge(c.writes);
    out.failed += c.failed;
    if (out.first_failure.empty()) out.first_failure = c.first_failure;
    c.failed = 0;
    c.first_failure.clear();
    // Shard load, recovered from the replayed stream positions (keeps the
    // routing lookup out of the timed path).
    std::size_t pos = cursor_before[t];
    for (std::uint64_t i = 0; i < c.ops; ++i) {
      ++out.shard_ops[f.runtime->cache().shard_of(op_block((*c.stream)[pos]))];
      if (++pos == c.stream->size()) pos = 0;
    }
    if (ids != nullptr) out.spans.push_back(&c.spans);
  }
  out.ops_per_s =
      out.rates.empty() ? static_cast<double>(out.ops) / out.seconds : median(out.rates);
}

// Runs the same client loop against no runtime at all: payload fill,
// timing, recording and the payload check, with reads returning zeroes.
double null_driver_ns(const Fixture& f, std::size_t requests) {
  Client c;
  init_client(c, f, 2, &f.streams[0]);
  std::uint64_t sink = 0;
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0; i < requests; ++i) {
    const std::uint64_t op = (*c.stream)[i % c.stream->size()];
    const std::uint64_t block = op_block(op);
    if (op_is_write(op)) {
      fill_payload(c.buf, block, Version{c.writer, c.next_seq++});
      const std::uint64_t t0 = now_ns();
      c.writes.record(now_ns() - t0);
    } else {
      sink += f.written[block].load(std::memory_order_acquire);
      const std::uint64_t t0 = now_ns();
      std::memset(c.buf.data(), 0, c.buf.size());
      c.reads.record(now_ns() - t0);
      Version v;
      sink += static_cast<std::uint64_t>(check_payload(c.buf, block, &v));
    }
  }
  const double ns = static_cast<double>(now_ns() - start) / static_cast<double>(requests);
  return sink == ~std::uint64_t{0} ? 0.0 : ns;  // keeps `sink` observable
}

double frac(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

WorkloadResult run_serving(const ServingWorkload& w, const RunOptions& opt,
                           const OriginWrapper& wrap_origin) {
  WorkloadResult res;
  res.workload = w.name;

  std::vector<double> setup_samples, synth_samples;
  std::unique_ptr<Fixture> f;
  double setup_total_s = 0.0;
  while (another_setup(setup_samples.size(), setup_total_s)) {
    f.reset();  // tear the previous runtime down before building the next
    f = set_up(w, opt.seed, wrap_origin);
    setup_samples.push_back(f->setup_s);
    setup_total_s += f->setup_s;
    synth_samples.push_back(f->synth_s);
    res.attempted += f->warm_ops;
    for (std::uint64_t k = 0; k < f->warm_failed; ++k) res.fail("warm-up: " + f->warm_failure);
  }
  res.note(strprintf("setup: %zu repeats, warm-up %llu requests touching %zu distinct blocks "
                     "(capacity %zu, footprint %llu)",
                     setup_samples.size(), static_cast<unsigned long long>(f->warm_ops),
                     f->warm_distinct, w.ram_blocks_total + w.near_blocks_total,
                     static_cast<unsigned long long>(f->footprint)));

  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t t = 0; t < w.client_threads; ++t) {
    clients.push_back(std::make_unique<Client>());
    init_client(*clients.back(), *f, static_cast<std::uint32_t>(2 + t), &f->streams[t]);
  }

  // A traced run splits --seconds between the untraced and the traced
  // region (their ratio is bench.trace_overhead_frac) and adds a quarter for
  // the 1-client region, so it costs about as much as an untraced run.
  const double phase_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  PhaseResult main_phase;
  run_phase(*f, clients, w.client_threads, phase_s, nullptr, main_phase);
  res.attempted += main_phase.ops;
  for (std::uint64_t k = 0; k < main_phase.failed; ++k) res.fail(main_phase.first_failure);

  const ulc::BlockCacheStats& a = main_phase.after;
  const ulc::BlockCacheStats& b = main_phase.before;
  const std::uint64_t reads = a.reads - b.reads;
  const std::uint64_t writes = a.writes - b.writes;
  const std::uint64_t ops = reads + writes;
  res.note(strprintf("interval rates (1/s): min %.0f p10 %.0f p50 %.0f p90 %.0f max %.0f over %zu intervals",
                     percentile(main_phase.rates, 0), percentile(main_phase.rates, 10),
                     percentile(main_phase.rates, 50), percentile(main_phase.rates, 90),
                     percentile(main_phase.rates, 100), main_phase.rates.size()));
  res.note(strprintf("timed: %.2f s (host steal %.1f%%), %llu requests (%llu reads, %llu writes) "
                     "on %zu clients",
                     main_phase.seconds, 100.0 * main_phase.steal,
                     static_cast<unsigned long long>(main_phase.ops),
                     static_cast<unsigned long long>(main_phase.reads.count()),
                     static_cast<unsigned long long>(main_phase.writes.count()),
                     w.client_threads));
  if (ops != main_phase.ops) res.fail("cache counters do not reconcile with requests issued");

  const double miss_ratio = frac(a.origin_reads - b.origin_reads, reads);
  const double origin_writes_per_write = frac(a.writebacks - b.writebacks, writes);

  if (!opt.trace) {
    res.add("setup_s", median(setup_samples), "s");
    res.add("ops_per_s", main_phase.ops_per_s, "1/s");
    res.add("read_p50_us", main_phase.reads.percentile_ns(50) * 1e-3, "us");
    res.add("read_p99_us", main_phase.reads.percentile_ns(99) * 1e-3, "us");
    res.add("write_p50_us", main_phase.writes.percentile_ns(50) * 1e-3, "us");
    res.add("write_p99_us", main_phase.writes.percentile_ns(99) * 1e-3, "us");
    res.add("miss_ratio", miss_ratio, "ratio");
    res.add("cpu_us_per_op", main_phase.cpu_s * 1e6 / static_cast<double>(main_phase.ops), "us");
    res.add("peak_rss_mb", peak_rss_mib(), "MiB");
    res.note(strprintf("samples: %llu reads, %llu writes; origin_writes_per_write %.4f",
                       static_cast<unsigned long long>(main_phase.reads.count()),
                       static_cast<unsigned long long>(main_phase.writes.count()),
                       origin_writes_per_write));
    return res;
  }

  // ---- Traced run: per-layer metrics ----
  SpanNames names;
  SpanIds ids;
  ids.request = names.intern("client.request");
  ids.read = names.intern("runtime.read");
  ids.write = names.intern("runtime.write");
  ids.fill = names.intern("bench.fill_payload");
  ids.verify = names.intern("bench.verify");
  const std::size_t span_capacity = 1 << 19;
  for (auto& c : clients) c->spans = SpanRecorder(span_capacity);

  PhaseResult traced;
  run_phase(*f, clients, w.client_threads, phase_s, &ids, traced);
  res.attempted += traced.ops;
  for (std::uint64_t k = 0; k < traced.failed; ++k) res.fail(traced.first_failure);

  PhaseResult single;
  run_phase(*f, clients, 1, std::max(1.0, opt.seconds / 4), nullptr, single);
  res.attempted += single.ops;
  for (std::uint64_t k = 0; k < single.failed; ++k) res.fail(single.first_failure);
  const double mean1 = single.mean_ns();
  const double mean2 = main_phase.mean_ns();

  // In-workload counts (deltas over the untraced timed region).
  std::uint64_t events = 0, waits = 0, max_depth = 0;
  for (std::size_t s = 0; s < main_phase.dir_after.shards.size(); ++s) {
    const ulc::MpscStats& qa = main_phase.dir_after.shards[s].queue;
    const ulc::MpscStats qb = s < main_phase.dir_before.shards.size()
                                  ? main_phase.dir_before.shards[s].queue
                                  : ulc::MpscStats{};
    events += qa.enqueued - qb.enqueued;
    waits += qa.producer_waits - qb.producer_waits;
    max_depth = std::max(max_depth, qa.max_depth);
  }
  const double shard_max = static_cast<double>(
      *std::max_element(main_phase.shard_ops.begin(), main_phase.shard_ops.end()));
  const double shard_mean = static_cast<double>(main_phase.ops) / static_cast<double>(w.cache_shards);

  // Per-layer replays of this workload's own requests.
  SpanRecorder layer_spans(1 << 12);
  LayerInputs in;
  {
    auto single_trace = std::make_shared<ulc::Trace>(w.name);
    auto multi_trace = std::make_shared<ulc::Trace>(w.name + "-multi");
    const std::size_t n = f->streams[0].size();
    single_trace->reserve(n);
    multi_trace->reserve(n);
    for (std::uint64_t op : f->streams[0])
      single_trace->add(op_block(op), 0, op_is_write(op) ? ulc::Op::kWrite : ulc::Op::kRead);
    for (std::size_t i = 0; i < n / 2; ++i) {
      for (std::size_t t = 0; t < 2 && t < f->streams.size(); ++t) {
        const std::uint64_t op = f->streams[t][i];
        multi_trace->add(op_block(op), static_cast<ulc::ClientId>(t),
                         op_is_write(op) ? ulc::Op::kWrite : ulc::Op::kRead);
      }
    }
    in.single = single_trace;
    in.multi = multi_trace;
    in.multi_clients = std::min<std::size_t>(2, f->streams.size());
    in.multi_client_cap = w.ram_blocks_total / in.multi_clients;
    in.multi_server_cap = w.near_blocks_total;
    in.caps = {w.ram_blocks_total, w.near_blocks_total};
    in.shard_ram_blocks = w.ram_blocks_total / w.cache_shards;
    in.shard_near_blocks = w.near_blocks_total / w.cache_shards;
    in.block_size = w.block_size;
    ulc::ServingRuntime* rt = f->runtime.get();
    in.in_shard0 = [rt](std::uint64_t block) { return rt->cache().shard_of(block) == 0; };
  }
  measure_layers(in, 0.5, names, layer_spans, res, /*add_runtime_counts=*/false);

  // Reconciliation: isolated per-class cache costs weighted by the 1-thread
  // run's own class counts, plus the directory queue hop per event, over
  // the measured 1-thread per-request time.
  {
    const ulc::BlockCacheStats& sa = single.after;
    const ulc::BlockCacheStats& sb = single.before;
    const double s_reads = static_cast<double>(sa.reads - sb.reads);
    const double s_writes = static_cast<double>(sa.writes - sb.writes);
    const double near_reads = static_cast<double>(sa.near_hits - sb.near_hits);
    const double miss_reads = static_cast<double>(sa.origin_reads - sb.origin_reads);
    // near_hits also counts writes that found the block in the near tier;
    // attribute near hits to reads in proportion.
    const double near_read_share = s_reads + s_writes > 0 ? s_reads / (s_reads + s_writes) : 0.0;
    const double near_r = near_reads * near_read_share;
    const double hit_r = std::max(0.0, s_reads - near_r - miss_reads);
    std::uint64_t s_events = 0;
    for (std::size_t s = 0; s < single.dir_after.shards.size(); ++s)
      s_events += single.dir_after.shards[s].queue.enqueued -
                  (s < single.dir_before.shards.size() ? single.dir_before.shards[s].queue.enqueued : 0);
    const double layer_ns = hit_r * res.value("runtime.cache.read_hit_ns") +
                            near_r * res.value("runtime.cache.read_near_ns") +
                            miss_reads * res.value("runtime.cache.read_miss_ns") +
                            s_writes * res.value("runtime.cache.write_ns") +
                            static_cast<double>(s_events) * res.value("util.mpsc.push_pop_ns");
    const double e2e_ns = mean1 * static_cast<double>(single.ops);
    res.add("runtime.layer_sum_over_e2e", e2e_ns > 0 ? layer_ns / e2e_ns : 0.0, "ratio");
  }

  res.add("runtime.memory_hit_ratio", frac(a.memory_hits - b.memory_hits, ops), "ratio");
  res.add("runtime.near_hit_ratio", frac(a.near_hits - b.near_hits, ops), "ratio");
  res.add("runtime.demotions_per_op", frac(a.demotions - b.demotions, ops), "ratio");
  res.add("runtime.writebacks_per_op", frac(a.writebacks - b.writebacks, ops), "ratio");
  res.add("runtime.origin_writes_per_write", origin_writes_per_write, "ratio");
  res.add("runtime.directory.events_per_op", frac(events, ops), "ratio");
  res.add("runtime.directory.producer_waits", static_cast<double>(waits), "count");
  res.add("runtime.directory.max_depth", static_cast<double>(max_depth), "count");
  res.add("runtime.shard_load_max_over_mean", shard_mean > 0 ? shard_max / shard_mean : 0.0, "ratio");
  res.add("runtime.contention_ns", mean2 - mean1, "ns");
  res.add("workloads.synth_s", median(synth_samples), "s");
  res.add("bench.driver_overhead_ns", null_driver_ns(*f, 1 << 18), "ns");
  res.add("bench.trace_overhead_frac",
          main_phase.ops_per_s > 0 ? 1.0 - traced.ops_per_s / main_phase.ops_per_s : 0.0, "ratio");

  std::vector<const SpanRecorder*> all = traced.spans;
  all.push_back(&layer_spans);
  for (const SpanSummary& s : summarize_spans(names, all)) {
    if (s.count == 0) continue;
    res.note(strprintf("span %-28s count %10llu  mean %10.1f ns  self %10.1f ns", s.name.c_str(),
                       static_cast<unsigned long long>(s.count), s.total_ns / s.count,
                       s.self_ns / s.count));
  }
  const std::string path =
      output_dir() + "/spans-" + w.name + "-" + std::to_string(opt.seed) + ".json";
  if (write_span_file(path, names, all, 2000)) res.note("spans written to " + path);
  return res;
}

}  // namespace perfbench
