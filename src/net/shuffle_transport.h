// Real-socket shuffle data plane: a multi-reactor epoll TCP server serving
// sealed map-output partitions and a pipelined, adaptive fetch client.
//
// The functional engine's default shuffle moves bytes by pointer inside the
// process and prices transfers with a hand-set latency/bandwidth model. With
// JobConf.shuffle_transport = kTcp the LocalJobRunner instead publishes each
// committed map output to a ShuffleTransportServer listening on loopback and
// fetches every partition through a ShuffleTransportClient over real TCP —
// the paper's measured-network posture, byte-identical output guaranteed by
// the same CRC-sealed partition contract.
//
// Protocols. The server speaks both wire protocols on one port, dispatching
// on the request magic:
//   v1 ('MRSF') — one blocking request/response round trip per partition.
//   v2 ('MRF2') — one batch request carries many wants; the server streams
//     the responses back in order with per-entry status, so a stale
//     generation or data-loss on one member never fails the batch.
//
// Reactor sharding. Accepted connections are handed round-robin to
// `reactors` epoll threads; each reactor owns its connections outright, so
// the data path never contends across reactors — only the registration
// table and the stats block are shared (and briefly locked). Every
// connection keeps a vectored send queue: pending entry headers and
// RAM-resident bodies coalesce into single writev calls, and adjacent
// extent byte ranges coalesce into single sendfile calls.
//
// Zero-copy serving. The server never re-frames or re-checksums sealed
// bytes on the hot path:
//   - RAM-resident segments: writev of [entry header | the sealed partition
//     bytes SpillSegment::PartitionData returns], anchored by a shared_ptr
//     so the view outlives the write.
//   - Durable extents: the partition's contiguous on-disk byte range —
//     length-prefixed block-codec frames exactly as StoredSpill wrote them —
//     is shipped with sendfile(2) (pread+write fallback) straight from the
//     extent file. The client reassembles and CRC-verifies each frame with
//     BlockDecompress, so integrity checking rides the existing per-frame
//     checksums at the receiving end.
//
// Adaptive client. FetchBatch pipelines a batch of wants over one pooled
// persistent connection under an AIMD in-flight window: the window grows by
// one entry per clean response (up to `window_max`) and halves on any
// transport failure or timeout, with un-received entries re-requested on a
// fresh connection (counted as retransmits). Received bodies land in a
// reusable buffer pool — callers return buffers via RecycleBuffer once
// decoded — killing per-fetch allocation churn; the pool hit rate is
// reported in the client stats. A v2 client that twice sees its opening
// batch die without a single response byte concludes the server is
// v1-only and permanently falls back to single-fetch mode.
//
// Error mapping. Socket errors, torn length prefixes, and short bodies
// surface as kIOError (v1) or per-entry transport_ok=false after retries
// (v2); frame/partition CRC mismatches surface as kDataLoss (counted as
// corruption, triggering generation-tracked map re-execution); a stale
// generation is a clean kStaleGeneration reply, not an error.
//
// Threading. Publish may be called from any task thread. The client is
// thread-safe: concurrent Fetch/FetchBatch calls multiplex over at most
// `parallel_streams` persistent connections with a byte-budgeted admission
// gate bounding in-flight body bytes.

#ifndef MRMB_NET_SHUFFLE_TRANSPORT_H_
#define MRMB_NET_SHUFFLE_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "io/kv_buffer.h"
#include "io/spill_store.h"
#include "rpc/shuffle_wire.h"

namespace mrmb {

// Transport-level faults a server-side hook can inject on a fetch.
enum class TransportFault {
  kNone,
  kDropConn,    // close the connection before any response bytes
  kTruncFrame,  // send the header and a truncated body, then close
};

struct ShuffleServerStats {
  int64_t fetches_served = 0;  // entries answered (v1 responses + v2 entries)
  int64_t bytes_sent = 0;      // header + body bytes actually written
  int64_t ram_serves = 0;
  int64_t file_serves = 0;
  int64_t stale_refused = 0;
  int64_t not_found = 0;
  int64_t data_loss = 0;
  int64_t faults_injected = 0;
  int64_t accepted_connections = 0;
  int64_t v1_requests = 0;     // single-fetch requests decoded
  int64_t batch_requests = 0;  // batch requests decoded
};

class ShuffleTransportServer {
 public:
  struct Options {
    uint64_t job_digest = 0;
    // Number of epoll reactor threads connections are sharded across
    // (round-robin at accept); [1, 16].
    int reactors = 1;
    // SO_SNDBUF/SO_RCVBUF on accepted sockets; 0 = kernel default.
    int64_t socket_buffer_bytes = 0;
    // When 1, batch ('MRF2') requests are treated as protocol garbage and
    // the connection dropped — the PR 8 server's behavior, kept for
    // cross-version fallback tests.
    int max_protocol_version = 2;
    // Consulted once per fetch entry with (map, per-map fetch sequence
    // number); lets the fault injector fire drop_conn / trunc_frame exactly
    // once at a planned attempt. Runs on reactor threads and must never
    // block on locks the publisher holds.
    std::function<TransportFault(int map, int64_t fetch_seq)> fault_hook;
  };

  // Binds a nonblocking listener on 127.0.0.1 (ephemeral port) and starts
  // the reactor threads (reactor 0 also owns the accept loop).
  static Result<std::unique_ptr<ShuffleTransportServer>> Start(
      const Options& options);
  ~ShuffleTransportServer();
  ShuffleTransportServer(const ShuffleTransportServer&) = delete;
  ShuffleTransportServer& operator=(const ShuffleTransportServer&) = delete;

  // Registers (or, on re-execution, replaces) the committed output of
  // `map` at `generation`. Exactly one of segment/disk is the backing:
  // `disk` wins when both are set (the runner keeps both for durable
  // outputs). Fetches for any other generation get kStaleGeneration; a
  // registration whose backing bytes are unavailable serves kDataLoss.
  void Publish(int map, uint32_t generation,
               std::shared_ptr<const SpillSegment> segment,
               std::shared_ptr<const StoredSpill> disk);

  int port() const { return port_; }
  ShuffleServerStats stats() const;

 private:
  struct Registration {
    uint32_t generation = 0;
    std::shared_ptr<const SpillSegment> segment;
    std::shared_ptr<const StoredSpill> disk;
    int fd = -1;  // dup of the extent file when disk-backed
  };
  struct Connection;
  struct Reactor;

  ShuffleTransportServer() = default;
  void Run(Reactor* reactor);
  void AcceptReady();
  void HandleReadable(Reactor* reactor, Connection* conn);
  // Returns false when the connection was torn down.
  bool HandleWritable(Reactor* reactor, Connection* conn);
  // Parses complete buffered requests into queued responses. Returns false
  // when the connection was torn down (garbage or drop_conn injection).
  bool ParseRequests(Reactor* reactor, Connection* conn);
  // Appends one response (v1 header or v2 entry) to the send queue.
  // Returns false on a drop_conn injection — the caller must close.
  bool BuildEntry(Connection* conn, uint64_t job_digest,
                  const ShuffleFetchWant& want, bool v2, uint32_t index);
  void CloseConnection(Reactor* reactor, Connection* conn);
  bool FlushOutput(Reactor* reactor, Connection* conn);

  Options options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::atomic<size_t> next_reactor_{0};
  std::atomic<bool> stopping_{false};

  mutable std::mutex mu_;  // registrations, fetch sequences, stats
  std::unordered_map<int, Registration> outputs_;    // by map id
  std::unordered_map<int, std::int64_t> fetch_seq_;  // per-map counter
  mutable ShuffleServerStats stats_;
};

struct ShuffleClientStats {
  int64_t fetches = 0;      // entries completed (v1 fetches + v2 entries)
  int64_t rpcs = 0;         // request messages sent (v1 singles + batches)
  int64_t batches = 0;      // batch request messages sent
  int64_t wire_bytes = 0;   // response header + body bytes received
  int64_t retransmits = 0;  // entries re-requested after a transport failure
  int64_t reconnects = 0;   // fetches resumed after a connection broke
  int64_t connections = 0;
  int64_t pool_hits = 0;    // body buffers served from the reuse pool
  int64_t pool_misses = 0;  // body buffers freshly allocated
  int64_t window_peak = 0;  // high-water AIMD in-flight window
  double pool_hit_rate = 0; // hits / (hits + misses)
  double fetch_mean_ms = 0;
  double fetch_p99_ms = 0;
};

// One completed fetch. `body` holds partition wire bytes for
// kPartitionBytes responses and the raw extent frame stream for
// kFrameStream (callers reassemble via ReassembleFrameStream). Batch
// entries that still failed at the transport level after the client's
// internal retries come back with transport_ok = false.
struct ShuffleFetchResult {
  FetchStatus status = FetchStatus::kOk;
  uint32_t generation = 0;
  int64_t raw_len = 0;
  uint32_t partition_crc = 0;
  int64_t records = 0;
  FetchEncoding encoding = FetchEncoding::kPartitionBytes;
  std::string body;
  int64_t wire_bytes = 0;
  double latency_ms = 0;
  bool transport_ok = true;
};

class ShuffleTransportClient {
 public:
  struct Options {
    uint64_t job_digest = 0;
    int port = 0;
    // Connection-pool size: at most this many concurrent fetch streams.
    int parallel_streams = 4;
    // Wire protocol FetchBatch speaks: 2 = batched/pipelined (default),
    // 1 = one v1 round trip per want.
    int protocol_version = 2;
    // AIMD in-flight window: start at `window_init` outstanding entries,
    // grow by one per clean response up to `window_max`, halve on any
    // transport failure or timeout.
    int window_init = 4;
    int window_max = 32;
    // Transport-retry budget: a batch entry (or v1 fetch) that fails this
    // many times is reported lost.
    int max_attempts = 3;
    // SO_SNDBUF/SO_RCVBUF on client sockets; 0 = kernel default.
    int64_t socket_buffer_bytes = 0;
    // SO_RCVTIMEO on client sockets; a stalled read past this counts as a
    // transport failure (and halves the window). 0 = no timeout.
    int64_t recv_timeout_ms = 30000;
    // Admission bound on the sum of in-flight response body bytes.
    int64_t max_inflight_bytes = 64ll << 20;
    // Consulted once per fetch entry with (map, per-map fetch sequence); a
    // positive return delays the fetch that long (slow_peer injection).
    std::function<int64_t(int map, int64_t fetch_seq)> delay_ms_hook;
  };

  explicit ShuffleTransportClient(const Options& options);
  ~ShuffleTransportClient();
  ShuffleTransportClient(const ShuffleTransportClient&) = delete;
  ShuffleTransportClient& operator=(const ShuffleTransportClient&) = delete;

  // One blocking v1 request/response round trip. kIOError covers every
  // transport-level failure (connect/send/recv error, torn header, short
  // body); protocol-level refusals come back as a FetchStatus in the
  // result. Thread-safe.
  Result<ShuffleFetchResult> Fetch(int map, int partition,
                                   uint32_t generation);

  // Fetches every want over one pipelined connection under the AIMD
  // window, retrying transport failures internally up to `max_attempts`
  // per entry. Always returns wants.size() results in want order; entries
  // that kept failing have transport_ok = false. With protocol_version = 1
  // (or after v1-server fallback) each want is a v1 round trip instead.
  // Thread-safe; concurrent calls use distinct pooled connections.
  std::vector<ShuffleFetchResult> FetchBatch(
      const std::vector<ShuffleFetchWant>& wants);

  // Body-buffer reuse pool. Callers that decode a fetched body into
  // another form should hand the spent buffer back so the next fetch can
  // reuse its capacity.
  std::string AcquireBuffer();
  void RecycleBuffer(std::string&& buffer);

  ShuffleClientStats stats() const;

 private:
  int AcquireConnection();  // -1 when a fresh connect failed
  void ReleaseConnection(int fd, bool healthy);
  void ReserveInflight(int64_t bytes);
  void ReleaseInflight(int64_t bytes);
  int64_t DelayForWant(const ShuffleFetchWant& want);
  void RecordEntry(int64_t wire_bytes, double latency_ms);
  // Reads one batch entry (header + body) from `fd` into results[].
  // Returns false on any transport-level failure.
  bool ReadBatchEntry(int fd, uint32_t expect_index,
                      ShuffleFetchResult* result);
  void FallbackFetchV1(const std::vector<ShuffleFetchWant>& wants,
                       const std::vector<size_t>& todo,
                       std::vector<ShuffleFetchResult>* results);

  const Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int> idle_fds_;
  int open_streams_ = 0;
  int broken_streams_ = 0;  // connections torn down mid-fetch, not yet resumed
  int64_t inflight_bytes_ = 0;
  std::unordered_map<int, std::int64_t> fetch_seq_;  // per-map counter
  std::vector<double> latencies_ms_;
  std::vector<std::string> buffer_pool_;
  std::atomic<int> window_;
  // v1-server fallback latch: set after two consecutive zero-byte deaths
  // of opening batches with no v2 response ever received.
  std::atomic<bool> server_is_v1_{false};
  int opening_batch_deaths_ = 0;  // guarded by mu_
  bool v2_succeeded_ = false;     // guarded by mu_
  mutable ShuffleClientStats stats_;
};

}  // namespace mrmb

#endif  // MRMB_NET_SHUFFLE_TRANSPORT_H_
