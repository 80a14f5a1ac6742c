#include "replay.h"

#include <map>
#include <memory>
#include <utility>

#include "io/block_codec.h"
#include "io/checksum.h"
#include "io/kv_buffer.h"
#include "io/merge.h"
#include "io/record_gen.h"
#include "io/spill_store.h"
#include "mapred/map_output.h"
#include "mapred/node_combiner.h"
#include "mapred/null_formats.h"
#include "mapred/partitioner.h"
#include "net/shuffle_transport.h"
#include "rpc/shuffle_wire.h"
#include "workloads.h"

namespace mrmbbench {

using mrmb::JobConf;
using mrmb::MapOutputCodec;
using mrmb::Result;
using mrmb::SpillSegment;
using mrmb::Status;
using mrmb::StoredSpill;

namespace {

// The spans one task's replay opens, one per layer, flushed on destruction.
class TaskSpans {
 public:
  TaskSpans(SpanLog* log, int job, int task)
      : log_(log), job_(job), task_(task) {}
  ~TaskSpans() {
    for (auto& [layer, span] : spans_) {
      if (span.calls > 0) log_->Add(std::move(span));
    }
  }
  TaskSpans(const TaskSpans&) = delete;
  TaskSpans& operator=(const TaskSpans&) = delete;

  Span* operator[](const std::string& layer) {
    Span& span = spans_[layer];
    span.layer = layer;
    span.job = job_;
    span.task = task_;
    return &span;
  }

 private:
  SpanLog* log_;
  int job_;
  int task_;
  std::map<std::string, Span> spans_;  // node-based: addresses are stable
};

// One shuffle stream's output: resident, or parked in an extent file.
struct StreamOutput {
  std::shared_ptr<const SpillSegment> segment;
  std::shared_ptr<const StoredSpill> stored;
};

class GroupValues final : public mrmb::ValueIterator {
 public:
  explicit GroupValues(mrmb::GroupedIterator* groups) : groups_(groups) {}
  bool Next() override { return groups_->NextValue(); }
  std::string_view value() const override { return groups_->value(); }

 private:
  mrmb::GroupedIterator* groups_;
};

// Reduce output is not needed: the replay checks group counts only.
class DiscardSink final : public mrmb::ReduceContext {
 public:
  DiscardSink(const JobConf& conf, int task) : conf_(conf), task_(task) {}
  void Emit(std::string_view, std::string_view) override {}
  const JobConf& conf() const override { return conf_; }
  int task_id() const override { return task_; }

 private:
  const JobConf& conf_;
  int task_;
};

class Replayer {
 public:
  Replayer(const JobConf& conf, SpanLog* log, int job)
      : conf_(conf),
        log_(log),
        job_(job),
        codec_(conf.effective_map_output_codec()),
        comparator_(mrmb::ComparatorFor(conf.record.type)),
        combiner_factory_(mrmb::MakeBuiltinCombiner(conf.combiner)) {}

  Status Run(const std::string& scratch_dir) {
    if (conf_.spill_engine_enabled()) {
      mrmb::SpillStoreOptions options;
      options.dir = scratch_dir;
      options.cache_bytes = conf_.spill_cache_bytes;
      options.block_bytes = conf_.spill_block_bytes;
      options.block_codec = codec_;
      options.scrub_after_seal = conf_.spill_scrub;
      options.use_mmap = conf_.spill_mmap;
      MRMB_ASSIGN_OR_RETURN(store_, mrmb::SpillStore::Open(options));
    }
    std::vector<StreamOutput> maps;
    for (int m = 0; m < conf_.num_maps; ++m) {
      MRMB_ASSIGN_OR_RETURN(StreamOutput out, ReplayMap(m));
      maps.push_back(std::move(out));
    }
    std::vector<StreamOutput> streams;
    if (conf_.node_combine_min_maps >= 2) {
      MRMB_ASSIGN_OR_RETURN(streams, NodeCombine(maps));
    } else {
      streams = std::move(maps);
    }
    counts_.node_streams = static_cast<int64_t>(streams.size());
    std::vector<std::vector<std::string>> fetched;
    if (conf_.shuffle_transport == mrmb::ShuffleTransport::kTcp) {
      MRMB_ASSIGN_OR_RETURN(fetched, FetchOverTcp(streams));
    }
    for (int r = 0; r < conf_.num_reduces; ++r) {
      MRMB_RETURN_IF_ERROR(ReplayReduce(
          r, streams,
          fetched.empty() ? nullptr : &fetched[static_cast<size_t>(r)]));
    }
    if (store_ != nullptr) {
      const mrmb::SpillStoreStats stats = store_->stats();
      counts_.store_bytes_written = stats.bytes_written;
      counts_.cache_hits = stats.cache_hits;
      counts_.cache_misses = stats.cache_misses;
    }
    return Status::OK();
  }

  const ReplayCounts& counts() const { return counts_; }

 private:
  std::unique_ptr<mrmb::Reducer> Combiner(int task) {
    if (combiner_factory_ == nullptr) return nullptr;
    return TraceReducer(combiner_factory_(task), log_, job_, task, 0,
                        "mapred.combiner", "");
  }

  // SpillStore::Put, degrading to RAM residency on ENOSPC/EIO like the
  // engine. Returns a null handle when degraded.
  Result<std::shared_ptr<const StoredSpill>> Store(TaskSpans& spans,
                                                   const SpillSegment& seg,
                                                   int task) {
    Result<std::shared_ptr<const StoredSpill>> put = [&] {
      Timed timed(spans["io.spill_store.put"]);
      return store_->Put(seg, task, 0);
    }();
    if (put.ok()) return put;
    const mrmb::StatusCode code = put.status().code();
    if (code != mrmb::StatusCode::kResourceExhausted &&
        code != mrmb::StatusCode::kIOError) {
      return put.status();
    }
    ++counts_.degradations;
    return std::shared_ptr<const StoredSpill>();
  }

  Result<std::string> ReadBack(TaskSpans& spans, const StoredSpill& stored,
                               int partition) {
    Timed timed(spans["io.spill_store.read"]);
    Result<std::string> part =
        stored.ReadPartition(partition, conf_.checksum_map_output);
    if (part.ok()) counts_.store_bytes_read += static_cast<int64_t>(part->size());
    return part;
  }

  Result<StreamOutput> ReplayMap(int m) {
    TaskSpans spans(log_, job_, m);
    std::unique_ptr<mrmb::Reducer> combiner = Combiner(m);

    mrmb::RecordGenerator::Options options = conf_.record;
    options.seed = conf_.seed;
    const mrmb::RecordGenerator generator(options);
    const size_t key_size = generator.serialized_key_size();
    const size_t record_size = key_size + generator.serialized_value_size();
    const int64_t n = conf_.records_per_map;
    std::string records;
    {
      Span* span = spans["io.record_gen"];
      Timed timed(span);
      records.reserve(static_cast<size_t>(n) * record_size);
      std::string key;
      std::string value;
      const int64_t base = static_cast<int64_t>(m) * n;
      for (int64_t i = 0; i < n; ++i) {
        generator.SerializedKey(generator.KeyIdFor(i), &key);
        generator.SerializedValue(base + i, &value);
        records.append(key);
        records.append(value);
      }
      span->items += static_cast<int64_t>(records.size());
    }
    auto key_at = [&](int64_t i) {
      return std::string_view(records).substr(
          static_cast<size_t>(i) * record_size, key_size);
    };
    auto value_at = [&](int64_t i) {
      return std::string_view(records).substr(
          static_cast<size_t>(i) * record_size + key_size,
          record_size - key_size);
    };

    std::vector<int> partitions(static_cast<size_t>(n));
    {
      std::unique_ptr<mrmb::Partitioner> partitioner =
          MakeJobFactories(conf_).partitioner(m);
      Timed timed(spans["mapred.partition"]);
      for (int64_t i = 0; i < n; ++i) {
        partitions[static_cast<size_t>(i)] =
            partitioner->Partition(key_at(i), i, conf_.num_reduces);
      }
    }

    mrmb::KvBuffer buffer(conf_.record.type, conf_.num_reduces,
                          static_cast<size_t>(
                              static_cast<double>(conf_.io_sort_bytes) *
                              conf_.spill_percent));
    std::vector<StreamOutput> spills;
    int64_t resident_bytes = 0;
    auto spill = [&]() -> Status {
      {
        Timed timed(spans["io.kv_buffer.sort"]);
        buffer.Sort();
      }
      SpillSegment segment;
      {
        Timed timed(spans["io.kv_buffer.to_spill"]);
        segment = buffer.ToSpill();
      }
      if (combiner != nullptr) {
        Span* span = spans["mapred.combiner"];
        Timed timed(span);
        span->items += segment.total_records();
        segment = mrmb::CombineSegment(segment, comparator_, combiner.get(),
                                       conf_, m);
        span->out_items += segment.total_records();
      }
      buffer.Clear();
      const int64_t bytes = segment.total_bytes();
      if (store_ != nullptr &&
          resident_bytes + bytes > conf_.effective_spill_budget_bytes()) {
        MRMB_ASSIGN_OR_RETURN(std::shared_ptr<const StoredSpill> stored,
                              Store(spans, segment, m));
        if (stored != nullptr) {
          spills.push_back({nullptr, std::move(stored)});
          return Status::OK();
        }
      }
      resident_bytes += bytes;
      spills.push_back(
          {std::make_shared<const SpillSegment>(std::move(segment)), nullptr});
      return Status::OK();
    };
    {
      Span* span = spans["io.kv_buffer.append"];
      Timed timed(span);
      for (int64_t i = 0; i < n; ++i) {
        const int p = partitions[static_cast<size_t>(i)];
        if (!buffer.Append(p, key_at(i), value_at(i))) {
          MRMB_RETURN_IF_ERROR(spill());
          if (!buffer.Append(p, key_at(i), value_at(i))) {
            return Status::ResourceExhausted("record never fits the buffer");
          }
        }
      }
      span->items += n;
    }
    if (buffer.records() > 0 || spills.empty()) {
      MRMB_RETURN_IF_ERROR(spill());
    }

    SpillSegment output;
    if (spills.size() == 1) {
      if (spills[0].stored == nullptr) {
        output = *spills[0].segment;
      } else {
        Timed timed(spans["io.spill_store.read"]);
        MRMB_ASSIGN_OR_RETURN(output,
                              spills[0].stored->ReadSegment(/*verify=*/true));
        counts_.store_bytes_read += output.total_bytes();
      }
    } else {
      const bool merge_combine =
          combiner != nullptr && conf_.min_spills_for_combine > 0 &&
          spills.size() >= static_cast<size_t>(conf_.min_spills_for_combine);
      output.partitions.resize(static_cast<size_t>(conf_.num_reduces));
      for (int p = 0; p < conf_.num_reduces; ++p) {
        std::vector<std::string> owned;
        owned.reserve(spills.size());
        std::vector<mrmb::FramedRun> runs;
        for (const StreamOutput& s : spills) {
          if (s.stored != nullptr) {
            MRMB_ASSIGN_OR_RETURN(std::string run,
                                  ReadBack(spans, *s.stored, p));
            owned.push_back(std::move(run));
            runs.push_back({owned.back(), -1});
          } else {
            runs.push_back({s.segment->PartitionData(p), -1});
          }
        }
        mrmb::MergedRun merged;
        {
          Span* span = spans["io.merge"];
          Timed timed(span);
          MRMB_ASSIGN_OR_RETURN(merged,
                                mrmb::MergeFramedRuns(runs, comparator_));
          span->items += merged.records;
        }
        if (merge_combine) {
          Span* span = spans["mapred.combiner"];
          Timed timed(span);
          span->items += merged.records;
          MRMB_ASSIGN_OR_RETURN(
              merged, mrmb::CombineSortedRun(merged.data, comparator_,
                                             combiner.get(), conf_, m));
          span->out_items += merged.records;
        }
        SpillSegment::PartitionRange& range =
            output.partitions[static_cast<size_t>(p)];
        range.offset = static_cast<int64_t>(output.data.size());
        output.data.append(merged.data);
        range.records = merged.records;
        range.length = static_cast<int64_t>(output.data.size()) - range.offset;
      }
      Timed timed(spans["io.checksum.seal"]);
      mrmb::SealSegment(&output);
      counts_.checksum_bytes += output.total_bytes();
    }
    if (codec_ != MapOutputCodec::kNone) {
      Span* span = spans["io.block_codec.compress"];
      Timed timed(span);
      span->items += output.total_bytes();
      MRMB_ASSIGN_OR_RETURN(output, mrmb::CompressSegment(codec_, output));
      span->out_items += output.total_bytes();
    }
    if (store_ != nullptr) {
      MRMB_ASSIGN_OR_RETURN(std::shared_ptr<const StoredSpill> stored,
                            Store(spans, output, m));
      if (stored != nullptr) return StreamOutput{nullptr, std::move(stored)};
    }
    return StreamOutput{std::make_shared<const SpillSegment>(std::move(output)),
                        nullptr};
  }

  Result<std::vector<StreamOutput>> NodeCombine(
      const std::vector<StreamOutput>& maps) {
    const int block = conf_.node_combine_min_maps;
    std::vector<StreamOutput> streams;
    for (int first = 0, s = 0; first < conf_.num_maps; first += block, ++s) {
      const int task = conf_.num_maps + s;
      TaskSpans spans(log_, job_, task);
      std::unique_ptr<mrmb::Reducer> combiner = Combiner(task);
      std::vector<mrmb::NodeCombineMember> members;
      for (int m = first; m < std::min(first + block, conf_.num_maps); ++m) {
        members.push_back({m, maps[static_cast<size_t>(m)].segment,
                           maps[static_cast<size_t>(m)].stored});
      }
      mrmb::NodeCombineOutput built;
      {
        Span* span = spans["mapred.node_combiner"];
        Timed timed(span);
        std::vector<int> corrupt;
        MRMB_ASSIGN_OR_RETURN(
            built, mrmb::BuildNodeCombinedSegment(members, conf_, comparator_,
                                                  combiner.get(), s, &corrupt));
        span->items += built.stats.input_records;
        span->out_items += built.stats.output_records;
      }
      if (store_ != nullptr) {
        MRMB_ASSIGN_OR_RETURN(std::shared_ptr<const StoredSpill> stored,
                              Store(spans, built.segment, task));
        if (stored != nullptr) {
          streams.push_back({nullptr, std::move(stored)});
          continue;
        }
      }
      streams.push_back(
          {std::make_shared<const SpillSegment>(std::move(built.segment)),
           nullptr});
    }
    return streams;
  }

  // Serves every stream from a loopback server and fetches each reduce's
  // partitions in one batch; returns the verified, decoded partition bytes
  // per reduce and stream.
  Result<std::vector<std::vector<std::string>>> FetchOverTcp(
      const std::vector<StreamOutput>& streams) {
    TaskSpans spans(log_, job_, -1);
    const uint64_t digest = conf_.Digest();
    std::unique_ptr<mrmb::ShuffleTransportServer> server;
    {
      Timed timed(spans["net.publish"]);
      mrmb::ShuffleTransportServer::Options options;
      options.job_digest = digest;
      options.reactors = conf_.shuffle_server_reactors;
      options.socket_buffer_bytes = conf_.shuffle_socket_buffer_bytes;
      MRMB_ASSIGN_OR_RETURN(server,
                            mrmb::ShuffleTransportServer::Start(options));
      for (size_t s = 0; s < streams.size(); ++s) {
        server->Publish(static_cast<int>(s), 0, streams[s].segment,
                        streams[s].stored);
      }
    }
    mrmb::ShuffleTransportClient::Options options;
    options.job_digest = digest;
    options.port = server->port();
    options.parallel_streams = conf_.fetch_parallel_streams;
    options.protocol_version = conf_.shuffle_protocol_version;
    options.window_init = conf_.fetch_window_init;
    options.window_max = conf_.fetch_window_max;
    options.socket_buffer_bytes = conf_.shuffle_socket_buffer_bytes;
    mrmb::ShuffleTransportClient client(options);

    std::vector<std::vector<std::string>> fetched(
        static_cast<size_t>(conf_.num_reduces));
    for (int r = 0; r < conf_.num_reduces; ++r) {
      std::vector<mrmb::ShuffleFetchWant> wants;
      for (size_t s = 0; s < streams.size(); ++s) {
        wants.push_back({static_cast<int>(s), r, 0});
      }
      std::vector<mrmb::ShuffleFetchResult> results;
      {
        Span* span = spans["net.fetch"];
        Timed timed(span);
        results = client.FetchBatch(wants);
        span->items += static_cast<int64_t>(results.size());
      }
      ReplayWire(spans, digest, wants, results);
      for (mrmb::ShuffleFetchResult& result : results) {
        if (!result.transport_ok || result.status != mrmb::FetchStatus::kOk) {
          return Status::IOError(std::string("replay fetch failed: ") +
                                 mrmb::FetchStatusName(result.status));
        }
        counts_.fetch_latency_ms.push_back(result.latency_ms);
        std::string wire;
        if (result.encoding == mrmb::FetchEncoding::kFrameStream) {
          MRMB_RETURN_IF_ERROR(
              mrmb::ReassembleFrameStream(result.body, &wire));
        } else {
          wire = std::move(result.body);
        }
        {
          Timed timed(spans["io.checksum.verify"]);
          if (mrmb::Crc32c(wire) != result.partition_crc) {
            return Status::DataLoss("replay: fetched partition CRC mismatch");
          }
          ++counts_.verifications;
          counts_.checksum_bytes += static_cast<int64_t>(wire.size());
        }
        fetched[static_cast<size_t>(r)].push_back(Decode(spans, wire));
      }
    }
    if (server->stats().bytes_sent != client.stats().wire_bytes) {
      return Status::Internal("replay: server sent bytes != client received");
    }
    return fetched;
  }

  // The batch protocol's framing work for one FetchBatch: the request and
  // one entry header per partition, encoded and decoded.
  void ReplayWire(TaskSpans& spans, uint64_t digest,
                  const std::vector<mrmb::ShuffleFetchWant>& wants,
                  const std::vector<mrmb::ShuffleFetchResult>& results) {
    std::string request;
    std::vector<std::string> headers(results.size());
    {
      Timed timed(spans["rpc.encode"]);
      mrmb::EncodeShuffleBatchRequest(digest, wants.data(), wants.size(),
                                      &request);
      for (size_t i = 0; i < results.size(); ++i) {
        mrmb::ShuffleBatchEntryHeader header;
        header.index = static_cast<uint32_t>(i);
        header.generation = results[i].generation;
        header.raw_len = results[i].raw_len;
        header.partition_crc = results[i].partition_crc;
        header.records = results[i].records;
        header.encoding = results[i].encoding;
        header.body_len = static_cast<int64_t>(results[i].body.size());
        mrmb::EncodeShuffleBatchEntryHeader(header, &headers[i]);
      }
    }
    {
      Timed timed(spans["rpc.decode"]);
      mrmb::ShuffleBatchRequestHead head;
      std::vector<mrmb::ShuffleFetchWant> decoded;
      if (mrmb::DecodeShuffleBatchRequestHead(request, &head).ok()) {
        (void)mrmb::DecodeShuffleBatchWants(
            std::string_view(request).substr(
                mrmb::kShuffleBatchRequestHeadSize),
            head.count, &decoded);
      }
      for (const std::string& bytes : headers) {
        mrmb::ShuffleBatchEntryHeader header;
        (void)mrmb::DecodeShuffleBatchEntryHeader(bytes, &header);
      }
    }
    counts_.rpc_frames += 1 + static_cast<int64_t>(headers.size());
  }

  // Codec-framed partition bytes -> merge-ready bytes.
  std::string Decode(TaskSpans& spans, std::string wire) {
    if (codec_ == MapOutputCodec::kNone) return wire;
    Span* span = spans["io.block_codec.decompress"];
    Timed timed(span);
    std::string raw;
    const Status decoded = mrmb::BlockDecompress(wire, &raw);
    if (decode_status_.ok()) decode_status_ = decoded;
    span->items += static_cast<int64_t>(raw.size());
    return raw;
  }

  Status ReplayReduce(int r, const std::vector<StreamOutput>& streams,
                      std::vector<std::string>* fetched) {
    TaskSpans spans(log_, job_, conf_.num_maps + conf_.num_reduces + r);
    std::vector<std::string> owned;
    std::vector<std::string_view> inputs;
    if (fetched != nullptr) {
      for (const std::string& bytes : *fetched) inputs.push_back(bytes);
    } else {
      owned.reserve(streams.size());
      for (const StreamOutput& s : streams) {
        if (s.stored != nullptr) {
          MRMB_ASSIGN_OR_RETURN(std::string part, ReadBack(spans, *s.stored, r));
          if (conf_.checksum_map_output) ++counts_.verifications;
          owned.push_back(Decode(spans, std::move(part)));
          inputs.push_back(owned.back());
          continue;
        }
        if (conf_.checksum_map_output) {
          Timed timed(spans["io.checksum.verify"]);
          MRMB_RETURN_IF_ERROR(mrmb::VerifySegmentPartition(*s.segment, r));
          ++counts_.verifications;
          counts_.checksum_bytes += s.segment->partitions[static_cast<size_t>(r)].length;
        }
        if (codec_ == MapOutputCodec::kNone) {
          inputs.push_back(s.segment->PartitionData(r));
        } else {
          owned.push_back(
              Decode(spans, std::string(s.segment->PartitionData(r))));
          inputs.push_back(owned.back());
        }
      }
    }
    MRMB_RETURN_IF_ERROR(decode_status_);

    std::unique_ptr<mrmb::Reducer> reducer =
        TraceReducer(MakeJobFactories(conf_).reducer(r), log_, job_,
                     conf_.num_maps + conf_.num_reduces + r, 0,
                     "mapred.reduce", "io.merge");
    DiscardSink sink(conf_, r);
    Span* span = spans["io.merge"];
    Timed timed(span);
    std::vector<std::unique_ptr<mrmb::RecordStream>> readers;
    for (std::string_view data : inputs) {
      readers.push_back(
          std::make_unique<mrmb::SegmentReader>(data, comparator_->type()));
    }
    std::vector<const mrmb::RecordStream*> views;
    for (const auto& reader : readers) views.push_back(reader.get());
    mrmb::MergeIterator merged(std::move(readers), comparator_);
    mrmb::GroupedIterator groups(&merged, comparator_);
    while (groups.NextGroup()) {
      ++counts_.reduce_groups;
      GroupValues values(&groups);
      reducer->Reduce(groups.group_key(), &values, &sink);
    }
    for (const mrmb::RecordStream* view : views) {
      MRMB_RETURN_IF_ERROR(view->status());
    }
    return merged.status();
  }

  const JobConf& conf_;
  SpanLog* log_;
  const int job_;
  const MapOutputCodec codec_;
  const mrmb::RawComparator* comparator_;
  const mrmb::ReducerFactory combiner_factory_;
  std::unique_ptr<mrmb::SpillStore> store_;
  Status decode_status_;
  ReplayCounts counts_;
};

}  // namespace

Result<ReplayCounts> ReplayJob(const JobConf& conf,
                               const std::string& scratch_dir, SpanLog* log,
                               int job_id) {
  Span root;
  root.layer = "replay";
  root.job = job_id;
  Replayer replayer(conf, log, job_id);
  Status status;
  {
    Timed timed(&root);
    status = replayer.Run(scratch_dir);
  }
  log->Add(std::move(root));
  MRMB_RETURN_IF_ERROR(status);
  ReplayCounts counts = replayer.counts();
  // Merged records are what the reducers pulled through the merge.
  for (const Span& s : log->spans()) {
    if (s.job == job_id && s.layer == "mapred.reduce") {
      counts.merge_records += s.items;
    }
  }
  return counts;
}

}  // namespace mrmbbench
