// Calibrated cost constants for the cluster simulation.
//
// The SimJobRunner charges CPU seconds, disk bytes and network bytes for
// every piece of MapReduce work, using these constants. They are expressed
// per record / per byte on a reference core (Cluster A's 2.67 GHz Westmere)
// and were calibrated so the suite reproduces the *shapes* of the paper's
// results: the ~17% / ~24% job-time gains of 10 GigE / IPoIB QDR over
// 1 GigE, the ~2x (MRv1) and >3x (YARN) skew penalty, the key/value size
// sensitivity of Fig. 4, and the ~110/520/950 MB/s NIC peaks of Fig. 7.
// EXPERIMENTS.md records the calibration evidence.

#ifndef MRMB_MAPRED_COST_MODEL_H_
#define MRMB_MAPRED_COST_MODEL_H_

#include "io/block_codec.h"
#include "io/writable.h"

namespace mrmb {

struct CostModel {
  // ---- Task lifecycle (wall-clock seconds) ----------------------------
  double job_setup = 1.5;          // client submit + JobTracker/RM setup
  double mrv1_task_startup = 1.0;  // JVM spawn + task localization
  double yarn_task_startup = 1.8;  // container allocate + launch
  double yarn_am_startup = 2.5;    // ApplicationMaster container
  double mrv1_heartbeat = 0.3;     // TaskTracker heartbeat interval
  double yarn_heartbeat = 1.0;     // NM/AM heartbeat interval

  // ---- Map side (reference-core seconds) ------------------------------
  double map_cpu_per_record = 2.3e-5;    // JVM map call + collect + partition
  double map_cpu_per_byte = 1.6e-9;      // generate + serialize + copy
  double sort_cpu_per_compare = 1.5e-7;  // comparator + index movement
  double merge_cpu_per_byte = 9.0e-10;   // streaming merge
  double merge_cpu_per_record = 8.0e-7;

  // ---- Reduce side ------------------------------------------------------
  double reduce_cpu_per_record = 4.0e-6;  // grouping + user reduce iterate
  double reduce_cpu_per_byte = 8.0e-10;

  // ---- Data types --------------------------------------------------------
  // Multiplier on per-byte CPU costs for Text (UTF-8 validation, charset
  // handling) relative to BytesWritable.
  double text_cpu_factor = 1.35;

  // ---- Shuffle service ---------------------------------------------------
  // Per-fetch fixed CPU (HTTP servlet / copier thread bookkeeping), split
  // between server and client.
  double fetch_setup_cpu = 2.0e-4;
  // Fraction of node memory that keeps freshly written map output hot; a
  // node whose map output exceeds it serves the excess fraction of every
  // fetch from disk.
  double page_cache_fraction = 0.5;

  // ---- Page-cache write-back ---------------------------------------------
  // Spill and merge writes land in the page cache; background write-back
  // drains them concurrently with the phase that produced them, so only
  // this fraction of the bytes block the writer on disk bandwidth.
  double buffered_write_fraction = 0.45;
  // Reduce-side shuffle spills arrive in a burst paced by the network; once
  // a node's accumulated reduce spill exceeds the kernel dirty-page limit
  // (vm.dirty_ratio of node memory) the writers block on raw disk
  // bandwidth. Map-side writes are spread over the whole map phase and do
  // not hit the limit. This burst behaviour is what makes a heavily skewed
  // reducer disproportionately expensive.
  double dirty_limit_fraction = 0.25;

  // ---- Combiner ----------------------------------------------------------
  // Per input record cost of running the combine function during a spill.
  // Calibrate from a measured run: tools/run_bench
  // --scenario=combiner-ablation reports combine_seconds / combine input
  // records (and writes it into the calibration document as
  // combine_cpu_per_record) from the functional engine's timed combine
  // passes; BENCH_combiner.json carries the reference measurement.
  double combine_cpu_per_record = 1.5e-6;

  // ---- Intermediate compression (mapred.compress.map.output) -----------
  // DEFLATE level 1 throughput on the reference core: ~120 MB/s compress,
  // ~400 MB/s decompress.
  double compress_cpu_per_byte = 8.0e-9;
  double decompress_cpu_per_byte = 2.5e-9;
  // LZ4 fast-mode block codec: cheaper per byte than DEFLATE at a lower
  // ratio (~285 MB/s compress, ~1.25 GB/s decompress, per raw byte). Fitted
  // to bench/micro_kernels BM_BlockCompress / BM_BlockDecompress on the
  // Text sample (1 MiB of framed records, ratio 0.757), RelWithDebInfo,
  // GCC 12.2 on a 4-vCPU Xeon VM; see EXPERIMENTS.md.
  double lz4_compress_cpu_per_byte = 3.5e-9;
  double lz4_decompress_cpu_per_byte = 8.0e-10;

  // Per-byte CPU cost of compressing / decompressing with a given codec.
  double CompressCpuPerByte(MapOutputCodec codec) const {
    return codec == MapOutputCodec::kLz4 ? lz4_compress_cpu_per_byte
                                         : compress_cpu_per_byte;
  }
  double DecompressCpuPerByte(MapOutputCodec codec) const {
    return codec == MapOutputCodec::kLz4 ? lz4_decompress_cpu_per_byte
                                         : decompress_cpu_per_byte;
  }

  // ---- RDMA engine (MRoIB case study) -------------------------------------
  // Fraction of reduce-side merge work overlapped with the fetch phase by
  // the SEDA-style pipelined shuffle (HOMR design).
  double rdma_overlap_fraction = 0.90;

  // Per-byte CPU multiplier for a given intermediate data type.
  double TypeFactor(DataType type) const {
    return type == DataType::kText ? text_cpu_factor : 1.0;
  }

  static CostModel Default() { return CostModel(); }
};

}  // namespace mrmb

#endif  // MRMB_MAPRED_COST_MODEL_H_
