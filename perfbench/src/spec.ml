(* The metrics the benchmark reports, by name and unit, exactly as
   BENCHMARK.json at the repository root declares them. Every workload
   reports every metric; a per-layer metric of a layer the workload does
   not exercise reads 0. *)

(* Reported with tracing off. *)
let end_to_end =
  [ "setup_s", "s"; "read_p50_ms", "ms"; "read_p95_ms", "ms"; "ops_per_s", "1/s";
    "cold_pass_s", "s"; "heap_peak_mb", "MB" ]

(* Reported by the traced run. *)
let per_layer =
  [ "xpath.parse_ms", "ms"; "translate.translate_ms", "ms"; "minidb.plan_ms", "ms";
    "minidb.plan_regex_evals", "count"; "regex.cache_misses", "count";
    "regex.cache_hits", "count"; "service.prepare_ms", "ms";
    "minidb.exec_ms", "ms"; "service.execute_ms", "ms";
    "minidb.rows_scanned", "count"; "minidb.rows_emitted", "count";
    "minidb.dfa_execs", "count"; "minidb.regex_exec_evals", "count";
    "minidb.content_candidates", "count"; "minidb.merge_steps", "count";
    "minidb.hash_builds", "count"; "minidb.scan_yield", "ratio";
    "minidb.content_yield", "ratio"; "minidb.partitions_pruned_ratio", "ratio";
    "net.roundtrip_ms", "ms"; "net.server_ms", "ms"; "net.overhead_ms", "ms";
    "net.queue_ms", "ms"; "net.bytes_out_per_read", "bytes";
    "client.rows_per_read", "count"; "client.result_bytes_per_read", "bytes";
    "update.stage_ms", "ms"; "update.commit_ms", "ms";
    "update.rows_touched_per_write", "count"; "update.pathids_per_write", "count";
    "wal.append_ms", "ms"; "wal.checkpoint_ms", "ms"; "wal.bytes_per_write", "bytes";
    "wal.fsyncs_per_write", "count"; "wal.recover_ms", "ms"; "wal.replay_ms", "ms";
    "wal.records_replayed", "count";
    "service.cache_hit_rate", "ratio"; "service.plans_retained", "count";
    "service.plans_replanned", "count";
    "shred.shred_ms", "ms"; "shred.rows", "count";
    "runtime.minor_words_per_op", "words"; "runtime.major_collections", "count";
    "share.net", "ratio"; "share.service", "ratio"; "share.xpath", "ratio";
    "share.translate", "ratio"; "share.minidb_plan", "ratio"; "share.minidb_exec", "ratio";
    "share.update", "ratio"; "share.wal", "ratio"; "share.bench", "ratio";
    "trace.coverage", "ratio"; "trace.overhead_ms_per_op", "ms" ]
