(* What every workload shares: the run configuration, the query set and
   its reference answers, set-up helpers, and the per-layer figures
   computed from spans and counters. *)

module Doc = Ppfx_xml.Doc
module Tree = Ppfx_xml.Tree
module Xmark = Ppfx_workloads.Xmark
module Prng = Ppfx_workloads.Prng
module Eval = Ppfx_xpath.Eval
module Xparser = Ppfx_xpath.Parser
module Loader = Ppfx_shred.Loader
module Translate = Ppfx_translate.Translate
module Engine = Ppfx_minidb.Engine
module Database = Ppfx_minidb.Database
module Regex = Ppfx_regex.Regex
module Session = Ppfx_service.Session
module Metrics = Ppfx_service.Metrics

type config = {
  seed : int;
  seconds : float;  (** length of the timed phase *)
  trace : bool;
  smoke : bool;  (** tiny documents and few repetitions, for the tests *)
  dir : string;  (** scratch directory for data and trace files *)
}

(* A figure with its unit. *)
type figure = { name : string; value : float; unit_ : string }

type outcome = {
  attempted : int;
  failed : int;
  figures : figure list;
      (** every figure measured; the declared metrics are picked by name *)
  problems : string list;  (** failed checks that are not operations *)
  notes : string list;  (** extra human-readable report lines *)
}

let fig name unit_ value = { name; value; unit_ }
let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The 17 XPathMark queries and the 6 extension queries (XE1-XE6). *)
let queries = Array.of_list (Xmark.queries @ Xmark.extension_queries)
let query_index name =
  let rec go i = if fst queries.(i) = name then i else go (i + 1) in
  go 0

(* Ids of every query's answer, by the reference tree evaluator. *)
let reference doc =
  Array.map (fun (_, q) -> Eval.select_elements doc (Xparser.parse q)) queries

let shuffled rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The operation stream gets its own generator, apart from the one
   [Xmark.generate] draws the document from. *)
let op_rng seed = Prng.create ((seed * 7919) + 17)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let ensure_dir path = if not (Sys.file_exists path) then Unix.mkdir path 0o755

let heap_peak_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.0

(* The end of round [i] of [rounds] in a run that ends at [t_end]: an
   equal share of the time still left, so set-up and cold passes come out
   of the measured time instead of adding to it. *)
let round_deadline ~t_end ~rounds i = now () +. ((t_end -. now ()) /. float_of_int (rounds - i))

(* Between operations of an untraced run: time the host's speed when due
   (see {!Probe}). *)
let tick () = if not (Trace.on ()) then Probe.tick ()

(* Before a timed region: a major collection, so that it does not pay for
   the garbage the benchmark's own set-up left behind, and a tick. *)
let settle () =
  Gc.full_major ();
  tick ()

(* ------------------------------------------------------------------ *)
(* Read latencies                                                        *)
(* ------------------------------------------------------------------ *)

(* One pass of a closed loop, in seconds: when it started, the latencies
   of its reads and the summed latency of all its operations. Every pass
   asks the same operations, in a seeded order. *)
type pass = { at : float; reads : float list; total : float }

(* A timing taken at [at], in seconds of the reference host at its
   nominal speed (see {!Probe}). *)
let scale_at at x = x /. Probe.slowdown at

let scaled p =
  let f = Probe.slowdown p.at in
  { p with reads = List.map (fun x -> x /. f) p.reads; total = p.total /. f }

(* Median, p95 and, when ten samples lie beyond it, p99 of a whole run's
   pooled latencies (seconds in, milliseconds out), with a note on the
   support. *)
let latency_figures prefix samples =
  let a = Stats.sorted samples in
  let n = Array.length a in
  let at q suffix = fig (Printf.sprintf "%s_%s_ms" prefix suffix) "ms" (1000.0 *. Stats.quantile a q) in
  let figures =
    [ at 0.5 "p50"; at 0.95 "p95" ] @ if Stats.supports n 0.99 then [ at 0.99 "p99" ] else []
  in
  let note =
    Printf.sprintf "%s latency: %d samples; p95 %s; p99 %s" prefix n
      (if Stats.supports n 0.95 then "has 10 samples beyond it" else "has FEWER than 10 beyond it")
      (if Stats.supports n 0.99 then "has 10 samples beyond it" else "not reported")
  in
  (figures, note)

(* The read latency and throughput figures of a run of passes of [ops]
   operations each: pooled read latencies, and [ops] over the median pass
   time. Reported under their own names scaled to the host's speed, and
   under [wall.] as measured. *)
let pass_figures ~ops passes =
  let figures prefix passes =
    let lat, note = latency_figures (prefix ^ "read") (List.concat_map (fun p -> p.reads) passes) in
    ( fig (prefix ^ "ops_per_s") "1/s"
        (Stats.ratio (float_of_int ops) (Stats.median (List.map (fun p -> p.total) passes)))
      :: lat,
      note )
  in
  let gated, note = figures "" (List.map scaled passes) and wall, _ = figures "wall." passes in
  (gated @ wall, note)

(* The median of a timing repeated at moments [at], scaled to the host's
   speed, and under [wall.] as measured. *)
let time_figures name samples =
  [ fig name "s" (Stats.median (List.map (fun (at, x) -> scale_at at x) samples));
    fig ("wall." ^ name) "s" (Stats.median (List.map snd samples)) ]

(* The median factor by which the host ran slower than nominal. *)
let slowdown_figure () =
  fig "host.slowdown" "ratio"
    (Stats.median (List.map (fun (_, d) -> d /. Probe.nominal) !Probe.samples))

(* ------------------------------------------------------------------ *)
(* Session calls with their layer breakdown                             *)
(* ------------------------------------------------------------------ *)

let stage_children =
  [ Metrics.Parse, "xpath.parse"; Metrics.Translate, "translate.translate";
    Metrics.Plan, "minidb.plan"; Metrics.Execute, "minidb.exec" ]

let count_engine (d : Engine.exec_stats) =
  List.iter
    (fun (k, v) -> Trace.count k (float_of_int v))
    [ "minidb.rows_scanned", d.rows_scanned; "minidb.rows_emitted", d.rows_emitted;
      "minidb.dfa_execs", d.dfa_execs; "minidb.regex_exec_evals", d.regex_exec_evals;
      "minidb.regex_plan_evals", d.regex_plan_evals;
      "minidb.content_candidates", d.content_candidates;
      "minidb.content_verified", d.content_verified;
      "minidb.merge_steps", d.merge_steps; "minidb.hash_builds", d.hash_builds;
      "minidb.partitions_scanned", d.partitions_scanned;
      "minidb.partitions_pruned", d.partitions_pruned ]

let service_counts m =
  [ "service.hits", Metrics.hits m; "service.misses", Metrics.misses m;
    "service.retained", Metrics.retained m; "service.replanned", Metrics.invalidations m ]

(* A span around one call into a {!Session}. The session's own stage
   timers (parse, translate, plan, execute) become the span's children,
   and its engine and cache counters are added to the trace counters. *)
let session_span s name f =
  if not (Trace.on ()) then f ()
  else
    let m = Session.metrics s in
    let before = List.map (fun (st, _) -> Metrics.stage_total m st) stage_children in
    let e0 = Metrics.engine_stats m and c0 = service_counts m in
    Trace.span name (fun () ->
        let r = f () in
        List.iter2
          (fun (st, child) b -> Trace.child child (Metrics.stage_total m st -. b))
          stage_children before;
        count_engine (Engine.stats_diff (Metrics.engine_stats m) e0);
        List.iter2
          (fun (k, v) (_, v0) -> Trace.count k (float_of_int (v - v0)))
          (service_counts m) c0;
        r)

type session_pass = {
  pass : pass;  (** read latencies in the order asked *)
  pass_wrong : int;
}

(* Every query once through [s], in seeded order, each answer compared
   with [expected]. A read is [Session.run_ids] split into its calls. *)
let session_pass rng s expected =
  let at = now () and total = ref 0.0 and lat = ref [] and wrong = ref 0 in
  Array.iter
    (fun i ->
      Trace.next_request ();
      let ids, dt =
        timed (fun () ->
            let p = session_span s "service.prepare" (fun () -> Session.prepare s (snd queries.(i))) in
            let r = session_span s "service.execute" (fun () -> Session.execute s p) in
            Trace.span "translate.result_ids" (fun () -> Translate.result_ids r))
      in
      total := !total +. dt;
      lat := dt :: !lat;
      if ids <> expected.(i) then incr wrong)
    (shuffled rng (Array.length queries));
  { pass = { at; reads = List.rev !lat; total = !total }; pass_wrong = !wrong }

(* ------------------------------------------------------------------ *)
(* Per-layer figures                                                    *)
(* ------------------------------------------------------------------ *)

(* Which layer a span's self time belongs to. *)
let layer_of_span = function
  | "client.read" | "client.write" -> "net"
  | "service.prepare" | "service.execute" | "service.update" -> "service"
  | "xpath.parse" -> "xpath"
  | "translate.translate" | "translate.result_ids" -> "translate"
  | "minidb.plan" -> "minidb_plan"
  | "minidb.exec" -> "minidb_exec"
  | "xml.parse_fragment" | "update.stage" | "update.commit" -> "update"
  | "wal.append" | "wal.checkpoint" -> "wal"
  | _ -> "bench"

let share_layers =
  [ "net"; "service"; "xpath"; "translate"; "minidb_plan"; "minidb_exec"; "update"; "wal";
    "bench" ]

(* Traced self times must account for the traced wall time of the timed
   phase within this share; the rest is the loop's own bookkeeping. *)
let coverage_tolerance = 0.05

type traced_phase = {
  reads : int;
  writes : int;
  wall : float;  (** traced wall time of the timed phase, seconds *)
  spans : Trace.span list;
  regex_hits : int;
  regex_misses : int;
  minor_words : float;
  major_collections : int;
}

(* Figures derived from a traced timed phase: per-call times, engine
   counts per read, service cache behaviour, self-time shares and the
   coverage check. Returns the figures and the coverage problem, if any. *)
let layer_figures (l : traced_phase) =
  let layers = Trace.layers l.spans in
  let total name =
    match Hashtbl.find_opt layers name with Some x -> x.Trace.total | None -> 0.0
  in
  let ms_per name n = fig (name ^ "_ms") "ms" (1000.0 *. Stats.per (total name) n) in
  let c = Trace.counter in
  let per_read k = Stats.per (c k) l.reads in
  let selfs = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name (x : Trace.layer) ->
      let k = layer_of_span name in
      let old = Option.value (Hashtbl.find_opt selfs k) ~default:0.0 in
      Hashtbl.replace selfs k (old +. x.self))
    layers;
  let self k = Option.value (Hashtbl.find_opt selfs k) ~default:0.0 in
  let covered = List.fold_left (fun acc k -> acc +. self k) 0.0 share_layers in
  let coverage = Stats.ratio covered l.wall in
  let ops = l.reads + l.writes in
  let figures =
    [ ms_per "xpath.parse" l.reads; ms_per "translate.translate" l.reads;
      ms_per "minidb.plan" l.reads; ms_per "service.prepare" l.reads;
      ms_per "minidb.exec" l.reads; ms_per "service.execute" l.reads;
      fig "minidb.plan_regex_evals" "count" (per_read "minidb.regex_plan_evals");
      fig "regex.cache_misses" "count" (Stats.per (float_of_int l.regex_misses) l.reads);
      fig "regex.cache_hits" "count" (Stats.per (float_of_int l.regex_hits) l.reads) ]
    @ List.map
        (fun k -> fig k "count" (per_read k))
        [ "minidb.rows_scanned"; "minidb.rows_emitted"; "minidb.dfa_execs";
          "minidb.regex_exec_evals"; "minidb.content_candidates"; "minidb.merge_steps";
          "minidb.hash_builds" ]
    @ [ fig "minidb.scan_yield" "ratio"
          (Stats.ratio (c "minidb.rows_emitted") (c "minidb.rows_scanned"));
        fig "minidb.content_yield" "ratio"
          (Stats.ratio (c "minidb.content_verified") (c "minidb.content_candidates"));
        fig "minidb.partitions_pruned_ratio" "ratio"
          (Stats.ratio (c "minidb.partitions_pruned")
             (c "minidb.partitions_pruned" +. c "minidb.partitions_scanned"));
        fig "service.cache_hit_rate" "ratio"
          (Stats.ratio (c "service.hits") (c "service.hits" +. c "service.misses"));
        fig "service.plans_retained" "count" (per_read "service.retained");
        fig "service.plans_replanned" "count" (per_read "service.replanned");
        ms_per "update.stage" l.writes; ms_per "update.commit" l.writes;
        ms_per "wal.append" l.writes; ms_per "wal.checkpoint" l.writes;
        fig "update.pathids_per_write" "count" (Stats.per (c "update.pathids") l.writes);
        fig "runtime.minor_words_per_op" "words" (Stats.per l.minor_words ops);
        fig "runtime.major_collections" "count" (float_of_int l.major_collections) ]
    @ List.map (fun k -> fig ("share." ^ k) "ratio" (Stats.ratio (self k) l.wall)) share_layers
    @ [ fig "trace.coverage" "ratio" coverage ]
  in
  let problems =
    if Float.abs (1.0 -. coverage) <= coverage_tolerance then []
    else
      [ Printf.sprintf "traced self times cover %.1f%% of the traced wall time (tolerance %.0f%%)"
          (100.0 *. coverage) (100.0 *. coverage_tolerance) ]
  in
  (figures, problems)

let gc_snapshot () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)
