(* warm-xpathmark: steady-state serving of prepared XPathMark queries
   over loopback TCP. Every plan is prepared before timing starts, so the
   minidb executor and the wire's row encoding do almost all the work. *)

open Common
module Client = Serving.Client

let scale cfg = if cfg.smoke then 2 else 200

type served = {
  doc : Doc.t;
  store : Loader.t;
  serving : Serving.t;
  setup_s : float;
  shred_s : float;
}

(* Generate, shred, start the server and connect: everything up to the
   first request. *)
let setup cfg =
  let (doc, store, shred_s, serving), setup_s =
    timed (fun () ->
        let doc = Doc.of_tree (Xmark.generate ~seed:cfg.seed ~items_per_region:(scale cfg) ()) in
        let store, shred_s = timed (fun () -> Loader.shred (Xmark.schema ()) doc) in
        let serving =
          Serving.start (fun () -> Serving.executor ~traced:false (Session.create store))
        in
        (doc, store, shred_s, serving))
  in
  { doc; store; serving; setup_s; shred_s }

(* Prepare and run every query once from cold caches, in seeded order:
   returns the statements, the pass time and the number of wrong
   answers. *)
let cold_pass rng reference (sv : Serving.t) =
  Regex.cache_clear ();
  let n = Array.length queries in
  let stmts = Array.make n None in
  let total = ref 0.0 and wrong = ref 0 in
  Array.iter
    (fun i ->
      let (stmt, result), dt =
        timed (fun () ->
            let stmt = Client.prepare sv.client (snd queries.(i)) in
            (stmt, Client.execute_result sv.client stmt))
      in
      total := !total +. dt;
      stmts.(i) <- Some stmt;
      if Translate.result_ids result <> reference.(i) then incr wrong)
    (shuffled rng n);
  (Array.map Option.get stmts, !total, !wrong)

type phase = {
  lat : float list;  (** per-read latency, seconds *)
  passes : pass list;
  wrong : int;
  errors : int;
  rows : int;
  bytes : int;
}

(* The closed loop: one connection asks every query once per pass, in a
   seeded order, each request after the previous answer arrived, until
   [until], and at least once. Every query is asked equally often, so the
   latency quantiles do not move with how often a draw happened to pick
   the costly ones. Answers are checked between requests, outside the
   timed region. *)
let loop ~until rng reference (sv : Serving.t) stmts =
  let lat = ref [] and passes = ref [] and wrong = ref 0 and errors = ref 0 in
  let rows = ref 0 and bytes = ref 0 in
  while !passes = [] || now () < until do
    tick ();
    let at = now () and pass = ref [] in
    Array.iter
      (fun i ->
        Trace.next_request ();
        match
          Trace.roundtrip "client.read" (fun () ->
              timed (fun () -> Client.execute_result sv.client stmts.(i)))
        with
        | result, dt ->
          lat := dt :: !lat;
          pass := dt :: !pass;
          Trace.span "bench.check" (fun () ->
              rows := !rows + List.length result.Engine.rows;
              if Trace.on () then bytes := !bytes + Serving.result_bytes result.Engine.rows;
              if Translate.result_ids result <> reference.(i) then incr wrong)
        | exception Client.Server_error _ -> incr errors)
      (shuffled rng (Array.length stmts));
    passes := { at; reads = !pass; total = Stats.sum !pass } :: !passes
  done;
  { lat = !lat; passes = !passes; wrong = !wrong; errors = !errors; rows = !rows; bytes = !bytes }

let rounds cfg = if cfg.smoke then 2 else 4

(* Rounds of set-up, cold pass and a share of the timed loop, each on a
   fresh store, all within [--seconds]: samples of every figure spread
   over the whole run. *)
let run_untraced cfg =
  let rng = op_rng cfg.seed in
  let reference =
    reference (Doc.of_tree (Xmark.generate ~seed:cfg.seed ~items_per_region:(scale cfg) ()))
  in
  let rounds = rounds cfg in
  let t_end = now () +. cfg.seconds in
  let heap = ref 0.0 in
  let results =
    List.init rounds (fun i ->
        Gc.compact ();
        tick ();
        let setup_at = now () in
        let sv = setup cfg in
        settle ();
        let cold_at = now () in
        let stmts, pass, wrong = cold_pass rng reference sv.serving in
        let p = loop ~until:(round_deadline ~t_end ~rounds i) rng reference sv.serving stmts in
        Serving.stop sv.serving;
        if i = 0 then heap := heap_peak_mb ();
        ((setup_at, sv.setup_s), (cold_at, pass), wrong, p))
  in
  tick ();
  let read_figs, note =
    pass_figures ~ops:(Array.length queries) (List.concat_map (fun (_, _, _, p) -> p.passes) results)
  in
  let figures =
    time_figures "setup_s" (List.map (fun (s, _, _, _) -> s) results)
    @ time_figures "cold_pass_s" (List.map (fun (_, c, _, _) -> c) results)
    @ [ fig "heap_peak_mb" "MB" !heap; slowdown_figure () ]
    @ read_figs
  in
  { attempted = List.fold_left (fun acc (_, _, _, p) -> acc + List.length p.lat + p.errors) 0 results;
    failed = List.fold_left (fun acc (_, _, w, p) -> acc + w + p.wrong + p.errors) 0 results;
    problems = [];
    figures;
    notes = [ note; Printf.sprintf "scale %d; %d rounds" (scale cfg) rounds ] }

(* Half the time untraced, half traced on a second server over the same
   store, so the difference is the tracing overhead. *)
let run_traced cfg =
  let rng = op_rng cfg.seed in
  let first = setup cfg in
  let reference = reference first.doc in
  let stmts, _, wrong0 = cold_pass rng reference first.serving in
  let half = cfg.seconds /. 2.0 in
  let plain = loop ~until:(now () +. half) rng reference first.serving stmts in
  Serving.stop first.serving;
  let sv =
    Serving.start (fun () -> Serving.executor ~traced:true (Session.create first.store))
  in
  let stmts = Array.map (fun (_, q) -> Client.prepare sv.client q) queries in
  let before = Serving.snapshot sv in
  let r0 = (Regex.cache_hits (), Regex.cache_misses ()) and words0, majors0 = gc_snapshot () in
  Trace.start ();
  let p, wall = timed (fun () -> loop ~until:(now () +. half) rng reference sv stmts) in
  Trace.stop ();
  let words1, majors1 = gc_snapshot () in
  let reads = List.length p.lat in
  let layer_figs, problems =
    layer_figures
      { reads; writes = 0; wall; spans = Trace.all ();
        regex_hits = Regex.cache_hits () - fst r0; regex_misses = Regex.cache_misses () - snd r0;
        minor_words = words1 -. words0; major_collections = majors1 - majors0 }
  in
  let net =
    Serving.net_figures sv ~before ~ops:reads ~reads ~roundtrip:(Stats.sum p.lat)
  in
  Serving.stop sv;
  Trace.write_jsonl (Filename.concat cfg.dir "trace-warm-xpathmark.jsonl") (Trace.all ());
  let figures =
    layer_figs @ net
    @ [ fig "client.rows_per_read" "count" (Stats.per (float_of_int p.rows) reads);
        fig "client.result_bytes_per_read" "bytes" (Stats.per (float_of_int p.bytes) reads);
        fig "shred.shred_ms" "ms" (1000.0 *. first.shred_s);
        fig "shred.rows" "count" (float_of_int (Database.total_rows first.store.Loader.db));
        fig "trace.overhead_ms_per_op" "ms"
          (1000.0 *. (Stats.mean p.lat -. Stats.mean plain.lat)) ]
  in
  { attempted = List.length plain.lat + plain.errors + List.length p.lat + p.errors;
    failed = wrong0 + plain.wrong + plain.errors + p.wrong + p.errors;
    problems;
    figures;
    notes = [] }

let run cfg = if cfg.trace then run_traced cfg else run_untraced cfg
