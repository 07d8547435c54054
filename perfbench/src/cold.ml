(* cold-xpathmark: first arrival of every query on an in-process
   {!Session}, as after a fresh start. Each pass empties the process-wide
   regex cache and the session's plan cache, then asks each query once, so
   parse, translate, plan and regex compilation do most of the work. *)

open Common

let scale cfg = if cfg.smoke then 2 else 20

type store = { doc : Doc.t; session : Session.t; setup_s : float; shred_s : float }

let setup cfg =
  let (doc, session, shred_s), setup_s =
    timed (fun () ->
        let doc = Doc.of_tree (Xmark.generate ~seed:cfg.seed ~items_per_region:(scale cfg) ()) in
        let store, shred_s = timed (fun () -> Loader.shred (Xmark.schema ()) doc) in
        (doc, Session.create store, shred_s))
  in
  { doc; session; setup_s; shred_s }

type passes = {
  passes : pass list;
  lat : float list;
  wrong : int;
  regex_hits : int;
  regex_misses : int;
}

(* Whole passes until [until], and at least [min_passes]. Untraced, a
   set-up of a fresh store (timed, then dropped) follows each pass, which
   spreads the set-up samples over the run. Each pass starts after a major
   collection, so that it does not pay for the previous one's garbage. *)
let loop ?setups ?(min_passes = 1) ~until cfg rng reference s =
  let passes = ref [] and lat = ref [] and wrong = ref 0 and hits = ref 0 and misses = ref 0 in
  while List.length !passes < min_passes || now () < until do
    Trace.span "bench.reset" (fun () ->
        Regex.cache_clear ();
        Session.invalidate_cache s;
        settle ());
    let pass = session_pass rng s reference in
    lat := pass.pass.reads @ !lat;
    wrong := !wrong + pass.pass_wrong;
    (* [Regex.cache_clear] reset both counters at the start of the pass. *)
    hits := !hits + Regex.cache_hits ();
    misses := !misses + Regex.cache_misses ();
    passes := pass.pass :: !passes;
    Option.iter
      (fun acc ->
        let at = now () in
        acc := (at, (setup cfg).setup_s) :: !acc)
      setups
  done;
  { passes = !passes; lat = !lat; wrong = !wrong; regex_hits = !hits; regex_misses = !misses }

let run cfg =
  let rng = op_rng cfg.seed in
  let st = setup cfg in
  let reference = reference st.doc in
  if not cfg.trace then begin
    let setups = ref [] in
    let min_passes = if cfg.smoke then 1 else 9 in
    let p =
      loop ~setups ~min_passes ~until:(now () +. cfg.seconds) cfg rng reference st.session
    in
    tick ();
    let read_figs, note = pass_figures ~ops:(Array.length queries) p.passes in
    let figures =
      time_figures "setup_s" !setups
      @ time_figures "cold_pass_s" (List.map (fun (p : pass) -> (p.at, p.total)) p.passes)
      @ [ fig "heap_peak_mb" "MB" (heap_peak_mb ()); slowdown_figure () ]
      @ read_figs
    in
    { attempted = List.length p.lat;
      failed = p.wrong;
      problems = [];
      figures;
      notes =
        [ note;
          Printf.sprintf "scale %d: %d elements; %d passes" (scale cfg) (Doc.size st.doc)
            (List.length p.passes) ] }
  end
  else begin
    let half = cfg.seconds /. 2.0 in
    let plain = loop ~until:(now () +. half) cfg rng reference st.session in
    let words0, majors0 = gc_snapshot () in
    Trace.start ();
    let p, wall = timed (fun () -> loop ~until:(now () +. half) cfg rng reference st.session) in
    Trace.stop ();
    let words1, majors1 = gc_snapshot () in
    let spans = Trace.all () in
    Trace.write_jsonl (Filename.concat cfg.dir "trace-cold-xpathmark.jsonl") spans;
    let layer_figs, problems =
      layer_figures
        { reads = List.length p.lat; writes = 0; wall; spans;
          regex_hits = p.regex_hits; regex_misses = p.regex_misses;
          minor_words = words1 -. words0; major_collections = majors1 - majors0 }
    in
    { attempted = List.length plain.lat + List.length p.lat;
      failed = plain.wrong + p.wrong;
      problems;
      figures =
        layer_figs
        @ [ fig "shred.shred_ms" "ms" (1000.0 *. st.shred_s);
            fig "shred.rows" "count"
              (float_of_int (Database.total_rows (Session.store st.session).Loader.db));
            fig "trace.overhead_ms_per_op" "ms"
              (1000.0 *. (Stats.mean p.lat -. Stats.mean plain.lat)) ];
      notes = [ Printf.sprintf "traced passes: %d" (List.length p.passes) ] }
  end
