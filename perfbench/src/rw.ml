(* rw-durable: reads beside writes on one durable store, served over
   loopback TCP by a [Server.session_executor ~update ~wal] server that
   fsyncs every write before acking it (the [ppfx serve --data-dir]
   default). After the run the store is recovered from its directory and
   must answer every query as the live store did. *)

open Common
module Client = Serving.Client
module Server = Serving.Server
module Wire = Serving.Wire
module Update = Serving.Update
module Wstore = Serving.Wstore

let scale cfg = if cfg.smoke then 2 else 50

(* Writes logged after the final checkpoint, for recovery to replay. They
   stay below the WAL's 4 MiB rotation threshold, so all are replayed. *)
let tail_writes cfg = if cfg.smoke then 5 else 15

(* Q1, Q2, Q6 and XE3 touch nothing the writes change; XE1 reads the
   token-indexed location text that set-text rewrites; Q12 reads the
   featured flag set-attribute flips; Q24 sees every inserted person. An
   odd number of queries puts the median read inside one query's
   latencies rather than on the edge between two. *)
let read_names = [| "Q1"; "Q2"; "Q6"; "XE3"; "XE1"; "Q12"; "Q24" |]

let locations = [| "france"; "greece"; "southern france"; "japan"; "peru"; "norway" |]

(* ------------------------------------------------------------------ *)
(* The expected answers, kept up to date with every acked write         *)
(* ------------------------------------------------------------------ *)

type model = {
  reference : int list array;  (** initial answers, by query index *)
  loc_item : (int, int) Hashtbl.t;  (** location element -> its item *)
  loc_text : (int, string) Hashtbl.t;
  loc_ids : int array;
  featured : (int, bool) Hashtbl.t;  (** item -> featured='yes' *)
  item_ids : int array;
  people : int;  (** the /site/people element *)
  mutable inserted : int;  (** acked inserts, for fresh ids *)
  mutable live : int;  (** inserted persons not yet deleted *)
  mutable seen : int list;  (** inserted persons the last Q24 read returned *)
  deleted : (int, unit) Hashtbl.t;
}

let contains_france s =
  let n = String.length s and k = String.length "france" in
  let rec go i = i + k <= n && (String.sub s i k = "france" || go (i + 1)) in
  go 0

let model_of doc reference =
  let loc_item = Hashtbl.create 256 and loc_text = Hashtbl.create 256 in
  let featured = Hashtbl.create 256 and people = ref 0 in
  Doc.iter
    (fun (e : Doc.element) ->
      match e.tag with
      | "location" ->
        Hashtbl.replace loc_item e.id e.parent;
        Hashtbl.replace loc_text e.id e.text
      | "item" -> Hashtbl.replace featured e.id (List.assoc_opt "featured" e.attrs = Some "yes")
      | "people" -> people := e.id
      | _ -> ())
    doc;
  let keys h = Array.of_list (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) h [])) in
  { reference; loc_item; loc_text; loc_ids = keys loc_item; featured; item_ids = keys featured;
    people = !people; inserted = 0; live = 0; seen = []; deleted = Hashtbl.create 64 }

let expected_xe1 m =
  Hashtbl.fold
    (fun loc text acc -> if contains_france text then Hashtbl.find m.loc_item loc :: acc else acc)
    m.loc_text []
  |> List.sort_uniq compare

let expected_q12 m =
  Hashtbl.fold (fun item yes acc -> if yes then item :: acc else acc) m.featured []
  |> List.sort compare

(* Whether a read's answer is right; a Q24 answer also teaches the model
   which ids the inserted persons got. *)
let check_read m name ids =
  let reference = m.reference.(query_index name) in
  match name with
  | "XE1" -> ids = expected_xe1 m
  | "Q12" -> ids = expected_q12 m
  | "Q24" ->
    let extra = List.filter (fun id -> not (List.mem id reference)) ids in
    let ok =
      List.length ids = List.length reference + List.length extra
      && List.for_all (fun id -> List.mem id ids) reference
      && List.length extra = m.live
      && List.for_all (fun id -> not (Hashtbl.mem m.deleted id)) extra
      && List.for_all (fun id -> List.mem id extra) m.seen
    in
    m.seen <- extra;
    ok
  | _ -> ids = reference

(* A seeded write and what to record once it is acked. *)
let draw_set_text m rng =
  let loc = m.loc_ids.(Prng.int rng (Array.length m.loc_ids)) in
  let text = Prng.pick rng locations in
  (Wire.Op_set_text { target = loc; text }, fun () -> Hashtbl.replace m.loc_text loc text)

let draw_write m rng =
  let insert () =
    let n = m.inserted in
    ( Wire.Op_insert
        { parent = m.people; before = None;
          fragment = Printf.sprintf "<person id=\"bench%d\"><name>bench person %d</name></person>" n n },
      fun () ->
        m.inserted <- m.inserted + 1;
        m.live <- m.live + 1 )
  in
  match Prng.int rng 100 with
  | r when r < 40 -> draw_set_text m rng
  | r when r < 60 ->
    let item = m.item_ids.(Prng.int rng (Array.length m.item_ids)) in
    let yes = not (Hashtbl.find m.featured item) in
    ( Wire.Op_set_attr
        { target = item; name = "featured"; value = (if yes then Some "yes" else None) },
      fun () -> Hashtbl.replace m.featured item yes )
  | r when r < 85 || m.seen = [] -> insert ()
  | _ ->
    let target = List.nth m.seen (Prng.int rng (List.length m.seen)) in
    ( Wire.Op_delete { target },
      fun () ->
        m.seen <- List.filter (( <> ) target) m.seen;
        Hashtbl.replace m.deleted target ();
        m.live <- m.live - 1 )

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type durable = {
  u : Update.t;
  wal : Wstore.t;
  lock : Mutex.t;  (** the server's write-path lock *)
  wal_metrics : Metrics.t;
  shred_s : float;
  shred_rows : int;
}

let serve ~traced d =
  Serving.start (fun () ->
      Serving.executor ~traced ~update:(d.lock, d.u) ~wal:d.wal
        (Session.create (Update.store d.u)))

(* Generate, shred, write checkpoint 0 and start the server, as
   [ppfx serve --data-dir] does: everything up to the first request.
   Returns the store, the server and the set-up time. *)
let setup cfg dir =
  rm_rf dir;
  let (d, sv), setup_s =
    timed (fun () ->
        let tree = Xmark.generate ~seed:cfg.seed ~items_per_region:(scale cfg) () in
        let doc = Doc.of_tree tree in
        let store, shred_s = timed (fun () -> Loader.shred (Xmark.schema ()) doc) in
        let u = Update.of_store store [ tree ] in
        let wal =
          Wstore.init ~durability:Wstore.Fsync ~dir ~db:store.Loader.db
            ~meta:(Server.store_meta u) ()
        in
        let d =
          { u; wal; lock = Mutex.create (); wal_metrics = Metrics.create (); shred_s;
            shred_rows = Database.total_rows store.Loader.db }
        in
        (d, serve ~traced:false d))
  in
  Wstore.set_metrics d.wal d.wal_metrics;
  (d, sv, setup_s)

let prepare_reads (sv : Serving.t) =
  Array.map (fun name -> Client.prepare sv.client (snd queries.(query_index name))) read_names

(* ------------------------------------------------------------------ *)
(* The timed mix                                                       *)
(* ------------------------------------------------------------------ *)

type phase = {
  read_lat : float list;
  write_lat : float list;
  blocks : pass list;
  wrong : int;
  errors : int;
  touched : int;  (** rows inserted, updated or deleted, as acked *)
  rows : int;  (** result rows received, counted while tracing *)
  bytes : int;  (** their wire bytes, counted while tracing *)
}

(* A block is every read query once and [block_writes] writes, in a
   seeded order: about one write per four reads, and every query read
   equally often, so the latency quantiles do not move with how often a
   draw happened to pick the costly ones. *)
let block_writes = 2

(* The closed loop: one connection sends whole blocks, each request after
   the previous answer arrived, until [until], and at least one. *)
let loop ~until rng m (sv : Serving.t) stmts =
  let read_lat = ref [] and write_lat = ref [] and blocks = ref [] in
  let wrong = ref 0 and errors = ref 0 and touched = ref 0 and rows = ref 0 and bytes = ref 0 in
  let reads = Array.length read_names in
  while !blocks = [] || now () < until do
    tick ();
    let at = now () and block = ref 0.0 and block_reads = ref [] in
    Array.iter
      (fun k ->
        Trace.next_request ();
        if k >= reads then begin
          let op, apply = draw_write m rng in
          match
            Trace.roundtrip "client.write" (fun () -> timed (fun () -> Client.update sv.client op))
          with
          | o, dt ->
            write_lat := dt :: !write_lat;
            block := !block +. dt;
            apply ();
            touched := !touched + o.Client.inserted + o.updated + o.deleted
          | exception Client.Server_error _ -> incr errors
        end
        else begin
          match
            Trace.roundtrip "client.read" (fun () ->
                timed (fun () -> Client.execute_result sv.client stmts.(k)))
          with
          | result, dt ->
            read_lat := dt :: !read_lat;
            block_reads := dt :: !block_reads;
            block := !block +. dt;
            Trace.span "bench.check" (fun () ->
                if Trace.on () then begin
                  rows := !rows + List.length result.Engine.rows;
                  bytes := !bytes + Serving.result_bytes result.Engine.rows
                end;
                if not (check_read m read_names.(k) (Translate.result_ids result)) then incr wrong)
          | exception Client.Server_error _ -> incr errors
        end)
      (shuffled rng (reads + block_writes));
    blocks := { at; reads = !block_reads; total = !block } :: !blocks
  done;
  { read_lat = !read_lat; write_lat = !write_lat; blocks = !blocks; wrong = !wrong;
    errors = !errors; touched = !touched; rows = !rows; bytes = !bytes }

(* ------------------------------------------------------------------ *)
(* After the run: checkpoint, a logged tail, recovery                   *)
(* ------------------------------------------------------------------ *)

type finish = {
  store_bytes : int;  (** the final checkpoint's files *)
  live : int list array;  (** the live store's answers to every query *)
  failed : int;
}

(* Checkpoint, log a fixed tail of writes past it, check that every
   acked insert is visible, record the live answers, then stop serving
   and close the log without the clean-shutdown marker, so recovery
   replays the tail. *)
let finish cfg rng m dir d (sv : Serving.t) =
  Mutex.protect d.lock (fun () ->
      Wstore.checkpoint d.wal ~db:(Update.db d.u) ~meta:(Server.store_meta d.u));
  let store_bytes =
    Array.fold_left
      (fun acc f ->
        if String.starts_with ~prefix:"checkpoint-" f then
          acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
        else acc)
      0 (Sys.readdir dir)
  in
  let failed = ref 0 in
  for _ = 1 to tail_writes cfg do
    let op, apply = draw_set_text m rng in
    match Client.update sv.client op with
    | _ -> apply ()
    | exception Client.Server_error _ -> incr failed
  done;
  let live = Array.map (fun (_, q) -> Translate.result_ids (Client.run_result sv.client q)) queries in
  if not (check_read m "Q24" live.(query_index "Q24")) then incr failed;
  Serving.stop sv;
  Wstore.close d.wal;
  { store_bytes; live; failed = !failed }

type recovery = {
  recover_s : float;  (** recover + replay + the first answered query *)
  recover_only_s : float;
  replay_s : float;
  replayed : int;
  restart_pass_s : float;  (** recover + replay + every query once, cold *)
  mismatched : int;
}

(* Restart from the directory alone, as after a crash: the regex cache
   starts empty, the checkpoint is loaded, the tail replayed, and every
   query asked once. The recovered store must answer each as the live
   one did. *)
let recover_once rng dir live =
  Gc.full_major ();
  Regex.cache_clear ();
  let fail what msg = failwith (Printf.sprintf "rw-durable: %s: %s" what msg) in
  let t0 = now () in
  match Wstore.recover ~durability:Wstore.Fsync ~dir () with
  | Error msg -> fail "recover" msg
  | Ok r ->
    let t1 = now () in
    (match Wstore.rebuild_full ~db:r.Wstore.db ~meta:r.Wstore.meta r.Wstore.records with
     | Error msg -> fail "replay" msg
     | Ok u ->
       let t2 = now () in
       let pass = session_pass rng (Session.create (Update.store u)) live in
       Wstore.close r.Wstore.store;
       { recover_s = t2 -. t0 +. List.hd pass.pass.reads; recover_only_s = t1 -. t0;
         replay_s = t2 -. t1; replayed = r.Wstore.recovery.Wstore.replayed;
         restart_pass_s = t2 -. t0 +. pass.pass.total; mismatched = pass.pass_wrong })

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

(* The reference answers and the initial document, from which every
   round's write model starts. *)
let initial cfg =
  let tree = Xmark.generate ~seed:cfg.seed ~items_per_region:(scale cfg) () in
  let doc = Doc.of_tree tree in
  let reference = reference doc in
  let m = model_of doc reference in
  let problems =
    if expected_xe1 m = reference.(query_index "XE1") && expected_q12 m = reference.(query_index "Q12")
    then []
    else [ "the write model disagrees with the reference evaluator" ]
  in
  (tree, doc, reference, problems)

let store_dir cfg = Filename.concat cfg.dir "rw-store"
let attempted p = List.length p.read_lat + List.length p.write_lat + p.errors
let op_lat p = p.read_lat @ p.write_lat

let rounds cfg = if cfg.smoke then 2 else 3

(* Rounds of the store's whole life, each on a fresh directory and all
   within [--seconds]: set-up, a share of the timed mix, checkpoint and
   tail, recovery and a cold pass on the recovered store. *)
let run_untraced cfg =
  let rng = op_rng cfg.seed in
  let tree, doc, reference, problems = initial cfg in
  let xml_bytes = String.length (Ppfx_xml.Printer.to_string tree) in
  let dir = store_dir cfg in
  let rounds = rounds cfg in
  let t_end = now () +. cfg.seconds in
  let heap = ref 0.0 in
  let results =
    List.init rounds (fun i ->
        Gc.compact ();
        tick ();
        let setup_at = now () in
        let d, sv, setup_s = setup cfg dir in
        let m = model_of doc reference in
        let stmts = prepare_reads sv in
        settle ();
        let p = loop ~until:(round_deadline ~t_end ~rounds i) rng m sv stmts in
        let fin = finish cfg rng m dir d sv in
        let restart_at = now () in
        let r = recover_once rng dir fin.live in
        rm_rf dir;
        if i = 0 then heap := heap_peak_mb ();
        ((setup_at, setup_s), p, fin, (restart_at, r)))
  in
  tick ();
  let all f = List.concat_map (fun (_, p, _, _) -> f p) results in
  let med f = Stats.median (List.map f results) in
  let read_figs, read_note =
    pass_figures ~ops:(Array.length read_names + block_writes) (all (fun p -> p.blocks))
  in
  let write_figs, write_note = latency_figures "wall.write" (all (fun p -> p.write_lat)) in
  let figures =
    time_figures "setup_s" (List.map (fun (s, _, _, _) -> s) results)
    @ time_figures "cold_pass_s"
        (List.map (fun (_, _, _, (at, r)) -> (at, r.restart_pass_s)) results)
    @ [ fig "heap_peak_mb" "MB" !heap; slowdown_figure () ]
    @ read_figs @ write_figs
    @ [ fig "wall.recover_s" "s" (med (fun (_, _, _, (_, r)) -> r.recover_s));
        fig "store_bytes_per_xml_byte" "ratio"
          (Stats.median
             (List.map
                (fun (_, _, fin, _) ->
                  Stats.ratio (float_of_int fin.store_bytes) (float_of_int xml_bytes))
                results)) ]
  in
  { attempted = List.fold_left (fun a (_, p, _, _) -> a + attempted p) 0 results;
    failed =
      List.fold_left
        (fun a (_, p, fin, (_, r)) -> a + p.wrong + p.errors + fin.failed + r.mismatched)
        0 results;
    problems;
    figures;
    notes =
      [ read_note; write_note;
        Printf.sprintf "scale %d: %d elements; %d rounds; recovery replayed %d records"
          (scale cfg) (Doc.size doc) rounds
          (match results with (_, _, _, (_, r)) :: _ -> r.replayed | [] -> 0) ] }

let run_traced cfg =
  let rng = op_rng cfg.seed in
  let _, doc, reference, problems = initial cfg in
  let dir = store_dir cfg in
  let d, sv, _ = setup cfg dir in
  let m = model_of doc reference in
  let half = cfg.seconds /. 2.0 in
  let plain = loop ~until:(now () +. half) rng m sv (prepare_reads sv) in
  Serving.stop sv;
  let sv = serve ~traced:true d in
  let stmts = prepare_reads sv in
  let before = Serving.snapshot sv in
  let wal0 = (Metrics.wal_bytes d.wal_metrics, Metrics.wal_fsyncs d.wal_metrics) in
  let r0 = (Regex.cache_hits (), Regex.cache_misses ()) and words0, majors0 = gc_snapshot () in
  Trace.start ();
  let p, wall = timed (fun () -> loop ~until:(now () +. half) rng m sv stmts) in
  Trace.stop ();
  let words1, majors1 = gc_snapshot () in
  let spans = Trace.all () in
  Trace.write_jsonl (Filename.concat cfg.dir "trace-rw-durable.jsonl") spans;
  let reads = List.length p.read_lat and writes = List.length p.write_lat in
  let layer_figs, coverage_problems =
    layer_figures
      { reads; writes; wall; spans;
        regex_hits = Regex.cache_hits () - fst r0; regex_misses = Regex.cache_misses () - snd r0;
        minor_words = words1 -. words0; major_collections = majors1 - majors0 }
  in
  let net =
    Serving.net_figures sv ~before ~ops:(reads + writes) ~reads
      ~roundtrip:(Stats.sum (op_lat p))
  in
  let per_write x = Stats.per (float_of_int x) writes in
  let wal_figs =
    [ fig "wal.bytes_per_write" "bytes" (per_write (Metrics.wal_bytes d.wal_metrics - fst wal0));
      fig "wal.fsyncs_per_write" "count" (per_write (Metrics.wal_fsyncs d.wal_metrics - snd wal0));
      fig "update.rows_touched_per_write" "count" (per_write p.touched);
      fig "client.rows_per_read" "count" (Stats.per (float_of_int p.rows) reads);
      fig "client.result_bytes_per_read" "bytes" (Stats.per (float_of_int p.bytes) reads) ]
  in
  let fin = finish cfg rng m dir d sv in
  let r = recover_once rng dir fin.live in
  rm_rf dir;
  { attempted = attempted plain + attempted p;
    failed = plain.wrong + plain.errors + p.wrong + p.errors + fin.failed + r.mismatched;
    problems = problems @ coverage_problems;
    figures =
      layer_figs @ net @ wal_figs
      @ [ fig "wal.recover_ms" "ms" (1000.0 *. r.recover_only_s);
          fig "wal.replay_ms" "ms" (1000.0 *. r.replay_s);
          fig "wal.records_replayed" "count" (float_of_int r.replayed);
          fig "shred.shred_ms" "ms" (1000.0 *. d.shred_s);
          fig "shred.rows" "count" (float_of_int d.shred_rows);
          fig "trace.overhead_ms_per_op" "ms"
            (1000.0 *. (Stats.mean (op_lat p) -. Stats.mean (op_lat plain))) ];
    notes = [ Printf.sprintf "traced: %d reads, %d writes" reads writes ] }

let run cfg = if cfg.trace then run_traced cfg else run_untraced cfg
