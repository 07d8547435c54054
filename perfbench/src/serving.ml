(* The loopback TCP set-up the served workloads share: an in-process
   {!Server} with one worker domain answering one {!Client} connection. *)

module Server = Ppfx_net.Server
module Wire = Ppfx_net.Wire
module Client = Ppfx_client.Client
module Session = Ppfx_service.Session
module Update = Ppfx_update.Update
module Wstore = Ppfx_wal.Store
module Xmlparser = Ppfx_xml.Parser
module Metrics = Ppfx_service.Metrics

(* One connection keeps at most one request in flight, so one worker
   domain serves it; with the event-loop domain and the client that is
   the machine's two cores busy at most. *)
let config = { Server.default_config with Server.workers = 1 }

type t = { server : Server.t; client : Client.t }

let start factory =
  let server = Server.start ~config factory in
  { server; client = Client.connect ~port:(Server.port server) () }

let stop t =
  Client.close t.client;
  Server.stop t.server

let op_of_wire : Wire.update_op -> Update.op = function
  | Wire.Op_insert { parent; before; fragment } ->
    Update.Insert_subtree { parent; before; fragment = Xmlparser.parse fragment }
  | Wire.Op_delete { target } -> Update.Delete_subtree { target }
  | Wire.Op_replace { target; fragment } ->
    Update.Replace_subtree { target; fragment = Xmlparser.parse fragment }
  | Wire.Op_set_attr { target; name; value } -> Update.Set_attribute { target; name; value }
  | Wire.Op_set_text { target; text } -> Update.Set_text { target; text }

(* {!Server.session_executor} with a span around each call into a layer.
   A read is [Session.run] split into its prepare and execute calls. The
   durable write path repeats the executor's own sequence (stage, log,
   commit, checkpoint when due) so each step gets its span; it must be
   kept in step with [Server.session_executor]. *)
let traced_executor ?update ?wal s =
  let inner = Server.session_executor ?update ?wal s in
  let span name f = Common.session_span s name f in
  let exec_update =
    match update, wal with
    | Some (lock, u), Some w ->
      fun op ->
        Trace.span "service.update" (fun () ->
            Mutex.protect lock (fun () ->
                let op = Trace.span "xml.parse_fragment" (fun () -> op_of_wire op) in
                let cs = Trace.span "update.stage" (fun () -> Update.stage u op) in
                ignore
                  (Trace.span "wal.append" (fun () -> Wstore.append w ~op ~inserts:true cs)
                    : int);
                Trace.span "update.commit" (fun () -> Update.commit (Update.db u) cs);
                if Wstore.should_checkpoint w then
                  Trace.span "wal.checkpoint" (fun () ->
                      Wstore.checkpoint w ~db:(Update.db u) ~meta:(Server.store_meta u));
                Trace.count "update.pathids"
                  (float_of_int (List.length cs.Update.cs_pathids));
                Update.outcome_of cs))
    | _ -> inner.Server.exec_update
  in
  { inner with
    Server.exec_prepare = (fun q -> span "service.prepare" (fun () -> inner.exec_prepare q));
    exec_run =
      (fun q ->
        let p = span "service.prepare" (fun () -> Session.prepare s q) in
        span "service.execute" (fun () -> Session.execute s p));
    exec_update }

let executor ~traced ?update ?wal s =
  if traced then traced_executor ?update ?wal s else Server.session_executor ?update ?wal s

(* The server's own stage timers and byte counter, read after a ping:
   with one connection, the ping is served only once the worker has
   recorded the request before it. *)
type snapshot = { execute : float; queue : float; bytes_out : int }

let snapshot t =
  Client.ping t.client;
  let m = Server.metrics t.server in
  { execute = Metrics.stage_total m Metrics.Execute;
    queue = Metrics.stage_total m Metrics.Queue;
    bytes_out = Metrics.bytes_out m }

(* Per-operation network figures over a timed phase: [roundtrip] is the
   summed client-side round-trip time of its [ops] operations. *)
let net_figures t ~before ~ops ~reads ~roundtrip =
  let after = snapshot t in
  let server = after.execute -. before.execute and queue = after.queue -. before.queue in
  let ms x = 1000.0 *. Stats.per x ops in
  Common.
    [ fig "net.roundtrip_ms" "ms" (ms roundtrip); fig "net.server_ms" "ms" (ms server);
      fig "net.queue_ms" "ms" (ms queue);
      fig "net.overhead_ms" "ms" (ms (roundtrip -. server -. queue));
      fig "net.bytes_out_per_read" "bytes"
        (Stats.per (float_of_int (after.bytes_out - before.bytes_out)) reads) ]

(* Bytes of a result as the wire encodes it, counted by the client. *)
let result_bytes rows =
  String.length (Wire.response_payload (Wire.Rows { stmt = 0; rows; more = false }))
